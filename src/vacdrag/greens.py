"""Dyadic Green functions for vacuum above a uniformly moving half-space.

The free-space part enters only at coincident points, in closed form. The
half-space enters through reflection coefficients: rest-frame Fresnel
amplitudes evaluated at the Doppler-shifted frequency gamma (omega - beta kx)
while the wave equation keeps the lab frequency (the first-order-in-velocity
scheme), with the polarization-mixing off-diagonal amplitudes dropped at the
same order. Only this module knows the scheme, in two stages that `rates`
calls too: _doppler_medium (eps, mu and the ky = 0 branch set b^2 at the
Doppler frequency) and _reflection ((r_s, r_p) per abscissa, in _density).
A reflected Green function integrates the closed-form dyad over
ky segments: plain, light-circle substitutions that cancel the 1/xi edge
factor, a 1/u tail; every segment a check needs is a member of one lockstep
batch. Two structural checks live here as operations: the k-space
dissipation identity relating G W G-dagger to the anti-Hermitian part of G,
and the velocity-reversal transpose relation that replaces reciprocity for
moving media.

Branch conventions: _xi_medium gives every decay constant, the principal
branch of sqrt(kpar^2 - eps mu omega^2) pushed to the retarded side where
the radicand is lossless and negative; eps = mu = 1 is the vacuum xi, real
positive evanescent and -i sign(omega) sqrt(omega^2 - kpar^2) propagating.
Polarization vectors are normalized analytically, e.e = 1 (not e.e* = 1).
The real contact divergence of the coincident free part is excluded; only
its imaginary part (the light-cone residue) is kept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kinematics import MotionFrame, doppler, moving_susceptibility_tensors
from .medium import SusceptibilityModel, chi
from .quadrature import (NonConvergenceError, QuadratureSpec, _tail_start,
                         integrate_adaptive, worst_component)
from .specs import (check_dissipation, check_reciprocity,
                    check_reflected_green, check_reflection)
from .tensors import ComplexTensor3

__all__ = [
    "ComplexTensor3",
    "DissipationReport",
    "ReciprocityReport",
    "ReflectionCoefficients",
    "SurfaceGeometry",
    "green_dissipation_identity",
    "im_free_green_coincident",
    "reciprocity_check",
    "reflection_coefficients",
    "surface_green_coincident",
]


@dataclass(frozen=True)
class SurfaceGeometry:
    """Vacuum fills z > 0, medium z < 0; the detector sits at height z0."""

    z0: float

    def __post_init__(self):
        if not self.z0 > 0.0:
            raise ValueError("z0 must be > 0")


@dataclass(frozen=True)
class ReflectionCoefficients:
    r11: complex
    r22: complex
    r12: complex
    r21: complex


@dataclass(frozen=True, slots=True)
class DissipationReport:
    lhs: ComplexTensor3
    rhs: ComplexTensor3
    residual: float
    relative_residual: float


@dataclass(frozen=True, slots=True)
class ReciprocityReport:
    transpose_residual: float
    naive_residual: float


def _cross_matrix(k):
    return np.array([[0.0, -k[2], k[1]],
                     [k[2], 0.0, -k[0]],
                     [-k[1], k[0], 0.0]])


def im_free_green_coincident(kx: float, omega: float) -> ComplexTensor3:
    """Imaginary part of the coincident-point free Green function at fixed kx.

    The transverse K integral picks up the light-cone pole only when
    |kx| < omega; outside that window the result is exactly zero.
    """
    kx, omega = float(kx), float(omega)
    if not omega > 0.0:
        raise ValueError("omega must be > 0")
    if abs(kx) >= omega:
        return ComplexTensor3(np.zeros((3, 3)))
    k0_sq = omega * omega - kx * kx
    xx = k0_sq / (4.0 * omega ** 2)
    tt = 0.25 - k0_sq / (8.0 * omega ** 2)
    return ComplexTensor3(np.diag([xx, tt, tt]))


def _xi_medium(kpar2, eps, mu, omega):
    """Decay constant with the branch continuous in the loss: numpy's
    complex sqrt is the principal branch, Re >= 0, and a lossless radicand
    below zero takes the retarded branch. eps = mu = 1.0 is the vacuum."""
    # mu omega^2 first: for a scalar mu = 1 one complex product per point
    rad = np.asarray(kpar2 - eps * (mu * omega * omega), dtype=complex)
    out = np.sqrt(rad)
    if not rad.imag.all():      # lossless radicands only: golden-rule +2-4% without
        lossless_prop = (rad.imag == 0.0) & (rad.real < 0.0)
        if lossless_prop.any():
            out = np.where(lossless_prop,
                           -1j * np.copysign(1.0, omega) * np.sqrt(np.abs(rad.real)),
                           out)
    return out


def _fresnel_amplitudes(eps, mu, xi, xim):
    rs = (mu * xi - xim) / (mu * xi + xim)
    rp = (eps * xi - xim) / (eps * xi + xim)
    return rs, rp


def _doppler_medium(model, frame, kx, omega):
    """eps and mu at the Doppler frequency of the modes (kx, omega), kx a
    number or an ndarray, and b^2 = -Re xi_m^2 at ky = 0, positive only
    beyond the medium's light cone. mu is the scalar 1.0 for a model with
    no magnetic terms: no chi call and no complex products with it (without
    that, golden-rule +1-3% and rate-points 0-5%)."""
    om_minus = doppler(frame, omega, kx)
    eps = 1.0 + chi(model, "electric", om_minus)
    mu = 1.0 + chi(model, "magnetic", om_minus) if model.magnetic_terms else 1.0
    return eps, mu, (eps * mu).real * omega * omega - kx * kx


def _reflection(eps, mu, kpar2, omega, xi):
    """(r_s, r_p) at kpar^2 from _doppler_medium's eps, mu, all broadcast."""
    return _fresnel_amplitudes(eps, mu, xi, _xi_medium(kpar2, eps, mu, omega))


def reflection_coefficients(model: SusceptibilityModel, frame: MotionFrame,
                            kx: float, ky: float, omega: float) -> ReflectionCoefficients:
    """Half-space reflection amplitudes for a lab-frame mode (kx, ky, omega).

    r11 is the s (transverse-electric) and r22 the p (transverse-magnetic)
    coefficient of the rest-frame medium evaluated at the Doppler frequency;
    the off-diagonal amplitudes are zero at this order.
    """
    kx, ky, omega = float(kx), float(ky), float(omega)
    check_reflection(model, frame.beta, kx, ky, omega)
    kpar2 = kx * kx + ky * ky
    eps, mu, _ = _doppler_medium(model, frame, kx, omega)
    xi = complex(_xi_medium(kpar2, 1.0, 1.0, omega))
    rs, rp = _reflection(eps, mu, kpar2, omega, xi)
    return ReflectionCoefficients(r11=complex(rs), r22=complex(rp),
                                  r12=0j, r21=0j)


def _dyad_pair(eps, mu, kx, omega, ky, xi, dy, zsum):
    """Reflected dyad folded over +-ky, every argument broadcast: (3, 3, ...).

    `eps` and `mu` are _doppler_medium's at (kx, omega); `xi` comes from
    the caller, so the light-circle substitutions can pass the exact value. At one sign of ky the dyad
    r_s e_1 e_1 + r_p e_2(+i xi) e_2(-i xi) is, with a = r_s / kpar^2,
    p = r_p / omega^2, b = xi^2 p / kpar^2 and c = i xi p,

        [[a ky^2 + b kx^2,  (b - a) kx ky,    -c kx    ],
         [(b - a) kx ky,    a kx^2 + b ky^2,  -c ky    ],
         [c kx,             c ky,             p kpar^2 ]]

    times e^(i ky dy - xi zsum) / (4 pi xi). Over +-ky, the entries even in
    ky fold to 2 cos(ky dy) and the odd ones to 2i sin(ky dy).
    """
    kpar2 = kx * kx + ky * ky
    rs, rp = _reflection(eps, mu, kpar2, omega, xi)
    weight = np.exp(-xi * zsum) / (2.0 * xi) / (2.0 * math.pi)
    even, odd = 2.0 * weight * np.cos(ky * dy), 2j * weight * np.sin(ky * dy)
    a, p = rs / kpar2, rp / (omega * omega)
    b, c = xi * xi * p / kpar2, 1j * xi * p
    out = np.empty((3, 3) + even.shape, dtype=complex)
    out[0, 0] = (a * ky * ky + b * kx * kx) * even
    out[1, 1] = (a * kx * kx + b * ky * ky) * even
    out[0, 1] = out[1, 0] = (b - a) * kx * ky * odd
    out[2, 2] = p * kpar2 * even
    out[2, 0], out[2, 1] = c * kx * even, c * ky * odd
    out[0, 2], out[1, 2] = -out[2, 0], -out[2, 1]
    return out


# The kinds of ky segment: ky itself, the 1/u tail (from _tail_start's s),
# and the substitutions inside and outside the light circle ky = kc.
PLAIN, TAIL, INSIDE, OUTSIDE = range(4)
_SEGMENT = ("plain", "tail", "inside", "outside")


def _segment_ky(kind, x, kc2):
    """ky and |dky/dx| at the variable x of ky segments of the given kinds:
    x on a plain segment, 1/x on the tail (1/x^2), and sqrt(kc^2 -+ x^2)
    inside and outside the light circle (x/ky), where xi = -i sign(omega) x
    or x and the Jacobian cancels the 1/xi edge factor."""
    circle, tail = kind >= INSIDE, kind == TAIL
    ky = np.where(circle, np.sqrt(kc2 + np.where(kind == INSIDE, -x * x, x * x)),
                  np.where(tail, 1.0 / x, x))
    return ky, np.where(circle, x / ky, np.where(tail, 1.0 / x ** 2, 1.0))


def _reflected_green(model, requests, quad: QuadratureSpec):
    """ky integrals of the reflected dyad between two points above the
    surface: a (3x3 matrix, error estimate) per request (frame, kx, omega,
    dy = y - y', zsum = z + z'). Every ky segment of every request, over
    its own [a, b], is one member of one lockstep batch, with its own
    tolerances and budget; one dyad call per sweep.
    """
    k_max = quad.k_max
    params, members = [], []    # per request; (request, kind, a, b)
    where = [f"kx = {kx:.6g}, beta = {frame.beta:.6g}" for frame, kx, *_ in requests]
    for r, (frame, kx, omega, dy, zsum) in enumerate(requests):
        eps, mu, _ = _doppler_medium(model, frame, kx, omega)
        circle_sq = omega * omega - kx * kx
        params.append((eps, mu, kx, omega, dy, zsum, max(circle_sq, 0.0)))
        edge = 0.0
        if circle_sq > 0.0:
            kc = math.sqrt(circle_sq)
            edge = 2.0 * kc if k_max is None else min(2.0 * kc, k_max)
            members += [(r, PLAIN, 0.0, 0.5 * kc),
                        (r, INSIDE, 0.0, 0.5 * math.sqrt(3.0) * kc),
                        (r, OUTSIDE, 0.0, math.sqrt(edge ** 2 - kc * kc))]
        if k_max is None:
            s, integrable = _tail_start(lambda ky: _dyad_pair(
                eps, mu, kx, omega, ky, _xi_medium(kx * kx + ky * ky, 1.0, 1.0, omega),
                dy, zsum), edge)
            if not integrable:
                raise NonConvergenceError(f"reflected Green tail grows at "
                                          f"{where[r]}, ky > {s:.6g}", math.inf)
            members += [(r, PLAIN, edge, s), (r, TAIL, 0.0, 1.0 / s)]
        elif edge < k_max:
            members.append((r, PLAIN, edge, k_max))
    table = np.array([params[r] + (kind,) for r, kind, _, _ in members],
                     dtype=complex).T

    def g(arg):
        x, member = arg     # np.take gathers each abscissa's parameters
        col = np.take(table, member, axis=1)
        kx, omega, dy, zsum, kc2, kind = col[2:].real
        ky, jac = _segment_ky(kind, x, kc2)
        xi = np.where(kind == OUTSIDE, x + 0j,
                      np.where(kind == INSIDE, -1j * np.copysign(1.0, omega) * x,
                               _xi_medium(kx * kx + ky * ky, 1.0, 1.0, omega)))
        out = _dyad_pair(col[0], col[1], kx, omega, ky, xi, dy, zsum)
        out *= jac
        bad = ~np.isfinite(out)
        if bad.any():
            q = np.flatnonzero(bad.any(axis=(0, 1)))[0]
            (i, j), (r, seg) = np.argwhere(bad[..., q])[0], members[member[q]][:2]
            raise ValueError(f"reflected Green entry ({i},{j}) is not finite at "
                             f"{where[r]}, {_SEGMENT[seg]} segment, ky = {ky[q]:.6g}")
        return out

    lo, hi = np.array([m[2:] for m in members]).T
    res = integrate_adaptive(g, lo, hi, quad, batch=len(members), halved=True)
    if not res.converged.all():
        i, j, m = worst_component(res, quad)
        r, kind, a, b = members[m]
        with np.errstate(all="ignore"):
            ky = _segment_ky(np.full(2, kind), np.array([a, b]), params[r][-1])[0]
        raise NonConvergenceError(
            f"reflected Green entry ({i},{j}) did not converge at {where[r]}, "
            f"{_SEGMENT[kind]} segment, ky in [{ky.min():.6g}, {ky.max():.6g}]",
            residual=float(res.error_estimate[i, j, m]))
    owner = np.array([m[0] for m in members])
    return [(res.value[..., owner == r].sum(axis=-1),
             float(res.error_estimate[..., owner == r].sum()))
            for r in range(len(requests))]


def surface_green_coincident(model: SusceptibilityModel, frame: MotionFrame,
                             geom: SurfaceGeometry, kx: float, omega: float,
                             quad: QuadratureSpec) -> ComplexTensor3:
    """Coincident-point Green tensor above the surface at fixed kx.

    Reflected ky-integral plus i times the free-space light-cone residue; the
    real contact part of the free term is excluded.
    """
    kx, omega = float(kx), float(omega)
    if not omega > 0.0:
        raise ValueError("omega must be > 0")
    if quad.k_max is None:
        raise ValueError("quad.k_max must be set for the surface integral")
    check_reflected_green(kx, omega, quad.k_max)
    ((reflected, _),) = _reflected_green(
        model, [(frame, kx, omega, 0.0, 2.0 * geom.z0)], quad)
    free_im = np.asarray(im_free_green_coincident(kx, omega))
    return ComplexTensor3(reflected + 1j * free_im)


def green_dissipation_identity(model: SusceptibilityModel, frame: MotionFrame,
                               kx: float, kvec, omega: float,
                               quad: QuadratureSpec | None = None
                               ) -> DissipationReport:
    """Check G W G-dagger = (gamma Omega / i pi)(G - G-dagger) at one k-point.

    Homogeneous-medium k-space specialization: G is the inverse of the 3x3
    wave operator built from the moving-medium susceptibility tensors, and W
    collects the absorptive (entrywise imaginary) parts of the same tensors.
    `quad` is accepted for interface uniformity and never read; the check is
    algebraic.
    """
    del quad
    kx, omega = float(kx), float(omega)
    ky, kz = (float(c) for c in np.asarray(kvec, dtype=float))
    check_dissipation(frame.beta, kx, ky, kz, omega)
    gamma_omega = doppler(frame, omega, kx)

    c_ee, c_bb, c_eb, c_be = (np.asarray(t) for t in
                              moving_susceptibility_tensors(model, frame, omega, kx))
    kmat = _cross_matrix((kx, ky, kz))
    eye = np.eye(3)
    eps = eye + c_ee
    mu_inv = eye - c_bb
    wave_op = -kmat @ mu_inv @ kmat - omega ** 2 * eps \
        - omega * (c_eb @ kmat - kmat @ c_be)
    g = np.linalg.inv(wave_op)

    bath = (2.0 * gamma_omega / math.pi) * (
        omega ** 2 * c_ee.imag
        + omega * (c_eb.imag @ kmat - kmat @ c_be.imag)
        - kmat @ c_bb.imag @ kmat)
    lhs = g @ bath @ g.conj().T
    rhs = (gamma_omega / (1j * math.pi)) * (g - g.conj().T)
    residual = float(np.max(np.abs(lhs - rhs)))
    scale = max(float(np.max(np.abs(lhs))), float(np.max(np.abs(rhs))))
    relative = residual / scale if scale != 0.0 else 0.0
    return DissipationReport(lhs=ComplexTensor3(lhs), rhs=ComplexTensor3(rhs),
                             residual=residual, relative_residual=relative)


def reciprocity_check(model: SusceptibilityModel, frame: MotionFrame,
                      kx: float, omega: float, point_a, point_b,
                      quad: QuadratureSpec) -> ReciprocityReport:
    """Compare the transpose of G(kx; b, a; V) against G(-kx; a, b; -V)
    (the relation moving media actually satisfy) and against
    G(-kx; a, b; V) (naive reciprocity, which must fail for V != 0)."""
    ya, za = (float(c) for c in point_a)
    yb, zb = (float(c) for c in point_b)
    if not (za > 0.0 and zb > 0.0):
        raise ValueError("both points must lie above the surface")
    check_reciprocity(model, frame.beta, float(kx), float(omega), quad.k_max)
    # one batch: G(kx; b, a; V), G(-kx; a, b; -V) and G(-kx; a, b; V)
    (m1, _), (m2, _), (m3, _) = _reflected_green(
        model, [(frame, kx, omega, yb - ya, zb + za),
                (MotionFrame(beta=-frame.beta), -kx, omega, ya - yb, za + zb),
                (frame, -kx, omega, ya - yb, za + zb)], quad)
    scale = max(float(np.max(np.abs(m1))), float(np.max(np.abs(m2))), 1e-300)
    transpose = float(np.max(np.abs(m1.T - m2))) / scale
    naive = float(np.max(np.abs(m1.T - m3))) / scale
    return ReciprocityReport(transpose_residual=transpose, naive_residual=naive)
