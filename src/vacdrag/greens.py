"""Dyadic Green functions for vacuum above a uniformly moving half-space.

The free-space tensor is closed form in k-space. The half-space enters
through reflection coefficients: rest-frame Fresnel amplitudes evaluated at
the Doppler-shifted frequency gamma (omega - beta kx) while the wave equation
keeps the lab frequency (the first-order-in-velocity scheme), with the
polarization-mixing off-diagonal amplitudes dropped at the same order. The
reflected coincident-point tensor takes one ky integral per segment of the
ky axis, all nine dyad entries at once, with the light-cone circle handled
by substitutions that cancel the 1/xi edge factor analytically. Two
structural checks live here as operations: the k-space dissipation identity
relating G W G-dagger to the anti-Hermitian part of G, and the
velocity-reversal transpose relation that replaces reciprocity for moving
media.

Branch conventions: xi = sqrt(kpar^2 - omega^2) is real positive in the
evanescent sector and -i sign(omega) sqrt(omega^2 - kpar^2) in the
propagating sector; the medium-side xi_m takes the principal branch pushed to
the same retarded side, so a lossless medium reduces to the vacuum branch.
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
from .quadrature import (NonConvergenceError, QuadratureSpec,
                         integrate_adaptive, integrate_semi_infinite,
                         worst_component)
from .specs import check_not_comoving, check_not_grazing, check_reflected_mode
from .tensors import ComplexTensor3

__all__ = [
    "ComplexTensor3",
    "DissipationReport",
    "ReciprocityReport",
    "ReflectionCoefficients",
    "SurfaceGeometry",
    "free_green_k",
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
    e_1: np.ndarray
    e_2: np.ndarray
    xi: complex


@dataclass(frozen=True)
class DissipationReport:
    lhs: ComplexTensor3
    rhs: ComplexTensor3
    residual: float
    relative_residual: float


@dataclass(frozen=True)
class ReciprocityReport:
    transpose_residual: float
    naive_residual: float


def _cross_matrix(k):
    return np.array([[0.0, -k[2], k[1]],
                     [k[2], 0.0, -k[0]],
                     [-k[1], k[0], 0.0]])


def free_green_k(kvec, omega: float, eta: float) -> ComplexTensor3:
    """Free-space dyadic Green function at a k-space point."""
    omega = float(omega)
    if omega == 0.0:
        raise ValueError("free-space Green function is singular at omega = 0")
    k = np.asarray(kvec, dtype=float)
    knorm = float(np.linalg.norm(k))
    denom = omega ** 2 * (knorm - omega - 1j * eta) * (knorm + omega + 1j * eta)
    g = -(np.outer(k, k) - omega ** 2 * np.eye(3)) / denom
    return ComplexTensor3(g)


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


def _xi_vacuum(kpar2, omega):
    """Vacuum decay constant, vectorized; retarded branch in the propagating
    sector (outgoing wave for the sign of omega)."""
    kpar2 = np.asarray(kpar2, dtype=float)
    rad = kpar2 - omega * omega
    xi = np.where(rad >= 0.0, np.sqrt(np.abs(rad)), 0.0) + 0j
    prop = rad < 0.0
    if np.any(prop):
        xi = np.where(prop,
                      -1j * math.copysign(1.0, omega) * np.sqrt(np.abs(rad)),
                      xi)
    return xi


def _xi_medium(kpar2, eps, mu, omega):
    """Medium-side decay constant with the branch continuous in the loss:
    numpy's complex sqrt is the principal branch, Re >= 0."""
    rad = np.asarray(kpar2 - eps * mu * omega * omega, dtype=complex)
    out = np.sqrt(rad)
    lossless_prop = (rad.imag == 0.0) & (rad.real < 0.0)
    if np.any(lossless_prop):
        out = np.where(lossless_prop,
                       -1j * math.copysign(1.0, omega) * np.sqrt(np.abs(rad.real)),
                       out)
    return out


def _fresnel_amplitudes(eps, mu, xi, xim):
    rs = (mu * xi - xim) / (mu * xi + xim)
    rp = (eps * xi - xim) / (eps * xi + xim)
    return rs, rp


def reflection_coefficients(model: SusceptibilityModel, frame: MotionFrame,
                            kx: float, ky: float, omega: float) -> ReflectionCoefficients:
    """Half-space reflection amplitudes for a lab-frame mode (kx, ky, omega).

    r11 is the s (transverse-electric) and r22 the p (transverse-magnetic)
    coefficient of the rest-frame medium evaluated at the Doppler frequency;
    the off-diagonal amplitudes are zero at this order. The polarization
    basis (e_1, e_2) and the vacuum xi are returned for dyad assembly.
    """
    kx, ky, omega = float(kx), float(ky), float(omega)
    check_reflected_mode(kx, ky, omega)
    kpar2 = kx * kx + ky * ky
    om_minus, _ = doppler(frame, omega, kx)
    eps = 1.0 + chi(model, "electric", om_minus)
    mu = 1.0 + chi(model, "magnetic", om_minus)
    xi = complex(_xi_vacuum(np.array([kpar2]), omega)[0])
    xim = complex(_xi_medium(np.array([kpar2]), eps, mu, omega)[0])
    rs, rp = _fresnel_amplitudes(eps, mu, xi, xim)
    kpar = math.sqrt(kpar2)
    wz = 1j * xi
    e_1 = np.array([ky, -kx, 0.0], dtype=complex) / kpar
    e_2 = np.array([wz * kx, wz * ky, -kpar2], dtype=complex) / (kpar * omega)
    return ReflectionCoefficients(r11=complex(rs), r22=complex(rp),
                                  r12=0j, r21=0j, e_1=e_1, e_2=e_2, xi=xi)


def _dyad_pair(eps, mu, kx, omega, ky, xi, dy, zsum):
    """Reflected dyad folded over +-ky: (3, 3, n) complex.

    `eps` and `mu` are the medium's responses at the Doppler frequency of
    (kx, omega), which the caller evaluates once. `xi` is supplied by the
    caller so the light-circle substitutions can pass the exact transformed
    value; the dyad row index carries e(+i xi), the column e(-i xi).
    """
    kpar2 = kx * kx + ky * ky
    kpar = np.sqrt(kpar2)
    xim = _xi_medium(kpar2, eps, mu, omega)
    rs, rp = _fresnel_amplitudes(eps, mu, xi, xim)
    weight = np.exp(-xi * zsum) / (2.0 * xi) / (2.0 * math.pi)
    phase = np.exp(1j * ky * dy)
    out = np.zeros((3, 3, ky.size), dtype=complex)
    wz = 1j * xi
    for sgn, ph in ((1.0, phase), (-1.0, np.conj(phase))):
        kyv = sgn * ky
        e1 = np.stack([kyv, -kx * np.ones_like(ky), np.zeros_like(ky)]) / kpar
        e2u = np.stack([wz * kx, wz * kyv, -kpar2 + 0j]) / (kpar * omega)
        e2d = np.stack([-wz * kx, -wz * kyv, -kpar2 + 0j]) / (kpar * omega)
        dyad = (np.einsum("in,jn->ijn", e1 + 0j, e1 + 0j) * rs
                + np.einsum("in,jn->ijn", e2u, e2d) * rp)
        out += dyad * (weight * ph)
    return out


def _reflected_green(model, frame, kx, omega, y, z, yprime, zprime,
                     quad: QuadratureSpec):
    """ky-integral of the reflected dyad between two points above the surface."""
    dy = y - yprime
    zsum = z + zprime
    k_max = quad.k_max
    sgn_om = math.copysign(1.0, omega)
    om_minus, _ = doppler(frame, omega, kx)
    eps = 1.0 + chi(model, "electric", om_minus)
    mu = 1.0 + chi(model, "magnetic", om_minus)

    def f_plain(ky):
        xi = _xi_vacuum(kx * kx + ky * ky, omega)
        return _dyad_pair(eps, mu, kx, omega, ky, xi, dy, zsum)

    segments = []   # (callable returning (3,3,n), a, b, semi_infinite_flag)
    circle_sq = omega * omega - kx * kx
    if circle_sq > 0.0:
        kc = math.sqrt(circle_sq)
        if k_max is not None and k_max <= kc:
            raise ValueError("quad.k_max truncates inside the light circle")

        def f_inside(q):
            # ky = sqrt(kc^2 - q^2), xi = -i sign(omega) q, jacobian q/ky
            ky = np.sqrt(kc * kc - q * q)
            xi = -1j * sgn_om * q
            return _dyad_pair(eps, mu, kx, omega, ky, xi, dy, zsum) * (q / ky)

        def f_outside(t):
            # ky = sqrt(kc^2 + t^2), xi = t, jacobian t/ky
            ky = np.sqrt(kc * kc + t * t)
            xi = t + 0j
            return _dyad_pair(eps, mu, kx, omega, ky, xi, dy, zsum) * (t / ky)

        outer_edge = 2.0 * kc if k_max is None else min(2.0 * kc, k_max)
        segments.append((f_plain, 0.0, 0.5 * kc, False))
        segments.append((f_inside, 0.0, 0.5 * math.sqrt(3.0) * kc, False))
        segments.append((f_outside, 0.0,
                         math.sqrt(outer_edge ** 2 - kc * kc), False))
        if k_max is None:
            segments.append((f_plain, outer_edge, math.inf, True))
        elif outer_edge < k_max:
            segments.append((f_plain, outer_edge, k_max, False))
    else:
        if k_max is None:
            segments.append((f_plain, 0.0, math.inf, True))
        else:
            segments.append((f_plain, 0.0, k_max, False))

    total = np.zeros((3, 3), dtype=complex)
    err = 0.0
    for func, a, b, semi in segments:
        def entries(x, func=func):
            return func(x).reshape(9, -1)
        if semi:
            res = integrate_semi_infinite(entries, a, quad)
        else:
            res = integrate_adaptive(entries, a, b, quad)
        if not res.converged:
            (worst,) = worst_component(res, quad)
            i, j = divmod(int(worst), 3)
            raise NonConvergenceError(
                f"reflected Green entry ({i},{j}) did not converge",
                residual=float(res.error_estimate[worst]))
        total += res.value.reshape(3, 3)
        err += float(np.sum(res.error_estimate))
    return total, err


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
    check_not_grazing(kx, omega)
    reflected, _ = _reflected_green(model, frame, kx, omega,
                                    0.0, geom.z0, 0.0, geom.z0, quad)
    free_im = np.asarray(im_free_green_coincident(kx, omega))
    return ComplexTensor3(reflected + 1j * free_im)


def green_dissipation_identity(model: SusceptibilityModel, frame: MotionFrame,
                               kx: float, kvec, omega: float,
                               quad: QuadratureSpec) -> DissipationReport:
    """Check G W G-dagger = (gamma Omega / i pi)(G - G-dagger) at one k-point.

    Homogeneous-medium k-space specialization: G is the inverse of the 3x3
    wave operator built from the moving-medium susceptibility tensors, and W
    collects the absorptive (entrywise imaginary) parts of the same tensors.
    `quad` is accepted for interface uniformity; the check is algebraic.
    """
    del quad
    kx, omega = float(kx), float(omega)
    ky, kz = (float(c) for c in np.asarray(kvec, dtype=float))
    check_not_comoving(frame.beta, kx, omega)
    cap_omega = omega - frame.beta * kx
    gamma_omega = frame.gamma * cap_omega

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
    relative = residual / scale if scale > 0.0 else 0.0
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
    check_not_grazing(float(kx), float(omega))
    reversed_frame = MotionFrame(beta=-frame.beta)
    m1, _ = _reflected_green(model, frame, kx, omega, yb, zb, ya, za, quad)
    m2, _ = _reflected_green(model, reversed_frame, -kx, omega, ya, za, yb, zb,
                             quad)
    m3, _ = _reflected_green(model, frame, -kx, omega, ya, za, yb, zb, quad)
    scale = max(float(np.max(np.abs(m1))), float(np.max(np.abs(m2))), 1e-300)
    transpose = float(np.max(np.abs(m1.T - m2))) / scale
    naive = float(np.max(np.abs(m1.T - m3))) / scale
    return ReciprocityReport(transpose_residual=transpose, naive_residual=naive)
