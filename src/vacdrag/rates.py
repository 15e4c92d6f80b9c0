"""Detector excitation rates above the moving half-space.

A stationary dipole detector in free space at zero temperature never clicks:
rate_free_space returns the exact zero with zero error bar. Above a moving
absorptive half-space the anomalous-Doppler window opens and rate_surface
integrates the evanescent-sector rate density

    d Gamma = omega^2 F_lambda(k, ky) Im r_lambda(-k, ky, -omega)
              e^(-2 xi z0) / (xi (2 pi)^2) dk dky

over k in (omega/|V|, k_max), ky folded over both signs. Only modes with
k > omega/|V| see a negative comoving frequency and contribute; the domain
is therefore entirely evanescent (xi real) and the k_max truncation is the
caller's resolution knob, not an error source tracked here. The density is
_density, at given (k^2, ky) with no maps: kappa's folds times Im r_lambda
from the greens kernel's second stage, _reflection. Each sweep of the outer
k integral calls the first stage, _doppler_medium, once on the 15 k-nodes
of every panel it bisects, and all those panels' ky integrals run as one
lockstep batch (`integrate_adaptive(..., batch=m)`), one member per outer
panel with components (2, 15), s and p at every node, whose integrand
gathers each member's arrays, maps ky and calls _density. Each member
still bisects, and each channel still meets its tolerance, as a lone
integral would.

Three changes of variable put the known singular points on panel edges.
The outer integral runs over s in [0, 1], k = k_lo + (k_max - k_lo) s^2,
dk = 2 (k_max - k_lo) s ds: the threshold onset, linear in k - k_lo for a
dielectric and like its square root for a Drude metal (Im chi ~ 1/omega_m),
is smooth in s. Beyond the medium's light cone (beta n > 1) the kernel's
b^2 = -Re xi_m^2 at ky = 0 is positive near the threshold, and the ky
integrand has a square-root branch point at ky = b, clipped to ky_cut / 2.
A batch member with b > 0 at any of its k-nodes integrates over t in [0,
ky_cut] with [0, ky_cut / 2] mapped onto [0, b] and [ky_cut / 2, ky_cut]
onto [b, ky_cut] (_split_map). Each piece is graded toward b, ky = b +-
width e(a)^2 with e(a) = expm1(lambda a) / expm1(lambda): squared at b, so
that sqrt(|ky - b|) is smooth in t, and near b finer than a plain square
by (lambda / expm1(lambda))^2, about 2e-4 at lambda = 6, which resolves the
width that loss gives the branch point. lambda is a constant, not a knob:
it moves only where the panels fall, not the integral. Every other member,
and every member when beta n < 1, integrates ky = t directly, and a sweep
with no mapped member skips the map. Every member starts from the halves
of [0, ky_cut] (integrate_adaptive's `halved`), split at ky = b where
mapped: ky_cut spans at least 50 decay lengths of e^(-2 xi z0), so one
panel over it never meets the tolerance, and its estimate would be thrown
away.

b closes at each k* where b^2 changes sign, and the outer integrand has a
kink there. _light_cone_crossings finds them from the kernel's b^2 on a
coarse grid of the outer variable, each narrowed in its bracket, and the
outer map then goes through the same two-piece helper, with plain squares
(e(a) = a): s = 1/2 goes onto k*, each piece squared toward it and the
onset at k_lo still squared (_outer_map; m crossings take 2^L >= m cells),
and the outer integral starts from the halves split there. In such a call,
a member whose nodes all lie past a k* (b = 0) but with b^2 > -(ky_cut /
2)^2 has the branch point at ky = i sqrt(-b^2) near the real axis, and its
ky map is graded toward ky = 0 (the helper at b = 0). A call with no
crossing, every beta n < 1 call among them, keeps k = k_lo + span s^2, the
plain ky for every member with b = 0 and an outer integral that starts
from its whole interval, the package's one whole start (halved, the
finite-time spline builds faster, which the benchmark's worker reads as
more peak memory). A missed crossing costs sweeps, not accuracy.

Both entry points check their inputs with specs.check_rate_inputs, the
predicate `vacdrag validate` applies to a scenario: beta = 0 and a model
with no terms give the exact zero, and otherwise z0 and a k_max beyond
omega / |beta| (1.8 omega / |beta| for the finite-time window) are
required. rate_surface checks on every call; finite_time_probability once
per cached rate spline, whose key fixes the verdict. Every k-node lies at
or above the least float k >= omega / |beta| with a positive Doppler
frequency (_k_floor), so a free-carrier term's chi is never taken at 0.

finite_time_probability replaces the golden-rule delta with the finite-time
sinc kernel: the rate function is sampled at the Chebyshev points of a
frequency window, interpolated by its Chebyshev series, and convolved with
4 sin^2(x T / 2) / x^2. P(T)/T approaches the stationary rate like 1/T.
This rate spline is cached per (model, frame, detector, quad) and keeps
one convolution plan per panel count, 15 at most (16 MiB): the window cut
into P = 2^k panels of at most 16 kernel cycles each (convolution_panels
caps P at 2^14 and so bounds T), each with a 64-node Gauss-Legendre rule.
The kernel is even in the gap offset, so a plan pairs the nodes +-u of
the grid, and a query on a cached spline is one sin over half the grid,
in place in a fresh array, and one BLAS dot product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cache, lru_cache

import numpy as np
from .greens import _doppler_medium, _reflection
from .kinematics import doppler
from .quadrature import integrate_adaptive, worst_component
from .specs import (DetectorSpec, MotionFrame, NonConvergenceError,
                    QuadratureSpec, SusceptibilityModel, check_rate_inputs,
                    convolution_panels)

__all__ = [
    "DetectorSpec",
    "RateResult",
    "finite_time_probability",
    "rate_free_space",
    "rate_surface",
]


@dataclass(frozen=True)
class RateResult:
    gamma: float
    error_estimate: float
    converged: bool
    k_lower: float
    k_max: float
    breakdown: dict
    exact: bool = False


def _k_lower(omega: float, beta: float) -> float:
    speed = abs(beta)
    return omega / speed if speed > 0.0 else math.inf


def rate_free_space(det: DetectorSpec, frame: MotionFrame,
                    quad: QuadratureSpec) -> RateResult:
    """Excitation rate with no surface: exactly zero at zero temperature."""
    k_max = quad.k_max if quad.k_max is not None else math.inf
    return RateResult(gamma=0.0, error_estimate=0.0, converged=True,
                      k_lower=_k_lower(det.omega, frame.beta), k_max=k_max,
                      breakdown={"s": 0.0, "p": 0.0}, exact=True)


_GRADE = 6.0                        # lambda of the graded ky map
_GRADE_NORM = math.expm1(_GRADE)
_GRADE_SLOPE = 2.0 * _GRADE / _GRADE_NORM
_COARSE, _FINE, _REFINE = 128, 255, 6   # the crossing search
_FLOOR_STEPS = 8                    # ulps searched above the threshold


def _split_map(t, b, on, length, graded=True):
    """x and dx/dt for t in [0, length], with centre points 0 <= b <=
    length. Where `on`, t in [0, length / 2] goes onto [0, b] and
    [length / 2, length] onto [b, length] by x = b +- width e(a)^2, a =
    |t - length / 2| / (length / 2): graded, e(a) = expm1(lambda a) /
    expm1(lambda) (see the module docstring), or plain squares, e(a) = a;
    elsewhere x = t. length may vary along t."""
    half = 0.5 * length
    u = (t - half) / half
    width = np.where(u < 0.0, b, length - b)
    if graded:
        grow = np.expm1(_GRADE * np.abs(u))
        e = grow / _GRADE_NORM
        slope = (_GRADE_SLOPE / half) * width * e * (grow + 1.0)
    else:
        e = np.abs(u)
        slope = (2.0 / half) * width * e
    x = np.where(on, b + np.copysign(width * e * e, u), t)
    return x, np.where(on, slope, 1.0)


def _k_floor(frame, omega, k_lo):
    """The least float k >= k_lo at which the density's Doppler frequency
    gamma (|beta| k - omega), formed by kinematics.doppler, is > 0. Every
    k-node is taken at or above it: k = k_lo + span u^2 rounds onto k_lo
    once span u^2 is below half an ulp of k_lo, and at a zero Doppler
    frequency a free-carrier term's chi is singular. As k_lo = omega /
    |beta| is correctly rounded, the floor is 0 to 3 ulps above it (at most
    2 in 2e5 random draws), so raising a node to it moves k by no more than
    its own rounding, and a node above it keeps its bits."""
    kx_sign = -math.copysign(1.0, frame.beta)
    k = k_lo
    for _ in range(_FLOOR_STEPS):
        if doppler(frame, -omega, kx_sign * k) > 0.0:
            break
        k = math.nextafter(k, math.inf)
    return k


def _light_cone_crossings(model, frame, omega, k_lo, span, k_floor):
    """The zeros k* of the kernel's b^2(k) on the outer domain, as u in (0,
    1) with k = max(k_lo + span u^2, k_floor): the sign changes on a grid of
    _COARSE cell midpoints of u (no node at the Drude pole omega_m = 0), each
    bracket cut into _FINE + 1 parts _REFINE times, to about 3e-17 in u. Two
    zeros within one coarse cell are missed, which costs sweeps only."""
    kx_sign = -math.copysign(1.0, frame.beta)

    def opened(u):
        k = np.maximum(k_lo + span * u * u, k_floor)
        return _doppler_medium(model, frame, kx_sign * k, -omega)[2] > 0.0

    u = (np.arange(_COARSE) + 0.5) / _COARSE    # cap > 0: no Drude pole
    inside = opened(u)
    cut = np.flatnonzero(inside[1:] != inside[:-1])
    if not cut.size:
        return np.empty(0)
    lo, hi, sign = u[cut], u[cut + 1], inside[cut]
    rows = np.arange(cut.size)
    frac = np.linspace(0.0, 1.0, _FINE + 2)
    for _ in range(_REFINE):
        grid = lo[:, None] + (hi - lo)[:, None] * frac
        flip = opened(grid) != sign[:, None]
        flip[:, 0], flip[:, -1] = False, True
        j = flip.argmax(axis=1)
        lo, hi = grid[rows, j - 1], grid[rows, j]
    return 0.5 * (lo + hi)


def _outer_map(s, crossings):
    """u and du/ds for the outer variable s in [0, 1] (k = k_lo + span u^2)
    with the crossings 0 < u_1 < ... < u_m < 1 on panel edges: s is cut
    into 2^L >= m cells of equal width, the i-th mapped onto [e_i-1, e_i]
    by _split_map's plain squares with its centre on u_i, where e_0 = 0,
    e_i is the midpoint of u_i and u_i+1, and e_m is 1, or the midpoint of
    u_m and 1 when 2^L > m; the remaining cells go linearly onto equal
    parts of [e_m, 1]."""
    m = crossings.size
    cells = 1 << (m - 1).bit_length()
    edges = np.zeros(cells + 1)
    edges[1:m] = 0.5 * (crossings[1:] + crossings[:-1])
    edges[m:] = np.linspace(0.5 * (crossings[-1] + 1.0) if cells > m else 1.0,
                            1.0, cells - m + 1)
    centres = np.concatenate((crossings, 0.5 * (edges[m:-1] + edges[m + 1:])))
    j = np.minimum((s * cells).astype(np.intp), cells - 1)
    lo = edges[j]
    width = edges[j + 1] - lo
    u, jac = _split_map((s * cells - j) * width, centres[j] - lo, j < m, width,
                        graded=False)
    return lo + u, jac * (width * cells)


def _folds(det):
    """(omega, -2 z0, kappa's fold coefficients): over both signs of ky,
    fold_s = 2 (kappa_x^2 ky^2 + kappa_y^2 k^2) / kpar^2 and fold_p = 2 (xi^2
    (kappa_x^2 k^2 + kappa_y^2 ky^2) + kappa_z^2 kpar^4) / (kpar^2 omega^2),
    with 1 / (2 pi)^2 (and 1 / omega^2 for p) in the coefficients."""
    omega = det.omega
    sx, sy, sz = (2.0 / (2.0 * math.pi) ** 2 * c * c for c in det.kappa)
    return omega, -2.0 * det.z0, sx, sy, *(c / (omega * omega) for c in (sx, sy, sz))


def _density(eps, mu, folds, k2, ky, jac=None):
    """The (s, p) rate density over omega^2, fold_lambda Im r_lambda
    e^(-2 xi z0) / xi, at k^2 and ky, arrays that broadcast with eps and mu,
    _doppler_medium's at (-sgn(beta) k, -omega); folds = _folds(det). A
    map's Jacobian `jac` scales the weight before the folds."""
    omega, decay, sx, sy, px, py, pz = folds
    ky2 = ky * ky
    kpar2 = k2 + ky2
    xi2 = kpar2 - omega * omega
    xi = np.sqrt(xi2)
    rs, rp = _reflection(eps, mu, kpar2, omega, xi)
    weight = np.exp(decay * xi) / (xi * kpar2)
    if jac is not None:
        weight *= jac
    out = np.empty((2,) + kpar2.shape)
    np.multiply(weight * (sx * ky2 + sy * k2), rs.imag, out=out[0])
    np.multiply(weight * (xi2 * (px * k2 + py * ky2) + pz * kpar2 * kpar2),
                rp.imag, out=out[1])
    return out


def rate_surface(det: DetectorSpec, frame: MotionFrame,
                 model: SusceptibilityModel, quad: QuadratureSpec) -> RateResult:
    """Stationary-detector excitation rate above the moving half-space."""
    if check_rate_inputs(det, frame, model, quad):
        return rate_free_space(det, frame, quad)    # the same exact zero
    k_lo = _k_lower(det.omega, frame.beta)
    omega = det.omega
    kx_sign = -math.copysign(1.0, frame.beta)  # the density's mode (-k, -omega)
    ky_cut = max(25.0 / det.z0, 2.0 * omega, 5.0)
    span = quad.k_max - k_lo
    k_floor = _k_floor(frame, omega, k_lo)
    crossings = _light_cone_crossings(model, frame, omega, k_lo, span, k_floor)
    inner_quad = replace(quad, rel_tol=max(0.1 * quad.rel_tol, 1e-13),
                         abs_tol=0.1 * quad.abs_tol)
    folds = _folds(det)

    def outer(s):
        # k = k_lo + span u^2: the kernel's first stage once on all k-nodes
        # of a sweep, then one lockstep batch of (s, p) ky integrals: one
        # member per outer panel, its 15 k-nodes
        u, du = _outer_map(s, crossings) if crossings.size else (s, 1.0)
        k = np.maximum(k_lo + span * u * u, k_floor).reshape(-1, 15).T
        ksq = k * k
        eps, mu, b2 = _doppler_medium(model, frame, kx_sign * k, -omega)
        # Re xi_m^2 vanishes at ky = b; a member with b > 0 at any of its
        # nodes integrates through _split_map, and so, in a call with a
        # crossing, does one with b^2 > -(ky_cut / 2)^2
        branch = np.minimum(np.sqrt(np.maximum(b2, 0.0)), 0.5 * ky_cut)
        mapped = branch.any(axis=0)
        if crossings.size:
            mapped |= (b2 > -(0.5 * ky_cut) ** 2).any(axis=0)
        # unmapped sweeps skip the map: golden-rule +13%, rate-points +6-9% without
        split = bool(mapped.any())

        def density(arg):
            # np.take gives C-order (15, n) arrays: no copy in quadrature
            t, member = arg
            member_args = (np.take(eps, member, axis=1),
                           np.take(mu, member, axis=1) if np.ndim(mu) else mu,
                           folds, np.take(ksq, member, axis=1))
            if split:
                return _density(*member_args, *_split_map(
                    t, np.take(branch, member, axis=1), mapped[member], ky_cut))
            return _density(*member_args, t)

        res = integrate_adaptive(density, 0.0, ky_cut, inner_quad,
                                 batch=k.shape[1], halved=True)
        if not res.converged.all():
            c, j, i = worst_component(res, inner_quad)
            raise NonConvergenceError(
                f"ky integral for the {'sp'[c]} channel failed at "
                f"k = {k[j, i]:.6g}", residual=float(res.error_estimate[c, j, i]))
        # (2, 15, panels) -> (2, nodes), the nodes of each panel together
        return res.value.transpose(0, 2, 1).reshape(2, -1) * (2.0 * span * u * du)

    res = integrate_adaptive(outer, 0.0, 1.0, quad, halved=bool(crossings.size))
    g_s, g_p = (float(v) for v in omega ** 2 * res.value)
    e_s, e_p = (float(e) for e in omega ** 2 * res.error_estimate)
    return RateResult(gamma=g_s + g_p, error_estimate=e_s + e_p,
                      converged=res.converged, k_lower=k_lo,
                      k_max=quad.k_max, breakdown={"s": g_s, "p": g_p})


@cache
def _gauss_legendre():
    """The 64-node Gauss-Legendre rule on [-1, 1], built on first use: every
    `vacdrag run` process imports this module, and leggauss(64) costs
    milliseconds."""
    return np.polynomial.legendre.leggauss(64)


class _RateSpline:
    """The rate spline over the finite-time window [omega - w, omega + w],
    w = 0.8 omega, with the convolution plans built on it.

    A plan is the composite rule for P panels (specs.convolution_panels):
    the offsets u in [-w, w] cut into P = 2^k equal panels of width h = 2 w
    / P, each with the 64-node Gauss-Legendre rule, node i of panel p at u =
    (h / 2) (2 p + 1 - P + x_i). The grid is odd in u and has no node at u
    = 0, and the kernel and the weights are even in u, so the nodes +-u_j
    pair up: a plan holds u_j / 2 for the 32 P nodes u_j > 0 and one
    coefficient per pair,

        c_j = (h / 2) w_j [Gamma(omega - u_j) + Gamma(omega + u_j)]
              / (2 pi) * 4 / u_j^2,

    so that P(T) = sum_j c_j sin^2(T u_j / 2), one sin per pair.
    """

    def __init__(self, omega, spline):
        self.omega = omega
        self.half_width = 0.8 * omega
        self.spline = spline
        self.plans = {}

    def _plan(self, panels):
        x, weights = _gauss_legendre()
        h = 2.0 * self.half_width / panels
        u = (0.5 * h * (np.arange(1 - panels, panels, 2.0)[:, None] + x)).ravel()
        rate = self.spline(self.omega - u)      # one call on the whole grid
        half = u.size // 2
        pos = u[half:]
        pair = rate[half:] + rate[half - 1::-1]     # Gamma(omega -+ u_j)
        coef = (h / math.pi) * np.tile(weights, panels)[half:] * pair
        return 0.5 * pos, coef / (pos * pos)

    def probability(self, T, panels):
        """P(T) by the rule of `panels` panels, which must be
        specs.convolution_panels(T, omega)."""
        plan = self.plans.get(panels)
        if plan is None:
            plan = self.plans[panels] = self._plan(panels)
        half_u, coef = plan
        x = T * half_u
        np.sin(x, out=x)
        x *= x
        return float(coef.dot(x))


@lru_cache(maxsize=32)
def _rate_spline(model, frame, det, quad):
    """The rate's degree-64 Chebyshev series in the detector gap through the
    65 Chebyshev points, taken in ascending order, of the finite-time window
    [0.2 omega, 1.8 omega], with its convolution plans (see _RateSpline), or
    None where P(T) is the exact zero. check_rate_inputs(..., finite_time=
    True) runs here, once per key, which fixes its verdict: the exact zero
    is cached as None, and a rejected input raises its ValueError and is
    never cached, so every call repeats the message. An unconverged node
    raises NonConvergenceError, naming its gap frequency."""
    if check_rate_inputs(det, frame, model, quad, finite_time=True):
        return None
    omega = det.omega

    def gamma_at(gaps):
        values = np.empty_like(gaps)
        for i, w in enumerate(gaps):
            r = rate_surface(replace(det, omega=float(w)), frame, model, quad)
            if not r.converged:
                raise NonConvergenceError(
                    f"rate spline node at gap frequency {w:.6g} did not converge",
                    residual=r.error_estimate)
            values[i] = r.gamma
        return values
    return _RateSpline(omega, np.polynomial.Chebyshev.interpolate(
        gamma_at, 64, domain=[0.2 * omega, 1.8 * omega]))


def finite_time_probability(det: DetectorSpec, frame: MotionFrame,
                            model: SusceptibilityModel, quad: QuadratureSpec,
                            T: float) -> float:
    """Excitation probability after a finite interaction time T.

    The golden-rule delta is broadened to W_T(x) = 4 sin^2(x T / 2) / x^2 and
    convolved with the rate function over a window of width 0.8 omega around
    the detector gap; P(T)/T approaches the stationary rate as T grows. The
    first call for a (model, frame, det, quad) checks the rate inputs and
    builds the rate spline; later calls, for any T, reuse both. T must be >
    0 and at most 16 pi 2^14 / (0.8 omega), 1.03e7 at omega = 0.1
    (specs.convolution_panels); otherwise ValueError is raised before any
    other check.
    """
    panels = convolution_panels(T, det.omega)
    spline = _rate_spline(model, frame, det, quad)
    return 0.0 if spline is None else spline.probability(T, panels)
