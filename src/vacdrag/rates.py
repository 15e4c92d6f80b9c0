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
caller's resolution knob, not an error source tracked here. Both
polarization channels come out of one pass: each sweep of the outer k
integral evaluates chi once on the 15 k-nodes of every panel it bisects,
and all those panels' ky integrals run as one lockstep batch
(`integrate_adaptive(..., batch=m)`), one member per outer panel with
components (2, 15), s and p at every node. Each member still bisects, and
each channel still meets its tolerance, as a lone integral would, while one
density call per sweep serves the whole batch.

Both entry points check their inputs with specs.check_rate_inputs, the
predicate `vacdrag validate` applies to a scenario: beta = 0 and a model
with no terms give the exact zero, and otherwise z0 and a k_max beyond
omega / |beta| (1.8 omega / |beta| for the finite-time window) are
required.

finite_time_probability replaces the golden-rule delta with the finite-time
sinc kernel: the rate function is sampled on a frequency window, splined,
and convolved with 4 sin^2(x T / 2) / x^2. P(T)/T approaches the stationary
rate like 1/T. The spline is cached per (model, frame, detector, quad) and
carries one convolution plan per Simpson grid size, so a query on a cached
spline is one sin over the grid and one dot product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
from .greens import _fresnel_amplitudes, _xi_medium
from .medium import chi
from .quadrature import integrate_adaptive, worst_component
from .specs import (DetectorSpec, MotionFrame, NonConvergenceError,
                    QuadratureSpec, SusceptibilityModel, check_rate_inputs)

__all__ = [
    "DetectorSpec",
    "RateResult",
    "finite_time_probability",
    "rate_free_space",
    "rate_surface",
    "rate_vs_distance",
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


def rate_surface(det: DetectorSpec, frame: MotionFrame,
                 model: SusceptibilityModel, quad: QuadratureSpec) -> RateResult:
    """Stationary-detector excitation rate above the moving half-space."""
    if check_rate_inputs(det, frame, model, quad):
        return rate_free_space(det, frame, quad)    # the same exact zero
    k_lo = _k_lower(det.omega, frame.beta)
    omega = det.omega
    z0 = det.z0
    kx_c, ky_c, kz_c = det.kappa
    speed = abs(frame.beta)
    ky_cut = max(25.0 / z0, 2.0 * omega, 5.0)
    inner_quad = replace(quad, rel_tol=max(0.1 * quad.rel_tol, 1e-13),
                         abs_tol=0.1 * quad.abs_tol)

    def outer(karr):
        # chi once on all k-nodes of a sweep, then one lockstep batch of
        # (s, p) ky integrals: one member per outer panel, its 15 k-nodes
        cap = frame.gamma * (speed * karr - omega)
        k = karr.reshape(-1, 15).T
        eps = (1.0 + chi(model, "electric", cap)).reshape(-1, 15).T
        mu = (1.0 + chi(model, "magnetic", cap)).reshape(-1, 15).T

        def density(arg):
            # np.take gives C-order (15, n) arrays: no copy in quadrature
            ky, member = arg
            kn = np.take(k, member, axis=1)
            kpar2 = kn * kn + ky * ky
            xi = np.sqrt(kpar2 - omega * omega)
            e, m = np.take(eps, member, axis=1), np.take(mu, member, axis=1)
            xim = _xi_medium(kpar2, e, m, omega)
            rs, rp = _fresnel_amplitudes(e, m, xi, xim)
            fold_s = ((kx_c * ky + ky_c * kn) ** 2
                      + (-kx_c * ky + ky_c * kn) ** 2) / kpar2
            fold_p = (xi * xi * ((kx_c * kn - ky_c * ky) ** 2
                                 + (kx_c * kn + ky_c * ky) ** 2)
                      + 2.0 * kz_c ** 2 * kpar2 ** 2) / (kpar2 * omega ** 2)
            weight = np.exp(-2.0 * xi * z0) / xi / (2.0 * math.pi) ** 2
            return np.stack((weight * fold_s * rs.imag, weight * fold_p * rp.imag))

        res = integrate_adaptive(density, 0.0, ky_cut, inner_quad,
                                 batch=k.shape[1])
        if not res.converged.all():
            c, j, i = worst_component(res, inner_quad)
            raise NonConvergenceError(
                f"ky integral for the {'sp'[c]} channel failed at "
                f"k = {k[j, i]:.6g}", residual=float(res.error_estimate[c, j, i]))
        # (2, 15, panels) -> (2, nodes), the nodes of each panel together
        return res.value.transpose(0, 2, 1).reshape(2, -1)

    res = integrate_adaptive(outer, k_lo, quad.k_max, quad)
    g_s, g_p = (float(v) for v in omega ** 2 * res.value)
    e_s, e_p = (float(e) for e in omega ** 2 * res.error_estimate)
    return RateResult(gamma=g_s + g_p, error_estimate=e_s + e_p,
                      converged=res.converged, k_lower=k_lo,
                      k_max=quad.k_max, breakdown={"s": g_s, "p": g_p})


def rate_vs_distance(det: DetectorSpec, frame: MotionFrame,
                     model: SusceptibilityModel, quad: QuadratureSpec,
                     z0_ladder) -> list:
    """Surface rate at each height of a ladder, detector otherwise fixed."""
    return [rate_surface(replace(det, z0=float(z)), frame, model, quad)
            for z in z0_ladder]


def _cubic_spline(x, y):
    """Not-a-knot cubic spline through (x, y), as a vectorized callable for
    points in [x[0], x[-1]]: the slopes s solve the usual tridiagonal
    system, closed by third-derivative continuity at x[1] and x[-2]."""
    h = np.diff(x)
    slope = np.diff(y) / h
    n = len(x)
    i = np.arange(1, n - 1)
    a = np.zeros((n, n))
    b = np.empty(n)
    a[i, i - 1], a[i, i], a[i, i + 1] = h[1:], 2.0 * (h[:-1] + h[1:]), h[:-1]
    b[1:-1] = 3.0 * (h[1:] * slope[:-1] + h[:-1] * slope[1:])
    d = x[2] - x[0]
    a[0, :2] = h[1], d
    b[0] = ((h[0] + 2.0 * d) * h[1] * slope[0] + h[0] ** 2 * slope[1]) / d
    d = x[-1] - x[-3]
    a[-1, -2:] = d, h[-2]
    b[-1] = (h[-1] ** 2 * slope[-2] + (2.0 * d + h[-1]) * h[-2] * slope[-1]) / d
    s = np.linalg.solve(a, b)
    c3 = (s[:-1] + s[1:] - 2.0 * slope) / h
    c2 = (slope - s[:-1]) / h - c3
    c3 = c3 / h

    def spline(z):
        j = np.clip(np.searchsorted(x, z, side="right") - 1, 0, n - 2)
        t = z - x[j]
        return ((c3[j] * t + c2[j]) * t + s[j]) * t + y[j]
    return spline


_MAX_PLANS = 8   # convolution plans kept per spline, oldest evicted first


class _RateSpline:
    """The rate spline over the finite-time window [omega - w, omega + w],
    w = 0.8 omega, with the Simpson convolution plans built on it.

    The grid has n = max(513, 16 cycles of the kernel) nodes u_i, rounded
    up to odd, so n depends on T only through the kernel's oscillation. A
    plan for one n holds u_i / 2 for the nodes off the centre and
    coefficients c_i = (du / 3) w_i Gamma(omega - u_i) / (2 pi) * 4 / u_i^2,
    plus the centre node's c_0 = (du / 3) w_0 Gamma(omega) / (2 pi), so that

        P(T) = sum_i c_i sin^2(T u_i / 2) + c_0 T^2

    is the composite Simpson rule of the sinc-kernel convolution.
    """

    def __init__(self, omega, spline):
        self.omega = omega
        self.half_width = 0.8 * omega
        self.spline = spline
        self.plans = {}

    def grid_size(self, T):
        cycles = 2.0 * self.half_width * T / (2.0 * math.pi)
        n = max(513, int(16 * cycles) + 1)
        return n + 1 if n % 2 == 0 else n

    def _plan(self, n):
        u, du = np.linspace(-self.half_width, self.half_width, n, retstep=True)
        weights = np.full(n, 2.0)
        weights[1::2] = 4.0
        weights[0] = weights[-1] = 1.0
        coef = du / 3.0 * weights * (0.5 * self.spline(self.omega - u)) / math.pi
        mid = n // 2
        u_off, c_off = np.delete(u, mid), np.delete(coef, mid)
        return 0.5 * u_off, c_off * (4.0 / (u_off * u_off)), coef[mid]

    def probability(self, T):
        n = self.grid_size(T)
        plan = self.plans.get(n)
        if plan is None:
            plan = self.plans[n] = self._plan(n)
            if len(self.plans) > _MAX_PLANS:
                del self.plans[next(iter(self.plans))]
        half_u, coef, centre = plan
        s = np.sin(T * half_u)
        return float(np.dot(coef, s * s) + centre * T * T)


@lru_cache(maxsize=32)
def _rate_spline(model, frame, det, quad):
    """Cubic spline of the rate as a function of the detector gap over the
    window [0.2 omega, 1.8 omega] used by the finite-time kernel, with its
    convolution plans (see _RateSpline)."""
    omega = det.omega
    grid = np.linspace(0.2 * omega, 1.8 * omega, 65)
    values = [rate_surface(replace(det, omega=float(w)), frame, model, quad).gamma
              for w in grid]
    return _RateSpline(omega, _cubic_spline(grid, np.asarray(values)))


def finite_time_probability(det: DetectorSpec, frame: MotionFrame,
                            model: SusceptibilityModel, quad: QuadratureSpec,
                            T: float) -> float:
    """Excitation probability after a finite interaction time T.

    The golden-rule delta is broadened to W_T(x) = 4 sin^2(x T / 2) / x^2 and
    convolved with the rate function over a window of width 0.8 omega around
    the detector gap; P(T)/T approaches the stationary rate as T grows. The
    first call for a (model, frame, det, quad) builds the rate spline; later
    calls, for any T, reuse it.
    """
    if not T > 0.0:
        raise ValueError("T must be > 0")
    if check_rate_inputs(det, frame, model, quad, finite_time=True):
        return 0.0
    return _rate_spline(model, frame, det, quad).probability(T)
