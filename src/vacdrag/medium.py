"""Causal rest-frame response models.

A medium is a sum of Lorentz oscillators for the electric (polarization) and
magnetic (magnetization) channels. The closed form

    chi(omega) = sum_j s_j / (w0_j^2 - omega^2 - i g_j omega)

is analytic in the upper half plane and obeys chi(-omega) = conj(chi(omega))
on the real axis, so the Kramers-Kronig reconstruction and the two-pole
frequency-integral identity verified here have exact closed-form references.
Setting a term's resonance to zero gives the free-carrier (Drude) limit.
The sum is written once, as lorentz_chi, which chi and the one dispersion
integral (_dispersion, one pole or two) call. _dispersion lays out its own
pieces, a fold about each pole, the plain sides, the head and the 1/u tail,
and runs them as one batch of quadrature.integrate_adaptive. The model
dataclasses and their loaders are defined in specs and re-exported here.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

import numpy as np

from .quadrature import _tail_start, integrate_adaptive
from .specs import (LorentzOscillator, NonConvergenceError, QuadratureSpec,
                    SusceptibilityModel, band_edge, check_identity,
                    check_kk_frequency, load_model, model_from_dict,
                    model_to_dict, pole_windows)

__all__ = [
    "IdentityReport",
    "LorentzOscillator",
    "SusceptibilityModel",
    "chi",
    "kk_reconstruct",
    "load_model",
    "model_from_dict",
    "model_to_dict",
    "verify_identity_1",
]

_KINDS = ("electric", "magnetic")


class IdentityReport(NamedTuple):
    """Two-pole identity check; unpacks as (lhs, rhs, residual)."""

    lhs: complex
    rhs: complex
    residual: float


def _terms(model: SusceptibilityModel, kind: str):
    if kind not in _KINDS:
        raise ValueError(f"kind must be one of {_KINDS}, got {kind!r}")
    return model.electric_terms if kind == "electric" else model.magnetic_terms


def lorentz_chi(terms, omega):
    """The sum of the Lorentz terms at omega, a number (in Python complex
    arithmetic) or an ndarray (elementwise; +0 zeros shaped like it for no
    terms). Unchecked: callers reject a free-carrier term at omega = 0."""
    total = 0j
    for t in terms:
        total += t.plasma_strength / (t.resonance ** 2 - omega * omega
                                      - 1j * t.damping * omega)
    return total if terms else 0.0 * omega + 0j


def chi(model: SusceptibilityModel, kind: str, omega):
    """Susceptibility at a real or upper-half-plane frequency, a number (in
    Python complex arithmetic, so chi(-w) == conj(chi(w)) bit-for-bit) or an
    ndarray (elementwise): one sequence of checks, then lorentz_chi."""
    terms = _terms(model, kind)
    if np.isscalar(omega):
        omega = complex(omega)
        if not cmath.isfinite(omega):
            raise ValueError("frequency must be finite")
    if np.count_nonzero(omega.imag < 0.0):
        raise ValueError("frequency must lie on the real axis or above")
    if any(t.resonance == 0.0 for t in terms) and np.count_nonzero(omega == 0.0):
        raise ValueError("free-carrier term is singular at zero frequency")
    return lorentz_chi(terms, omega)


# The kinds of dispersion piece: w itself, a window folded about its pole,
# w = 1/u on the tail.
_PLAIN, _FOLD, _TAIL = range(3)


def _dispersion(terms, poles, quad: QuadratureSpec, cube: bool = False) -> float:
    """(2/pi) PV int_0^inf w (w^2 if cube) Im chi(w) / prod_p (w^2 - p^2) dw.

    On each window of specs.pole_windows, [pole - d, pole + d] (d half the
    pole's distance to the nearer end) folds onto t in [0, d] as h(pole + t)
    + h(pole - t), where the odd part cancels, beside the plain sides; past
    the last window come the plain head to quadrature._tail_start's s and
    the tail w = 1/u. A plain piece across specs.band_edge is cut there, so
    that its first panel samples the absorption band below a far pole. All
    pieces are one lockstep batch, summed in order per window, then the
    windows (head and tail last) from 0."""
    windows = pole_windows(terms, poles)
    edge = band_edge(terms)
    failed = "dispersion integral did not converge at omega = " + ", ".join(
        f"{p:g}" for p, _, _ in windows)

    def h(w):
        im = lorentz_chi(terms, w).imag
        return (2.0 / math.pi) * w * (w * w if cube else 1.0) * im / \
            math.prod(w * w - p * p for p, _, _ in windows)

    pieces = []     # (window, kind, lo, hi, pole); the head and tail are last

    def plain(window, lo, hi):
        ends = (lo, edge, hi) if lo < edge < hi else (lo, hi)
        pieces.extend((window, _PLAIN, a, b, 0.0) for a, b in zip(ends, ends[1:]))

    for window, (pole, a, b) in enumerate(windows):
        d = 0.5 * min(pole - a, b - pole)
        pieces.append((window, _FOLD, 0.0, d, pole))
        for lo, hi in ((a, pole - d), (pole + d, b)):
            if lo < hi:
                plain(window, lo, hi)
    s, integrable = _tail_start(h, windows[-1][2])
    if not integrable:
        raise NonConvergenceError(f"{failed}: its tail grows beyond {s:g}", math.inf)
    plain(len(windows), windows[-1][2], s)
    pieces.append((len(windows), _TAIL, 0.0, 1.0 / s, 0.0))
    owner, kind, lo, hi, at = (np.array(column) for column in zip(*pieces))

    def g(arg):
        x, member = arg
        k = kind[member]
        if not k.any():     # plain pieces only: green-checks +5-7% without
            return h(x)
        pole, fold, tail = at[member], k == _FOLD, k == _TAIL
        # h at w, pole + t or 1/u, then at pole - t for each folded abscissa
        y = h(np.concatenate((np.where(tail, 1.0 / x, np.where(fold, pole + x, x)),
                              pole[fold] - x[fold])))
        out = y[:x.size]
        out[fold] += y[x.size:]
        out[tail] /= x[tail] ** 2       # |du/dw| on the tail
        return out

    res = integrate_adaptive(g, lo, hi, quad, batch=lo.size, halved=True)

    def total(r):
        return sum(float(np.add.accumulate(r[owner == w])[-1])
                   for w in range(len(windows) + 1))

    if not res.converged.all():
        raise NonConvergenceError(failed, residual=total(res.error_estimate))
    return total(res.value)


def kk_reconstruct(model: SusceptibilityModel, kind: str, omega: float,
                   quad: QuadratureSpec) -> complex:
    """Rebuild chi(omega) from its absorptive part alone.

    The real part comes from the dispersion integral
    (2/pi) PV int_0^inf w' Im chi(w') / (w'^2 - omega^2) dw' (_dispersion,
    one pole); the imaginary part is taken from the model.
    """
    terms = _terms(model, kind)
    omega = float(omega)
    check_kk_frequency(terms, omega)
    return complex(_dispersion(terms, (omega,), quad),
                   chi(model, kind, omega).imag)


def verify_identity_1(model: SusceptibilityModel, omega_minus: float,
                      omega_plus_prime: float, quad: QuadratureSpec,
                      numerator_shift: float = 0.0):
    """Check the two-pole frequency-integral identity for the electric channel.

    LHS: regulated integral of (2/pi) w (w^2 - a) Im chi(w) over the positive
    axis with pole pairs at omega_minus and omega_plus_prime, reduced to
    explicit residue terms plus a principal-value remainder (_dispersion,
    two poles). RHS: the closed form [(om^2 - a) chi(om) - (op^2 - a)
    chi(op)] / (om^2 - op^2). Returns IdentityReport(lhs, rhs, residual);
    the identity holds for any real shift a. The shift enters the LHS after
    integration, as -a times the integral of w Im chi, so no shift that
    specs.check_identity admits overflows an integrand value.
    """
    om = float(omega_minus)
    op = float(omega_plus_prime)
    a = float(numerator_shift)
    check_identity(model, om, op, a)
    dm2 = om * om - op * op
    chi_om = chi(model, "electric", om)
    chi_op = chi(model, "electric", op)
    rhs = ((om * om - a) * chi_om - (op * op - a) * chi_op) / dm2
    residue = 1j * ((om * om - a) * chi_om.imag - (op * op - a) * chi_op.imag) / dm2
    lhs = residue + _dispersion(model.electric_terms, (om, op), quad, cube=True)
    if a:
        lhs -= a * _dispersion(model.electric_terms, (om, op), quad)
    return IdentityReport(lhs, rhs, abs(lhs - rhs))
