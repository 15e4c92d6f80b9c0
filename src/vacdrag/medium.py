"""Causal rest-frame response models.

A medium is a sum of Lorentz oscillators for the electric (polarization) and
magnetic (magnetization) channels. The closed form

    chi(omega) = sum_j s_j / (w0_j^2 - omega^2 - i g_j omega)

is analytic in the upper half plane and obeys chi(-omega) = conj(chi(omega))
on the real axis, so the Kramers-Kronig reconstruction and the two-pole
frequency-integral identity verified here have exact closed-form references.
Setting a term's resonance to zero gives the free-carrier (Drude) limit.
The model dataclasses and their loaders are defined in specs and
re-exported here.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .quadrature import integrate_semi_infinite, principal_value
from .specs import (LorentzOscillator, NonConvergenceError, QuadratureSpec,
                    SusceptibilityModel, check_kk_frequency, check_pole_pair,
                    load_model, model_from_dict, model_to_dict)

__all__ = [
    "IdentityReport",
    "LorentzOscillator",
    "SusceptibilityModel",
    "chi",
    "coupling_amplitude",
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


def _chi_terms_array(terms, w):
    """Vectorized susceptibility over a real ndarray of frequencies."""
    total = np.zeros(np.shape(w), dtype=complex)
    for t in terms:
        total += t.plasma_strength / (t.resonance ** 2 - w * w - 1j * t.damping * w)
    return total


def chi(model: SusceptibilityModel, kind: str, omega):
    """Susceptibility at a real or upper-half-plane frequency.

    Scalars go through exact complex arithmetic so that the reality condition
    chi(-w) == conj(chi(w)) holds bit-for-bit; ndarrays are evaluated
    vectorized for the integral kernels.
    """
    terms = _terms(model, kind)
    if isinstance(omega, np.ndarray):
        if np.any(np.imag(omega) < 0.0):
            raise ValueError("frequency must lie on the real axis or above")
        if any(t.resonance == 0.0 for t in terms) and np.any(omega == 0.0):
            raise ValueError("free-carrier term is singular at zero frequency")
        return _chi_terms_array(terms, omega)
    om = complex(omega)
    if not (math.isfinite(om.real) and math.isfinite(om.imag)):
        raise ValueError("frequency must be finite")
    if om.imag < 0.0:
        raise ValueError("frequency must lie on the real axis or above")
    total = 0j
    for t in terms:
        if t.resonance == 0.0 and om == 0:
            raise ValueError("free-carrier term is singular at zero frequency")
        total += t.plasma_strength / (t.resonance ** 2 - om * om - 1j * t.damping * om)
    return total


def coupling_amplitude(model: SusceptibilityModel, kind: str, omega: float) -> float:
    """Oscillator-bath coupling sqrt(2 w Im chi / pi) at a real frequency >= 0."""
    _terms(model, kind)
    omega = float(omega)
    if omega < 0.0:
        raise ValueError("coupling amplitude is defined for omega >= 0")
    if omega == 0.0:
        return 0.0
    im = chi(model, kind, omega).imag
    return math.sqrt(2.0 * omega * im / math.pi)


def _frequency_scale(terms) -> float:
    scale = max((t.resonance + t.damping for t in terms), default=1.0)
    return max(scale, 1.0)


def kk_reconstruct(model: SusceptibilityModel, kind: str, omega: float,
                   quad: QuadratureSpec) -> complex:
    """Rebuild chi(omega) from its absorptive part alone.

    The real part comes from the dispersion integral
    (2/pi) PV int_0^inf w' Im chi(w') / (w'^2 - omega^2) dw', evaluated as a
    principal value on a finite window plus a mapped tail; the imaginary part
    is taken from the model.
    """
    terms = _terms(model, kind)
    omega = float(omega)
    check_kk_frequency(omega)

    def g(w):
        im = _chi_terms_array(terms, w).imag
        return (2.0 / math.pi) * w * im / (w * w - omega * omega)

    cut = max(4.0 * _frequency_scale(terms), 2.0 * omega)
    pv = principal_value(g, omega, 0.0, cut, quad)
    tail = integrate_semi_infinite(g, cut, quad)
    err = pv.error_estimate + tail.error_estimate
    if not (pv.converged and tail.converged):
        raise NonConvergenceError(
            f"dispersion integral did not converge at omega = {omega:g}",
            residual=err)
    return complex(pv.value + tail.value, chi(model, kind, omega).imag)


def verify_identity_1(model: SusceptibilityModel, omega_minus: float,
                      omega_plus_prime: float, quad: QuadratureSpec,
                      numerator_shift: float = 0.0):
    """Check the two-pole frequency-integral identity for the electric channel.

    LHS: regulated integral of (2/pi) w (w^2 - a) Im chi(w) over the positive
    axis with pole pairs at omega_minus and omega_plus_prime, reduced to
    explicit residue terms plus a principal-value remainder. RHS: the closed
    form [(om^2 - a) chi(om) - (op^2 - a) chi(op)] / (om^2 - op^2). Returns
    IdentityReport(lhs, rhs, residual); the identity holds for any real
    shift a.
    """
    om = float(omega_minus)
    op = float(omega_plus_prime)
    a = float(numerator_shift)
    check_pole_pair(om, op)
    dm2 = om * om - op * op
    terms = model.electric_terms

    chi_om = chi(model, "electric", om)
    chi_op = chi(model, "electric", op)
    rhs = ((om * om - a) * chi_om - (op * op - a) * chi_op) / dm2
    residue = 1j * ((om * om - a) * chi_om.imag - (op * op - a) * chi_op.imag) / dm2

    if not terms:
        return IdentityReport(0j, 0j, 0.0)

    def h(w):
        im = _chi_terms_array(terms, w).imag
        return (2.0 / math.pi) * w * (w * w - a) * im / \
            ((w * w - om * om) * (w * w - op * op))

    p_lo, p_hi = sorted((abs(om), op))
    mid = 0.5 * (p_lo + p_hi)
    cut = max(4.0 * _frequency_scale(terms), 2.0 * p_hi)
    pieces = [
        principal_value(h, p_lo, 0.0, mid, quad),
        principal_value(h, p_hi, mid, cut, quad),
        integrate_semi_infinite(h, cut, quad),
    ]
    if not all(p.converged for p in pieces):
        raise NonConvergenceError(
            "two-pole integral did not converge",
            residual=sum(p.error_estimate for p in pieces))
    lhs = residue + sum(p.value for p in pieces)
    return IdentityReport(lhs, rhs, abs(lhs - rhs))
