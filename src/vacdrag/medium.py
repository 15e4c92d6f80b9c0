"""Causal rest-frame response models.

A medium is a sum of Lorentz oscillators for the electric (polarization) and
magnetic (magnetization) channels. The closed form

    chi(omega) = sum_j s_j / (w0_j^2 - omega^2 - i g_j omega)

is analytic in the upper half plane and obeys chi(-omega) = conj(chi(omega))
on the real axis, so the Kramers-Kronig reconstruction and the two-pole
frequency-integral identity verified here have exact closed-form references.
Setting a term's resonance to zero gives the free-carrier (Drude) limit.
The sum is written once, as lorentz_chi, which chi and the one dispersion
integral (_dispersion, one pole or two) call. The model dataclasses and
their loaders are defined in specs and re-exported here.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

import numpy as np

from .quadrature import (_PLAIN, _integrate_pieces, _pv_pieces,
                         _semi_infinite_pieces)
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


def _dispersion(terms, poles, quad: QuadratureSpec, cube: bool = False) -> float:
    """(2/pi) PV int_0^inf w (w^2 if cube) Im chi(w) / prod_p (w^2 - p^2) dw:
    a principal value on each window of specs.pole_windows and the 1/u tail
    from their cut, all their pieces one lockstep batch, with each plain
    piece across specs.band_edge cut in two there, so that its first panel
    samples the absorption band below a far pole."""
    windows = pole_windows(terms, poles)
    edge = band_edge(terms)

    def h(w):
        im = lorentz_chi(terms, w).imag
        return (2.0 / math.pi) * w * (w * w if cube else 1.0) * im / \
            math.prod(w * w - p * p for p, _, _ in windows)

    def cut(pieces, spent):
        return [half for kind, lo, hi, pole in pieces
                for half in ([(kind, lo, edge, pole), (kind, edge, hi, pole)]
                             if kind == _PLAIN and lo < edge < hi
                             else [(kind, lo, hi, pole)])], spent

    groups = [_pv_pieces(*window) for window in windows]
    groups.append(_semi_infinite_pieces(h, windows[-1][2]))
    parts = _integrate_pieces(h, [cut(*group) for group in groups], quad)
    if not all(p.converged for p in parts):
        raise NonConvergenceError(
            "dispersion integral did not converge at omega = "
            + ", ".join(f"{p:g}" for p, _, _ in windows),
            residual=sum(p.error_estimate for p in parts))
    return sum(p.value for p in parts)


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
