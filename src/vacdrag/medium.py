"""Causal rest-frame response models.

A medium is a sum of Lorentz oscillators for the electric (polarization) and
magnetic (magnetization) channels. The closed form

    chi(omega) = sum_j s_j / (w0_j^2 - omega^2 - i g_j omega)

is analytic in the upper half plane and obeys chi(-omega) = conj(chi(omega))
on the real axis, so the Kramers-Kronig reconstruction and the two-pole
frequency-integral identity verified here have exact closed-form references.
Setting a term's resonance to zero gives the free-carrier (Drude) limit.
The sum is written once, as specs.lorentz_chi, which chi and the dispersion
integrands call. The model dataclasses and their loaders are defined in
specs and re-exported here.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

import numpy as np

from .quadrature import _integrate_pieces, _pv_pieces, _semi_infinite_pieces
from .specs import (LorentzOscillator, NonConvergenceError, QuadratureSpec,
                    SusceptibilityModel, check_identity, check_kk_frequency,
                    frequency_scale, load_model, lorentz_chi, model_from_dict,
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


def chi(model: SusceptibilityModel, kind: str, omega):
    """Susceptibility at a real or upper-half-plane frequency, a number (in
    Python complex arithmetic, so chi(-w) == conj(chi(w)) bit-for-bit) or an
    ndarray (elementwise): one sequence of checks, then specs.lorentz_chi."""
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


def kk_reconstruct(model: SusceptibilityModel, kind: str, omega: float,
                   quad: QuadratureSpec) -> complex:
    """Rebuild chi(omega) from its absorptive part alone.

    The real part comes from the dispersion integral
    (2/pi) PV int_0^inf w' Im chi(w') / (w'^2 - omega^2) dw', evaluated as a
    principal value on a finite window plus a mapped tail, all their pieces
    one lockstep batch; the imaginary part is taken from the model.
    """
    terms = _terms(model, kind)
    omega = float(omega)
    check_kk_frequency(omega)

    def g(w):
        im = lorentz_chi(terms, w).imag
        return (2.0 / math.pi) * w * im / (w * w - omega * omega)

    cut = max(4.0 * frequency_scale(terms), 2.0 * omega)
    pv, tail = _integrate_pieces(g, [_pv_pieces(omega, 0.0, cut),
                                     _semi_infinite_pieces(g, cut)], quad)
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
    shift a. The shift enters the LHS after integration, as -a times the
    integral of w Im chi, so no shift that specs.check_identity admits
    overflows an integrand value.
    """
    om = float(omega_minus)
    op = float(omega_plus_prime)
    a = float(numerator_shift)
    check_identity(model, om, op, a)
    dm2 = om * om - op * op
    terms = model.electric_terms

    chi_om = chi(model, "electric", om)
    chi_op = chi(model, "electric", op)
    rhs = ((om * om - a) * chi_om - (op * op - a) * chi_op) / dm2
    residue = 1j * ((om * om - a) * chi_om.imag - (op * op - a) * chi_op.imag) / dm2

    if not terms:
        return IdentityReport(0j, 0j, 0.0)

    lower, upper = pole_windows(model, om, op)

    def regulated(cube):
        # of (2/pi) w^3 Im chi / ((w^2 - om^2)(w^2 - op^2)), or w for w^3
        def h(w):
            im = lorentz_chi(terms, w).imag
            return (2.0 / math.pi) * w * (w * w if cube else 1.0) * im / \
                ((w * w - om * om) * (w * w - op * op))

        # both principal values and the tail: one lockstep batch
        pieces = _integrate_pieces(h, [_pv_pieces(*lower), _pv_pieces(*upper),
                                       _semi_infinite_pieces(h, upper[2])],
                                   quad)
        if not all(p.converged for p in pieces):
            raise NonConvergenceError(
                "two-pole integral did not converge",
                residual=sum(p.error_estimate for p in pieces))
        return sum(p.value for p in pieces)

    lhs = residue + regulated(True)
    if a:
        lhs -= a * regulated(False)
    return IdentityReport(lhs, rhs, abs(lhs - rhs))
