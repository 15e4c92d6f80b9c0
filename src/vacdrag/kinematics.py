"""Kinematics of a medium in uniform motion along x.

The lab-frame description of the moving half-space trades the isotropic
rest-frame response for anisotropic, magnetoelectric tensors. Everything here
is closed-form: the Lorentz factor, the Doppler pair
omega_mp = gamma (omega -+ beta kx), the four coupling tensors built from the
scalar amplitudes, and the pole-decomposed susceptibility tensors where the
scalar response enters only through its value at the shifted frequency.
MotionFrame and lorentz_gamma are defined in specs and re-exported here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .medium import SusceptibilityModel, chi, coupling_amplitude
from .specs import MotionFrame, lorentz_gamma
from .tensors import ComplexTensor3

__all__ = [
    "CouplingTensors",
    "MotionFrame",
    "coupling_tensors",
    "doppler",
    "lorentz_gamma",
    "moving_susceptibility_tensors",
]

# antisymmetric generator of cross products with x-hat
_XCROSS = np.array([[0.0, 0.0, 0.0],
                    [0.0, 0.0, -1.0],
                    [0.0, 1.0, 0.0]])


@dataclass(frozen=True)
class CouplingTensors:
    ee: ComplexTensor3
    bb: ComplexTensor3
    eb: ComplexTensor3
    be: ComplexTensor3


def doppler(frame: MotionFrame, omega: float, kx: float):
    """Doppler pair (omega_minus, omega_plus) = gamma (omega -+ beta kx);
    kx may be an ndarray."""
    omega = float(omega)
    kx = np.asarray(kx, dtype=float) if isinstance(kx, np.ndarray) else float(kx)
    if not (math.isfinite(omega) and np.isfinite(kx).all()):
        raise ValueError("omega and kx must be finite")
    shift = frame.beta * kx
    return frame.gamma * (omega - shift), frame.gamma * (omega + shift)


def coupling_tensors(model: SusceptibilityModel, frame: MotionFrame,
                     omega_rest: float) -> CouplingTensors:
    """Lab-frame oscillator coupling tensors at a rest-frame frequency.

    The electric and magnetic scalar amplitudes a, b are stretched by
    Lambda = diag(1, gamma, gamma) and mixed through the velocity cross
    tensor: ee = Lambda a, bb = Lambda b, eb = gamma b [v]x, be = -gamma a [v]x.
    """
    a = coupling_amplitude(model, "electric", omega_rest)
    b = coupling_amplitude(model, "magnetic", omega_rest)
    g = frame.gamma
    lam = np.diag([1.0, g, g])
    vx = frame.beta * _XCROSS
    return CouplingTensors(
        ee=ComplexTensor3(lam * a),
        bb=ComplexTensor3(lam * b),
        eb=ComplexTensor3(g * b * vx),
        be=ComplexTensor3(-g * a * vx),
    )


def moving_susceptibility_tensors(model: SusceptibilityModel, frame: MotionFrame,
                                  omega_lab: float, kx: float):
    """Susceptibility tensors (chi_ee, chi_bb, chi_eb, chi_be) of the moving
    medium for a lab-frame mode (omega_lab, kx).

    Closed pole-decomposed form: the scalar rest-frame responses are evaluated
    at the Doppler frequency omega_minus and arranged with the same Lambda and
    velocity-cross structure as the coupling tensors.
    """
    om_minus, _ = doppler(frame, omega_lab, kx)
    ce = chi(model, "electric", om_minus)
    cb = chi(model, "magnetic", om_minus)
    g2 = frame.gamma ** 2
    b2 = frame.beta ** 2
    lam2 = np.diag([1.0, g2, g2])
    yz = np.diag([0.0, 1.0, 1.0])
    vx = frame.beta * _XCROSS
    chi_ee = lam2 * ce + g2 * b2 * yz * cb
    chi_bb = lam2 * cb + g2 * b2 * yz * ce
    chi_eb = g2 * (ce + cb) * vx
    return (ComplexTensor3(chi_ee), ComplexTensor3(chi_bb),
            ComplexTensor3(chi_eb), ComplexTensor3(-chi_eb))
