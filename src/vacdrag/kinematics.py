"""Kinematics of a medium in uniform motion along x.

The lab-frame description of the moving half-space trades the isotropic
rest-frame response for anisotropic, magnetoelectric tensors. Everything here
is closed-form: the Lorentz factor, the Doppler frequency
omega_minus = gamma (omega - beta kx), and the pole-decomposed
susceptibility tensors where the scalar response enters only through its
value at that shifted frequency.
MotionFrame and lorentz_gamma are defined in specs and re-exported here.
"""

from __future__ import annotations

import math

import numpy as np

from .medium import SusceptibilityModel, chi
from .specs import MotionFrame, lorentz_gamma
from .tensors import ComplexTensor3

__all__ = [
    "MotionFrame",
    "doppler",
    "lorentz_gamma",
    "moving_susceptibility_tensors",
]

# antisymmetric generator of cross products with x-hat
_XCROSS = np.array([[0.0, 0.0, 0.0],
                    [0.0, 0.0, -1.0],
                    [0.0, 1.0, 0.0]])


def doppler(frame: MotionFrame, omega: float, kx: float):
    """Doppler frequency omega_minus = gamma (omega - beta kx), the comoving
    frequency of the lab mode (omega, kx); kx may be an ndarray."""
    omega = float(omega)
    if isinstance(kx, np.ndarray):
        kx = np.asarray(kx, dtype=float)
        finite = np.isfinite(kx).all()
    else:
        kx = float(kx)
        finite = math.isfinite(kx)
    if not (math.isfinite(omega) and finite):
        raise ValueError("omega and kx must be finite")
    return frame.gamma * (omega - frame.beta * kx)


def moving_susceptibility_tensors(model: SusceptibilityModel, frame: MotionFrame,
                                  omega_lab: float, kx: float):
    """Susceptibility tensors (chi_ee, chi_bb, chi_eb, chi_be) of the moving
    medium for a lab-frame mode (omega_lab, kx).

    Closed pole-decomposed form: the scalar rest-frame responses are evaluated
    at the Doppler frequency omega_minus and arranged with the squared
    stretch Lambda^2 = diag(1, gamma^2, gamma^2) and the velocity cross
    tensor [v]x: chi_ee = Lambda^2 chi_e + gamma^2 beta^2 P_yz chi_b, its
    e <-> b mirror for chi_bb, and chi_eb = -chi_be = gamma^2 (chi_e + chi_b) [v]x.
    """
    om_minus = doppler(frame, omega_lab, kx)
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
