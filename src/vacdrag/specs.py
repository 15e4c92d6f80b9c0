"""Input specifications: the dataclasses that describe a computation, their
validators, the model loaders, and the rule that decides whether a surface
rate can be computed.

Nothing here imports numpy, so a scenario can be checked (`vacdrag
validate`) without loading the numerics. The numeric modules import these
names from here, and the old paths (`vacdrag.quadrature.QuadratureSpec`,
`vacdrag.kinematics.MotionFrame`, `vacdrag.medium.load_model`,
`vacdrag.rates.DetectorSpec`, ...) name the same objects.

`check_rate_inputs` is the one predicate that `rates.rate_surface`,
`rates.finite_time_probability` and the scenario validator apply, so
validation rejects exactly the rate inputs that a run rejects.
`check_not_grazing` plays the same part for the reflected-Green integrals
of `greens.surface_green_coincident` and `greens.reciprocity_check`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from importlib import resources

__all__ = [
    "DetectorSpec",
    "LorentzOscillator",
    "MotionFrame",
    "NonConvergenceError",
    "QuadratureSpec",
    "SusceptibilityModel",
    "check_not_grazing",
    "check_rate_inputs",
    "load_model",
    "lorentz_gamma",
    "model_from_dict",
    "model_to_dict",
]


class NonConvergenceError(RuntimeError):
    """Raised when an operation cannot meet its tolerance; carries the
    residual error estimate that was achieved."""

    def __init__(self, message: str, residual: float = math.nan):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerance and domain-control settings shared by all integrals."""

    rel_tol: float = 1e-8
    abs_tol: float = 1e-12
    max_subdivisions: int = 2000
    k_max: float | None = None
    tail_switch: float = 10.0

    def __post_init__(self):
        if not self.rel_tol > 0.0:
            raise ValueError("rel_tol must be > 0")
        if not self.abs_tol > 0.0:
            raise ValueError("abs_tol must be > 0")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")
        if self.k_max is not None and not self.k_max > 0.0:
            raise ValueError("k_max must be > 0 when set")
        if not self.tail_switch > 0.0:
            raise ValueError("tail_switch must be > 0")


def lorentz_gamma(beta: float) -> float:
    beta = float(beta)
    if not abs(beta) < 1.0:
        raise ValueError("|beta| must be < 1")
    return 1.0 / math.sqrt(1.0 - beta * beta)


@dataclass(frozen=True)
class MotionFrame:
    """Uniform motion with velocity beta along the fixed axis x-hat."""

    beta: float
    gamma: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "gamma", lorentz_gamma(self.beta))


@dataclass(frozen=True)
class DetectorSpec:
    """Dipole detector: coupling vector kappa, gap omega, height z0."""

    kappa: tuple
    omega: float
    z0: float | None = None

    def __post_init__(self):
        kappa = tuple(float(c) for c in self.kappa)
        if len(kappa) != 3:
            raise ValueError("kappa must have three components")
        object.__setattr__(self, "kappa", kappa)
        if not self.omega > 0.0:
            raise ValueError("omega must be > 0")
        if not any(c != 0.0 for c in kappa):
            raise ValueError("kappa must be nonzero")
        if self.z0 is not None and not self.z0 > 0.0:
            raise ValueError("z0 must be > 0 when given")


@dataclass(frozen=True)
class LorentzOscillator:
    """One damped-oscillator term: plasma_strength / (resonance^2 - w^2 - i damping w)."""

    plasma_strength: float
    resonance: float
    damping: float

    def __post_init__(self):
        if self.plasma_strength < 0.0:
            raise ValueError("plasma_strength must be >= 0")
        if self.resonance < 0.0:
            raise ValueError("resonance must be >= 0")
        if not self.damping > 0.0:
            raise ValueError("damping must be > 0")


@dataclass(frozen=True)
class SusceptibilityModel:
    electric_terms: tuple = ()
    magnetic_terms: tuple = ()
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "electric_terms", tuple(self.electric_terms))
        object.__setattr__(self, "magnetic_terms", tuple(self.magnetic_terms))


def check_rate_inputs(det: DetectorSpec, frame: MotionFrame,
                      model: SusceptibilityModel, quad: QuadratureSpec,
                      finite_time: bool = False) -> bool:
    """Whether the surface rate is exactly zero for these inputs (with
    finite_time, the finite-time probability); raises ValueError when it
    cannot be computed.

    In order: beta = 0 gives the exact zero before any check; then z0 is
    required, k_max must be set and must exceed omega / |beta|, and for the
    finite-time window 1.8 omega / |beta|. A model with no terms gives the
    exact zero after these checks for the rate, before them for the
    finite-time probability.
    """
    empty = not model.electric_terms and not model.magnetic_terms
    if frame.beta == 0.0 or (finite_time and empty):
        return True
    if det.z0 is None:
        raise ValueError("detector height z0 is required for the surface rate")
    if quad.k_max is None:
        raise ValueError("quad.k_max must be set for the surface rate")
    if quad.k_max <= det.omega / abs(frame.beta):
        raise ValueError("quad.k_max must exceed omega / |beta|")
    if finite_time and quad.k_max <= 1.8 * det.omega / abs(frame.beta):
        raise ValueError("quad.k_max must exceed 1.8 omega / |beta| for the "
                         "finite-time window")
    return empty


def check_not_grazing(kx: float, omega: float) -> None:
    """Raise ValueError for a grazing mode, kx^2 = omega^2 to 1e-12
    relative: there the light circle shrinks to ky = 0 and the reflected
    ky integral is not integrable."""
    if abs(kx * kx - omega * omega) <= 1e-12 * max(kx * kx, omega * omega):
        raise ValueError("grazing mode kx^2 = omega^2 is not integrable")


def check_reflected_mode(kx: float, ky: float, omega: float) -> None:
    """Raise ValueError for a lab-frame mode whose reflection amplitudes are
    undefined: normal incidence, which has no transverse basis, or a mode on
    the light cone, kx^2 + ky^2 = omega^2 to 1e-12 relative (xi = 0)."""
    kpar2 = kx * kx + ky * ky
    if kpar2 == 0.0:
        raise ValueError("normal incidence has no transverse basis")
    if abs(kpar2 - omega * omega) <= 1e-12 * max(kpar2, omega * omega):
        raise ValueError("mode lies on the light cone (xi = 0)")


def check_kk_frequency(omega: float) -> None:
    """Raise ValueError unless the Kramers-Kronig reconstruction frequency
    is > 0: the dispersion integral runs over the positive axis."""
    if not omega > 0.0:
        raise ValueError("reconstruction frequency must be > 0")


def check_pole_pair(omega_minus: float, omega_plus: float) -> None:
    """Raise ValueError for pole frequencies of the two-pole identity that
    are not finite or are degenerate, omega_minus^2 = omega_plus^2 to 1e-9
    relative (the identity divides by their difference)."""
    if not (math.isfinite(omega_minus) and math.isfinite(omega_plus)):
        raise ValueError("pole frequencies must be finite")
    dm2 = omega_minus * omega_minus - omega_plus * omega_plus
    if abs(dm2) <= 1e-9 * max(omega_minus * omega_minus,
                              omega_plus * omega_plus, 1.0):
        raise ValueError("pole frequencies are degenerate")


def check_not_comoving(beta: float, kx: float, omega: float) -> None:
    """Raise ValueError at the comoving resonance omega = V kx, where the
    dissipation identity's prefactor gamma (omega - V kx) vanishes."""
    if omega - beta * kx == 0.0:
        raise ValueError("comoving resonance: omega - V kx must be nonzero")


def model_to_dict(model: SusceptibilityModel) -> dict:
    def pack(terms):
        return [{"plasma_strength": t.plasma_strength, "resonance": t.resonance,
                 "damping": t.damping} for t in terms]
    return {"label": model.label,
            "electric_terms": pack(model.electric_terms),
            "magnetic_terms": pack(model.magnetic_terms)}


def model_from_dict(doc: dict) -> SusceptibilityModel:
    if not isinstance(doc, dict):
        raise ValueError("model document must be a JSON object")
    def unpack(entries):
        return tuple(LorentzOscillator(plasma_strength=float(e["plasma_strength"]),
                                       resonance=float(e["resonance"]),
                                       damping=float(e["damping"]))
                     for e in entries)
    return SusceptibilityModel(
        electric_terms=unpack(doc.get("electric_terms", ())),
        magnetic_terms=unpack(doc.get("magnetic_terms", ())),
        label=str(doc.get("label", "")))


def load_model(source: str) -> SusceptibilityModel:
    """Load a model from a JSON file path or a bundled:NAME reference."""
    source = str(source)
    if source.startswith("bundled:"):
        name = source.split(":", 1)[1]
        text = resources.files("vacdrag").joinpath(f"models/{name}.json").read_text()
    else:
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    return model_from_dict(json.loads(text))
