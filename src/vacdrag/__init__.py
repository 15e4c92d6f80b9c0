"""Vacuum excitation of a stationary detector near a moving dissipative
half-space: susceptibility models, moving-medium response tensors, dyadic
Green functions, excitation rates, and a scenario-driven CLI.

Natural units throughout: c = hbar = eps0 = mu0 = 1.
"""

__version__ = "0.1.0"

import importlib

from .specs import (DetectorSpec, LorentzOscillator, MotionFrame,
                    NonConvergenceError, QuadratureSpec, SusceptibilityModel,
                    load_model, lorentz_gamma, model_from_dict, model_to_dict)

# Everything else is imported on first access (PEP 562), so that importing
# the package, or validating a scenario, loads no numpy.
_SUBMODULES = ("cli", "greens", "kinematics", "medium", "quadrature", "rates",
               "tensors")
_LAZY = {name: module for module, names in (
    ("kinematics", ("CouplingTensors", "coupling_tensors", "doppler",
                    "moving_susceptibility_tensors")),
    ("medium", ("IdentityReport", "chi", "coupling_amplitude", "kk_reconstruct",
                "verify_identity_1")),
    ("quadrature", ("IntegralResult", "integrate_adaptive",
                    "integrate_semi_infinite", "principal_value")),
    ("tensors", ("ComplexTensor3",)),
    ("greens", ("DissipationReport", "ReciprocityReport",
                "ReflectionCoefficients", "SurfaceGeometry", "free_green_k",
                "green_dissipation_identity", "im_free_green_coincident",
                "reciprocity_check", "reflection_coefficients",
                "surface_green_coincident")),
    ("rates", ("RateResult", "finite_time_probability", "rate_free_space",
               "rate_surface", "rate_vs_distance")),
) for name in names}


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value     # later lookups skip this function
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY) | set(_SUBMODULES))


__all__ = [
    "ComplexTensor3",
    "CouplingTensors",
    "DetectorSpec",
    "DissipationReport",
    "IdentityReport",
    "IntegralResult",
    "LorentzOscillator",
    "MotionFrame",
    "NonConvergenceError",
    "QuadratureSpec",
    "RateResult",
    "ReciprocityReport",
    "ReflectionCoefficients",
    "SurfaceGeometry",
    "SusceptibilityModel",
    "__version__",
    "chi",
    "coupling_amplitude",
    "coupling_tensors",
    "doppler",
    "finite_time_probability",
    "free_green_k",
    "green_dissipation_identity",
    "im_free_green_coincident",
    "integrate_adaptive",
    "integrate_semi_infinite",
    "kk_reconstruct",
    "load_model",
    "lorentz_gamma",
    "model_from_dict",
    "model_to_dict",
    "moving_susceptibility_tensors",
    "principal_value",
    "rate_free_space",
    "rate_surface",
    "rate_vs_distance",
    "reciprocity_check",
    "reflection_coefficients",
    "surface_green_coincident",
    "verify_identity_1",
]
