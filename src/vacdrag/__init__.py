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
    ("kinematics", ("doppler", "moving_susceptibility_tensors")),
    ("medium", ("IdentityReport", "chi", "kk_reconstruct", "verify_identity_1")),
    ("quadrature", ("IntegralResult", "integrate_adaptive")),
    ("tensors", ("ComplexTensor3",)),
    ("greens", ("DissipationReport", "ReciprocityReport",
                "ReflectionCoefficients", "SurfaceGeometry",
                "green_dissipation_identity", "im_free_green_coincident",
                "reciprocity_check", "reflection_coefficients",
                "surface_green_coincident")),
    ("rates", ("RateResult", "finite_time_probability", "rate_free_space",
               "rate_surface")),
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


__all__ = sorted({"__version__", *_LAZY} | {
    name for name, value in globals().items()
    if getattr(value, "__module__", None) == f"{__name__}.specs"})
