"""The mutation table: each row is a deliberate physics fault and a check of
the suite that must catch it.

A row first runs its oracle (a test of this suite) on the real code, where it
must pass, then applies the mutant with monkeypatch to every binding of its
target in the loaded modules, and runs the oracle again, where it must fail.
Every binding means what an edit of the source would reach: `rates` imports
`_fresnel_amplitudes` by name from `greens`, `greens` imports `doppler` and
`moving_susceptibility_tensors` from `kinematics`, and test modules import
what they check. A row whose oracle passes under its mutant is a fault the
suite cannot see, and fails here.
"""

import importlib
import sys

import numpy as np
import pytest

import test_greens
import test_kinematics
import test_medium
import test_rates
from vacdrag.tensors import ComplexTensor3


def rs_without_mu(original):
    """The s channel loses mu: r_s = (xi - xi_m) / (xi + xi_m)."""
    def mutant(eps, mu, xi, xim):
        _, rp = original(eps, mu, xi, xim)
        return (xi - xim) / (xi + xim), rp
    return mutant


def doppler_swapped(original):
    """The Doppler pair comes back as (omega_plus, omega_minus)."""
    def mutant(frame, omega, kx):
        minus, plus = original(frame, omega, kx)
        return plus, minus
    return mutant


def chi_eb_sign_flipped(original):
    """chi_eb (and with it chi_be = -chi_eb) changes sign."""
    def mutant(model, frame, omega_lab, kx):
        ee, bb, eb, be = original(model, frame, omega_lab, kx)
        return (ee, bb, ComplexTensor3(-np.asarray(eb)),
                ComplexTensor3(-np.asarray(be)))
    return mutant


def damping_sign_flipped(original):
    """-i gamma w becomes +i gamma w in the vectorized chi: on the real axis
    that is the complex conjugate, an absorber turned into a gain medium."""
    def mutant(terms, w):
        return np.conj(original(terms, w))
    return mutant


# (module, name, mutant, modules that bind the target, oracle)
MUTATIONS = [
    ("greens", "_fresnel_amplitudes", rs_without_mu, {"greens", "rates"},
     test_greens.test_fresnel_rest_frame_with_magnetic_response_matches_textbook_grid),
    ("greens", "_fresnel_amplitudes", rs_without_mu, {"greens", "rates"},
     test_rates.test_surface_rate_with_magnetic_response_matches_dense_grid_oracle),
    ("kinematics", "doppler", doppler_swapped, {"kinematics", "greens"},
     test_greens.test_fresnel_doppler_argument_bookkeeping),
    ("kinematics", "doppler", doppler_swapped, {"kinematics", "greens"},
     test_kinematics.test_moving_chi_matches_raw_integral_route),
    ("kinematics", "moving_susceptibility_tensors", chi_eb_sign_flipped,
     {"kinematics", "greens"},
     test_kinematics.test_moving_chi_matches_raw_integral_route),
    ("medium", "_chi_terms_array", damping_sign_flipped, {"medium"},
     test_medium.test_kk_below_resonance),
    ("medium", "_chi_terms_array", damping_sign_flipped, {"medium"},
     test_rates.test_surface_rate_matches_dense_grid_oracle),
]


def patch_every_binding(monkeypatch, module, name, make):
    """Bind make(original) wherever a loaded module binds
    vacdrag.<module>.<name>, as an edit of the source would (the test
    modules that import it by name included); the short names of the
    vacdrag modules patched."""
    importlib.import_module("vacdrag.rates")       # load every numeric module
    original = getattr(importlib.import_module(f"vacdrag.{module}"), name)
    mutant = make(original)
    patched = set()
    for mod_name, mod in list(sys.modules.items()):
        for attr, value in list(getattr(mod, "__dict__", {}).items()):
            if value is original:
                monkeypatch.setattr(mod, attr, mutant)
                if mod_name.startswith("vacdrag."):
                    patched.add(mod_name.removeprefix("vacdrag."))
    return patched


@pytest.mark.parametrize(
    "module, name, make, bindings, oracle", MUTATIONS,
    ids=[f"{make.__name__}-{oracle.__name__.removeprefix('test_')}"
         for _, _, make, _, oracle in MUTATIONS])
def test_oracle_catches_mutant(monkeypatch, module, name, make, bindings, oracle):
    oracle()
    assert patch_every_binding(monkeypatch, module, name, make) == bindings
    with pytest.raises(AssertionError):
        oracle()
