"""Rest-frame response models and dispersion-relation checks."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
import vacdrag.quadrature
from vacdrag.medium import (
    LorentzOscillator,
    SusceptibilityModel,
    chi,
    kk_reconstruct,
    load_model,
    model_from_dict,
    model_to_dict,
    verify_identity_1,
)
from vacdrag.quadrature import NonConvergenceError, QuadratureSpec
from vacdrag.specs import SCALE, band_edge

LORENTZ = SusceptibilityModel(
    electric_terms=(LorentzOscillator(1.0, 1.0, 0.1),),
    label="single resonance",
)
DRUDE = SusceptibilityModel(
    electric_terms=(LorentzOscillator(2.0, 0.0, 0.05),),
    label="drude",
)
VACUUM = SusceptibilityModel(electric_terms=(), label="vacuum")
MAGNETIC = SusceptibilityModel(
    electric_terms=(LorentzOscillator(1.0, 1.0, 0.1),),
    magnetic_terms=(LorentzOscillator(0.5, 2.0, 0.3),),
    label="magnetoelectric",
)

QUAD = QuadratureSpec()


# ---------------------------------------------------------------------------
# chi
# ---------------------------------------------------------------------------

def test_static_limit():
    assert chi(LORENTZ, "electric", 0.0) == pytest.approx(1.0 + 0.0j, abs=1e-15)


def test_vacuum_is_zero():
    assert chi(VACUUM, "electric", 3.7) == 0.0
    assert chi(VACUUM, "magnetic", 3.7) == 0.0


def test_on_resonance_value():
    # 1/(1 - 1 - 0.1i) = 10i
    val = chi(LORENTZ, "electric", 1.0)
    assert val == pytest.approx(10.0j, rel=1e-14)
    assert val == pytest.approx(reference.chi_mp([(1.0, 1.0, 0.1)], 1.0), rel=1e-14)


def test_magnetic_kind_reads_magnetic_terms():
    val = chi(MAGNETIC, "magnetic", 1.0)
    assert val == pytest.approx(reference.chi_mp([(0.5, 2.0, 0.3)], 1.0), rel=1e-13)


def test_upper_half_plane_accepted_lower_rejected():
    assert np.isfinite(chi(LORENTZ, "electric", 0.5 + 0.2j))
    with pytest.raises(ValueError):
        chi(LORENTZ, "electric", 0.5 - 0.2j)


def test_drude_static_pole_rejected():
    with pytest.raises(ValueError):
        chi(DRUDE, "electric", 0.0)


def test_arrays_take_the_checks_and_the_sum_of_numbers():
    """One Lorentz sum for numbers and ndarrays: an array agrees with its
    entries one by one to rounding and is rejected as a number would be,
    and a model with no terms gives +0 zeros shaped like the input."""
    w = np.array([[-2.0, -0.3, 0.4], [0.9 + 0.2j, 1.0, 3.5]])
    for model in (LORENTZ, DRUDE, MAGNETIC):
        got = chi(model, "electric", w)
        assert got.shape == w.shape
        for value, omega in zip(got.ravel(), w.ravel()):
            assert value == pytest.approx(chi(model, "electric", complex(omega)),
                                          rel=1e-14)
    zeros = chi(VACUUM, "magnetic", w)
    assert zeros.shape == w.shape and not zeros.any()
    assert not (np.signbit(zeros.real).any() or np.signbit(zeros.imag).any())
    with pytest.raises(ValueError, match="real axis or above"):
        chi(LORENTZ, "electric", np.array([0.5, 0.5 - 0.2j]))
    with pytest.raises(ValueError, match="free-carrier"):
        chi(DRUDE, "electric", np.array([0.5, 0.0]))
    with pytest.raises(ValueError, match="must be finite"):
        chi(LORENTZ, "electric", float("nan"))


def test_oscillator_validation():
    with pytest.raises(ValueError):
        LorentzOscillator(1.0, 1.0, 0.0)       # damping must be positive
    with pytest.raises(ValueError):
        LorentzOscillator(-1.0, 1.0, 0.1)


@given(st.floats(min_value=1e-6, max_value=1e6))
@settings(max_examples=60, deadline=None)
def test_reality_condition_exact(omega):
    for model in (LORENTZ, DRUDE, MAGNETIC):
        a = chi(model, "electric", omega)
        b = chi(model, "electric", -omega)
        assert b == a.conjugate()


def test_positive_absorption_on_log_grid():
    for model in (LORENTZ, DRUDE):
        for omega in np.geomspace(1e-3, 1e3, 25):
            assert chi(model, "electric", float(omega)).imag > 0.0


# ---------------------------------------------------------------------------
# kk_reconstruct
# ---------------------------------------------------------------------------

def test_kk_vacuum():
    assert kk_reconstruct(VACUUM, "electric", 1.0, QUAD) == 0.0


def test_kk_below_resonance():
    rec = kk_reconstruct(LORENTZ, "electric", 0.5, QUAD)
    exact = chi(LORENTZ, "electric", 0.5)
    assert rec.real == pytest.approx(exact.real, rel=1e-7)
    assert rec.imag == exact.imag


def test_kk_above_resonance():
    rec = kk_reconstruct(LORENTZ, "electric", 2.0, QUAD)
    exact = chi(LORENTZ, "electric", 2.0)
    assert rec.real == pytest.approx(exact.real, rel=1e-7)


def test_kk_drude_closed_form():
    rec = kk_reconstruct(DRUDE, "electric", 0.7, QUAD)
    assert rec.real == pytest.approx(reference.drude_re_chi(2.0, 0.05, 0.7), rel=1e-7)


def test_kk_log_grid_spot_checks():
    for model in (LORENTZ, DRUDE):
        for omega in np.geomspace(1e-3, 1e3, 7):
            rec = kk_reconstruct(model, "electric", float(omega), QUAD)
            exact = chi(model, "electric", float(omega))
            assert abs(rec - exact) <= 1e-5 * abs(exact)


def test_kk_far_pole_samples_the_absorption_band():
    """At omega = 1e5 the plain piece [0, omega / 2] holds the whole
    absorption band near its left end, where the first Kronrod panel puts no
    node: cut at the band edge, the reconstruction of both bundled models is
    right to abs_tol."""
    for name in ("drude_metal", "lorentz_dielectric"):
        model = load_model(f"bundled:{name}")
        rec = kk_reconstruct(model, "electric", 1e5, QUAD)
        exact = chi(model, "electric", 1e5)
        assert abs(rec - exact) <= 3.0 * QUAD.abs_tol, name


@pytest.mark.parametrize("omega, message", [
    (1e-13, r"pole 1e-13 lies within 1e-12 of an end of its principal-value "
            r"window \[0, 4\]"),
    (1e200, "reconstruction frequency must be finite, of magnitude 0 or within"),
    (math.inf, "reconstruction frequency must be finite, of magnitude 0 or within"),
    (0.0, "reconstruction frequency must be > 0")])
def test_kk_shares_the_identity_pole_rule(omega, message):
    with pytest.raises(ValueError, match=message):
        kk_reconstruct(DRUDE, "electric", omega, QUAD)


def test_kk_runs_at_both_ends_of_its_pole_rule():
    """The smallest frequency the window rule admits and SCALE, the top of
    the range, both reconstruct to tolerance, so a log axis whose ends
    validate runs; the next floats beyond them are rejected."""
    for model in (LORENTZ, DRUDE):
        low = math.nextafter(1e-12 * band_edge(model.electric_terms), math.inf)
        for omega in (low, SCALE):
            rec = kk_reconstruct(model, "electric", omega, QUAD)
            exact = chi(model, "electric", omega)
            assert abs(rec - exact) <= max(1e-7 * abs(exact), QUAD.abs_tol)
        with pytest.raises(ValueError, match="principal-value window"):
            kk_reconstruct(model, "electric", math.nextafter(low, 0.0), QUAD)
        with pytest.raises(ValueError, match="must be finite, of magnitude"):
            kk_reconstruct(model, "electric", math.nextafter(SCALE, math.inf), QUAD)


def test_kk_nonconvergence_reports_residual():
    starved = QuadratureSpec(max_subdivisions=1)
    with pytest.raises(NonConvergenceError) as err:
        kk_reconstruct(LORENTZ, "electric", 0.5, starved)
    assert err.value.residual > 0.0


# ---------------------------------------------------------------------------
# verify_identity_1
# ---------------------------------------------------------------------------

def test_identity_vacuum_both_sides_zero():
    rep = verify_identity_1(VACUUM, 0.7, 1.3, QUAD)
    assert rep.lhs == 0.0
    assert rep.rhs == 0.0
    assert rep.residual == 0.0


def test_identity_generic_pair():
    rep = verify_identity_1(LORENTZ, 0.7, 1.3, QUAD)
    assert rep.residual < 1e-6 * max(abs(rep.lhs), 1.0)


def test_identity_negative_first_frequency():
    rep = verify_identity_1(LORENTZ, -0.6, 1.4, QUAD)
    assert rep.residual < 1e-6 * max(abs(rep.lhs), 1.0)


def test_identity_nonzero_numerator_shift():
    rep = verify_identity_1(LORENTZ, 0.7, 1.3, QUAD, numerator_shift=0.9)
    assert rep.residual < 1e-6 * max(abs(rep.lhs), 1.0)


def test_identity_degenerate_poles_rejected():
    with pytest.raises(ValueError):
        verify_identity_1(LORENTZ, 1.3 * (1.0 + 1e-12), 1.3, QUAD)
    with pytest.raises(ValueError):
        verify_identity_1(LORENTZ, -1.3, 1.3, QUAD)


def test_each_integrand_is_one_adaptive_loop(monkeypatch):
    """A reconstruction runs its principal value and its tail, and an
    identity integrand its two principal values and its tail, as one
    lockstep batch: one _adapt call each, with every piece a member that
    starts from its halves."""
    members = []
    adapt = vacdrag.quadrature._adapt

    def spy(f, a, b, spec, halved=False):
        assert halved is True
        members.append(np.size(a))
        return adapt(f, a, b, spec, halved)

    monkeypatch.setattr(vacdrag.quadrature, "_adapt", spy)
    kk_reconstruct(LORENTZ, "electric", 0.5, QUAD)
    assert members == [5]       # fold, two plain sides, head, tail
    members.clear()
    kk_reconstruct(LORENTZ, "electric", 1e5, QUAD)
    assert members == [6]       # and [0, omega / 2] cut at the band edge
    members.clear()
    verify_identity_1(LORENTZ, 0.7, 1.3, QUAD)
    assert members == [8]
    members.clear()
    verify_identity_1(LORENTZ, 0.7, 1.3, QUAD, numerator_shift=0.9)
    assert members == [8, 8]


def test_identity_rhs_uses_closed_form():
    rep = verify_identity_1(LORENTZ, 0.7, 1.3, QUAD)
    om, op = 0.7, 1.3
    c7 = chi(LORENTZ, "electric", om)
    c13 = chi(LORENTZ, "electric", op)
    rhs = (om ** 2 * c7 - op ** 2 * c13) / (om ** 2 - op ** 2)
    assert rep.rhs == pytest.approx(rhs, rel=1e-13)


# ---------------------------------------------------------------------------
# model serialization
# ---------------------------------------------------------------------------

def test_model_dict_round_trip():
    d = model_to_dict(MAGNETIC)
    again = model_from_dict(d)
    assert again == MAGNETIC


def test_model_file_round_trip(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model_to_dict(LORENTZ)))
    loaded = load_model(str(path))
    assert loaded == LORENTZ


def test_model_file_rejects_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"electric_terms": [{"plasma_strength": 1.0}]}))
    with pytest.raises((ValueError, KeyError, TypeError)):
        load_model(str(path))
