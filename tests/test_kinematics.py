"""Moving-frame kinematics: gamma, Doppler shifts, lab-frame response tensors."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import reference
from vacdrag.kinematics import (
    MotionFrame,
    doppler,
    lorentz_gamma,
    moving_susceptibility_tensors,
)
from vacdrag.medium import LorentzOscillator, SusceptibilityModel, chi, kk_reconstruct
from vacdrag.quadrature import QuadratureSpec

LORENTZ = SusceptibilityModel(electric_terms=(LorentzOscillator(1.0, 1.0, 0.1),),
                              label="single resonance")
MAGNETIC = SusceptibilityModel(
    electric_terms=(LorentzOscillator(1.0, 1.0, 0.1),),
    magnetic_terms=(LorentzOscillator(0.5, 2.0, 0.3),),
    label="magnetoelectric",
)


def entries(t):
    return np.asarray(t)


# ---------------------------------------------------------------------------
# lorentz_gamma / MotionFrame / doppler
# ---------------------------------------------------------------------------

def test_gamma_rest():
    assert lorentz_gamma(0.0) == 1.0


def test_gamma_point_six():
    assert lorentz_gamma(0.6) == pytest.approx(1.25, rel=1e-15)


def test_gamma_light_speed_rejected():
    for beta in (1.0, -1.0, 1.2):
        with pytest.raises(ValueError):
            lorentz_gamma(beta)


def test_frame_carries_derived_gamma():
    frame = MotionFrame(beta=0.6)
    assert frame.gamma == lorentz_gamma(0.6)
    with pytest.raises(ValueError):
        MotionFrame(beta=1.0)


def test_doppler_rest_frame():
    frame = MotionFrame(beta=0.0)
    assert doppler(frame, 2.0, 5.0) == 2.0


def test_doppler_example_values():
    frame = MotionFrame(beta=0.5)
    assert doppler(frame, 2.0, 1.0) == pytest.approx(1.7320508075688772935, rel=1e-15)
    # the other branch, gamma (omega + beta kx), is the mode at -kx
    assert doppler(frame, 2.0, -1.0) == pytest.approx(2.5 / math.sqrt(0.75), rel=1e-15)


def test_doppler_comoving_null():
    frame = MotionFrame(beta=0.5)
    assert doppler(frame, 0.5 * 3.7, 3.7) == 0.0


def test_doppler_rejects_nonfinite():
    frame = MotionFrame(beta=0.5)
    with pytest.raises(ValueError):
        doppler(frame, float("nan"), 1.0)
    with pytest.raises(ValueError):
        doppler(frame, 1.0, float("inf"))


@given(st.floats(min_value=-0.99, max_value=0.99),
       st.floats(min_value=-100.0, max_value=100.0),
       st.floats(min_value=-100.0, max_value=100.0))
@settings(max_examples=80, deadline=None)
def test_doppler_beta_negation_swaps_branches(beta, omega, kx):
    frame = MotionFrame(beta=beta)
    assert doppler(frame, omega, kx) == frame.gamma * (omega - beta * kx)
    assert doppler(MotionFrame(beta=-beta), omega, kx) == \
        frame.gamma * (omega + beta * kx)


# ---------------------------------------------------------------------------
# moving_susceptibility_tensors
# ---------------------------------------------------------------------------

def test_moving_chi_rest_frame_reduces_to_scalar():
    c_ee, c_bb, c_eb, c_be = moving_susceptibility_tensors(
        MAGNETIC, MotionFrame(beta=0.0), 1.3, 2.0)
    ce = chi(MAGNETIC, "electric", 1.3)
    cb = chi(MAGNETIC, "magnetic", 1.3)
    assert entries(c_ee) == pytest.approx(ce * np.eye(3), rel=1e-14)
    assert entries(c_bb) == pytest.approx(cb * np.eye(3), rel=1e-14)
    assert np.all(entries(c_eb) == 0.0)
    assert np.all(entries(c_be) == 0.0)


def test_moving_chi_zero_doppler_point_is_real():
    frame = MotionFrame(beta=0.5)
    omega = 0.5 * 2.2  # equals beta * kx, so the medium sees zero frequency
    c_ee, _, _, _ = moving_susceptibility_tensors(LORENTZ, frame, omega, 2.2)
    assert np.all(entries(c_ee).imag == 0.0)


def test_moving_chi_carries_doppler_argument():
    frame = MotionFrame(beta=0.3)
    c_ee, _, _, _ = moving_susceptibility_tensors(LORENTZ, frame, 1.0, 2.0)
    om_minus = frame.gamma * (1.0 - 0.3 * 2.0)
    assert entries(c_ee)[0, 0] == pytest.approx(chi(LORENTZ, "electric", om_minus),
                                                rel=1e-14)


def test_moving_chi_antisymmetric_cross_blocks():
    frame = MotionFrame(beta=0.4)
    _, _, c_eb, c_be = moving_susceptibility_tensors(MAGNETIC, frame, 0.9, 1.1)
    assert np.all(entries(c_be) == -entries(c_eb))
    assert np.max(np.abs(entries(c_eb))) > 0.0


def test_moving_chi_matches_raw_integral_route():
    """Closed pole-decomposed tensors vs direct spectral-integral evaluation."""
    rng = np.random.default_rng(20260814)
    checked = 0
    while checked < 10:
        beta = float(rng.uniform(-0.7, 0.7))
        omega = float(rng.uniform(0.2, 3.0))
        kx = float(rng.uniform(-3.0, 3.0))
        gam = 1.0 / math.sqrt(1.0 - beta ** 2)
        if abs(gam * (omega - beta * kx)) < 0.05:
            continue
        model = MAGNETIC if checked % 2 else LORENTZ
        e_terms = [(t.plasma_strength, t.resonance, t.damping)
                   for t in model.electric_terms]
        b_terms = [(t.plasma_strength, t.resonance, t.damping)
                   for t in model.magnetic_terms]
        got = moving_susceptibility_tensors(model, MotionFrame(beta=beta), omega, kx)
        want = reference.moving_chi_tensors_spectral(e_terms, b_terms, beta, omega, kx)
        scale = max(max(np.max(np.abs(w)) for w in want), 1e-12)
        for g, w in zip(got, want):
            assert np.max(np.abs(entries(g) - w)) <= 1e-5 * scale
        checked += 1


# ---------------------------------------------------------------------------
# causality of the lab-frame response at fixed kx
# ---------------------------------------------------------------------------

def test_lab_frame_response_at_zero_kx_is_a_rescaled_model():
    # at kx = 0 the Doppler map is a pure frequency rescale, so the lab-frame
    # chi_EE(Omega) equals chi of an explicitly rescaled oscillator model and
    # must pass the same dispersion-relation reconstruction
    beta = 0.6
    gam = lorentz_gamma(beta)
    rescaled = SusceptibilityModel(
        electric_terms=(LorentzOscillator(1.0 / gam ** 2, 1.0 / gam, 0.1 / gam),),
        label="rescaled",
    )
    quadspec = QuadratureSpec()
    for omega in (0.3, 0.9, 1.6):
        lab = moving_susceptibility_tensors(LORENTZ, MotionFrame(beta=beta), omega, 0.0)
        direct = entries(lab[0])[0, 0]
        assert direct == pytest.approx(chi(rescaled, "electric", omega), rel=1e-12)
        rec = kk_reconstruct(rescaled, "electric", omega, quadspec)
        assert abs(rec - direct) <= 1e-5 * abs(direct)


def test_lab_frame_response_at_fixed_kx_satisfies_dispersion_relation():
    """Full-axis Hilbert transform of Im chi_EE(Omega) at fixed kx returns Re."""
    beta, kx, om0 = 0.4, 1.7, 0.9
    frame = MotionFrame(beta=beta)

    def f_im(om):
        t = moving_susceptibility_tensors(LORENTZ, frame, om, kx)
        return entries(t[0])[0, 0].imag

    f_re0 = entries(moving_susceptibility_tensors(LORENTZ, frame, om0, kx)[0])[0, 0].real

    core, _ = quad(f_im, om0 - 2.0, om0 + 2.0, weight="cauchy", wvar=om0, limit=400)
    left, _ = quad(lambda om: f_im(om) / (om - om0), -np.inf, om0 - 2.0, limit=400)
    right, _ = quad(lambda om: f_im(om) / (om - om0), om0 + 2.0, np.inf, limit=400)
    rec = (core + left + right) / math.pi
    assert rec == pytest.approx(f_re0, rel=1e-4)
