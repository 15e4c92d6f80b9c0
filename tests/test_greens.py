"""Dyadic Green functions: free space, half-space reflection, identity checks."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

import reference
from vacdrag.greens import (
    ComplexTensor3,
    SurfaceGeometry,
    free_green_k,
    green_dissipation_identity,
    im_free_green_coincident,
    reciprocity_check,
    reflection_coefficients,
    surface_green_coincident,
)
from vacdrag.kinematics import MotionFrame
from vacdrag.medium import LorentzOscillator, SusceptibilityModel, chi
from vacdrag.quadrature import NonConvergenceError, QuadratureSpec

LORENTZ = SusceptibilityModel(electric_terms=(LorentzOscillator(1.0, 1.0, 0.1),),
                              label="single resonance")
DRUDE = SusceptibilityModel(electric_terms=(LorentzOscillator(2.0, 0.0, 0.05),),
                            label="drude")
MAGNETIC = SusceptibilityModel(
    electric_terms=(LorentzOscillator(1.0, 1.0, 0.1),),
    magnetic_terms=(LorentzOscillator(0.5, 2.0, 0.3),),
    label="magnetoelectric",
)
MAGNETIC_RESONANCE = SusceptibilityModel(
    electric_terms=(LorentzOscillator(1.0, 1.0, 0.1),),
    magnetic_terms=(LorentzOscillator(0.4, 0.9, 0.1),),
    label="magnetic resonance",
)
VACUUM = SusceptibilityModel(electric_terms=(), label="vacuum")
REST = MotionFrame(beta=0.0)


def entries(t):
    return np.asarray(t)


def cross_matrix(v):
    return np.array([[0.0, -v[2], v[1]],
                     [v[2], 0.0, -v[0]],
                     [-v[1], v[0], 0.0]])


# ---------------------------------------------------------------------------
# free_green_k
# ---------------------------------------------------------------------------

def test_free_green_at_zero_wavevector():
    g = free_green_k(np.zeros(3), 1.0, 0.0)
    assert entries(g) == pytest.approx(-np.eye(3), rel=1e-14)


def test_free_green_rejects_zero_frequency():
    with pytest.raises(ValueError):
        free_green_k(np.array([1.0, 0.0, 0.0]), 0.0, 0.0)


def test_free_green_satisfies_wave_equation():
    rng = np.random.default_rng(7)
    for _ in range(5):
        k = rng.uniform(-3.0, 3.0, size=3)
        omega = float(rng.uniform(0.3, 2.0))
        if abs(np.linalg.norm(k) - omega) < 0.1:
            k = k * 2.0
        g = entries(free_green_k(k, omega, 0.0))
        kc = cross_matrix(k)
        residual = (kc @ kc + omega ** 2 * np.eye(3)) @ g + np.eye(3)
        assert np.max(np.abs(residual)) < 1e-12


def test_free_green_large_wavevector_limits():
    omega = 1.3
    g = entries(free_green_k(np.array([1e4, 0.0, 0.0]), omega, 0.0))
    # transverse entries decay, longitudinal tends to -1/omega^2
    assert abs(g[1, 1]) < 2e-8
    assert abs(g[2, 2]) < 2e-8
    assert g[0, 0] == pytest.approx(-1.0 / omega ** 2, rel=1e-6)


def test_tensor_part_helpers():
    m = np.array([[1.0 + 2.0j, 3.0, 0.0],
                  [0.0, 1.0j, 2.0 - 1.0j],
                  [1.0, 0.0, 4.0]], dtype=complex)
    t = ComplexTensor3(m)
    h = entries(t.hermitian_part())
    a = entries(t.antihermitian_part())
    assert np.allclose(h + a, m)
    assert np.allclose(h, h.conj().T)
    assert np.allclose(a, -a.conj().T)


# ---------------------------------------------------------------------------
# im_free_green_coincident
# ---------------------------------------------------------------------------

def test_im_free_zero_outside_light_cone():
    for kx in (1.0, 1.5, 2.0, -3.0):
        g = entries(im_free_green_coincident(kx, 1.0))
        assert np.all(g == 0.0)


def test_im_free_normal_values():
    g = entries(im_free_green_coincident(0.0, 1.0))
    assert g == pytest.approx(np.diag([0.25, 0.125, 0.125]), rel=1e-14)


def test_im_free_transverse_isotropy():
    g = entries(im_free_green_coincident(0.3, 1.1))
    assert g[1, 1] == g[2, 2]
    assert np.count_nonzero(g - np.diag(np.diag(g))) == 0


def test_im_free_wavenumber_sum_rule():
    # integrating each diagonal entry over kx/(2 pi) gives omega/(6 pi);
    # midpoint cells keep clear of the exact-zero edge convention at |kx| = omega
    omega = 1.4
    n = 20000
    step = 2.0 * omega / n
    kx = -omega + step * (np.arange(n) + 0.5)
    vals = np.array([np.diag(entries(im_free_green_coincident(float(k), omega)))
                     for k in kx])
    for i in range(3):
        total = float(np.real(np.sum(vals[:, i]))) * step / (2.0 * math.pi)
        assert total == pytest.approx(omega / (6.0 * math.pi), rel=1e-6)


def test_im_free_matches_finite_eta_extrapolation():
    got = entries(im_free_green_coincident(0.5, 1.0))
    ref = reference.im_free_green_richardson(0.5, 1.0)
    assert np.max(np.abs(got - ref)) < 5e-5


def test_im_free_requires_positive_frequency():
    with pytest.raises(ValueError):
        im_free_green_coincident(0.5, -1.0)


# ---------------------------------------------------------------------------
# reflection_coefficients
# ---------------------------------------------------------------------------

def test_fresnel_rest_frame_matches_textbook_grid():
    for model in (LORENTZ, DRUDE):
        eps_of = lambda w: 1.0 + chi(model, "electric", w)
        for kpar in np.geomspace(0.05, 20.0, 10):
            for omega in np.geomspace(0.11, 4.7, 10):
                rc = reflection_coefficients(model, REST, float(kpar), 0.0,
                                             float(omega))
                rs, rp = reference.fresnel_textbook(eps_of(float(omega)), 1.0,
                                                    float(kpar), float(omega))
                assert abs(rc.r11 - rs) < 1e-12 * max(1.0, abs(rs))
                assert abs(rc.r22 - rp) < 1e-12 * max(1.0, abs(rp))
                assert rc.r12 == 0.0 and rc.r21 == 0.0


def test_fresnel_rest_frame_with_magnetic_response_matches_textbook_grid():
    # mu != 1 enters r_s as mu xi and r_p only through xi_m
    model = MAGNETIC_RESONANCE
    largest_mu = 0.0
    for kpar in np.geomspace(0.05, 20.0, 10):
        for omega in np.geomspace(0.11, 4.7, 10):
            eps = 1.0 + chi(model, "electric", float(omega))
            mu = 1.0 + chi(model, "magnetic", float(omega))
            largest_mu = max(largest_mu, abs(mu - 1.0))
            rc = reflection_coefficients(model, REST, float(kpar), 0.0, float(omega))
            rs, rp = reference.fresnel_textbook(eps, mu, float(kpar), float(omega))
            assert abs(rc.r11 - rs) < 1e-12 * max(1.0, abs(rs))
            assert abs(rc.r22 - rp) < 1e-12 * max(1.0, abs(rp))
    assert largest_mu > 1.0


def test_fresnel_vacuum_no_interface():
    rc = reflection_coefficients(VACUUM, MotionFrame(beta=0.4), 1.5, 0.3, 0.8)
    assert rc.r11 == 0.0 and rc.r22 == 0.0


def test_fresnel_doppler_argument_bookkeeping():
    # the moving-frame coefficients equal rest-frame textbook Fresnel with the
    # permittivity taken at gamma*(omega - beta*kx), transverse kinematics
    # unchanged
    frame = MotionFrame(beta=0.5)
    kx, ky, omega = 1.1, 0.7, 0.4
    om_minus = frame.gamma * (omega - 0.5 * kx)
    eps = 1.0 + chi(LORENTZ, "electric", om_minus)
    kpar = math.hypot(kx, ky)
    rs, rp = reference.fresnel_textbook(eps, 1.0, kpar, omega)
    rc = reflection_coefficients(LORENTZ, frame, kx, ky, omega)
    assert rc.r11 == pytest.approx(rs, rel=1e-12)
    assert rc.r22 == pytest.approx(rp, rel=1e-12)


def test_fresnel_polarization_vectors():
    rc = reflection_coefficients(LORENTZ, MotionFrame(beta=0.3), 1.2, 0.5, 0.7)
    kvec = np.array([1.2, 0.5, 1j * rc.xi])
    for e in (rc.e_1, rc.e_2):
        assert np.dot(e, e) == pytest.approx(1.0, rel=1e-12)
        assert abs(np.dot(e, kvec)) < 1e-12
    assert abs(np.dot(rc.e_1, rc.e_2)) < 1e-14


def test_fresnel_light_cone_rejected():
    with pytest.raises(ValueError):
        reflection_coefficients(LORENTZ, REST, 1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        reflection_coefficients(LORENTZ, REST, 0.6, 0.8, 1.0)


def test_fresnel_positive_absorption_on_rate_domain():
    # arguments (-k, ky, -omega) with k > omega/V give a positive rest-frame
    # frequency, where passivity forces Im r > 0 for both polarizations
    frame = MotionFrame(beta=0.5)
    omega = 0.1
    k_lo = omega / 0.5
    ks = k_lo + (50.0 - k_lo) * (np.arange(1, 11) / 11.0)
    kys = np.linspace(-6.0, 6.0, 10)
    for model in (LORENTZ, DRUDE):
        for k in ks:
            for ky in kys:
                rc = reflection_coefficients(model, frame, -float(k), float(ky),
                                             -omega)
                assert rc.r11.imag > 0.0
                assert rc.r22.imag > 0.0


# ---------------------------------------------------------------------------
# surface_green_coincident
# ---------------------------------------------------------------------------

QUAD_SURF = QuadratureSpec(k_max=40.0)


def test_surface_green_vacuum_reduces_to_free_part():
    geom = SurfaceGeometry(z0=0.8)
    # evanescent kx: free part has no imaginary piece either, so zero tensor
    g = entries(surface_green_coincident(VACUUM, REST, geom, 1.5, 1.0, QUAD_SURF))
    assert np.max(np.abs(g)) < 1e-14
    # propagating kx: reduces to the free-space residue term
    g2 = entries(surface_green_coincident(VACUUM, REST, geom, 0.5, 1.0, QUAD_SURF))
    free = entries(im_free_green_coincident(0.5, 1.0))
    assert np.max(np.abs(g2 - 1j * free)) < 1e-12


def test_surface_green_rest_frame_matches_dense_grid():
    kx, omega, z0 = 1.3, 0.9, 0.7
    eps = 1.0 + chi(LORENTZ, "electric", omega)
    got = entries(surface_green_coincident(LORENTZ, REST, SurfaceGeometry(z0=z0),
                                           kx, omega, QUAD_SURF))
    # the dense grid omits its first cell (O(h) bias); Richardson in the step
    # size cancels it
    ref_h = reference.reflected_green_dense(eps, 1.0, kx, omega, z0, kcut=40.0,
                                            n=200_001)
    ref_h2 = reference.reflected_green_dense(eps, 1.0, kx, omega, z0, kcut=40.0,
                                             n=400_001)
    ref = 2.0 * ref_h2 - ref_h
    scale = max(np.max(np.abs(ref)), 1e-12)
    assert np.max(np.abs(got - ref)) <= 1e-6 * scale


def test_surface_green_propagating_sector_matches_quadpack():
    kx, omega, z0, kcut = 0.4, 1.0, 0.9, 40.0
    eps = 1.0 + chi(LORENTZ, "electric", omega)
    got = entries(surface_green_coincident(LORENTZ, REST, SurfaceGeometry(z0=z0),
                                           kx, omega, QuadratureSpec(k_max=kcut)))
    got = got - 1j * entries(im_free_green_coincident(kx, omega))
    ky_star = math.sqrt(omega ** 2 - kx ** 2)

    def dyad(ky):
        kpar2 = kx ** 2 + ky ** 2
        kpar = math.sqrt(kpar2)
        if kpar2 >= omega ** 2:
            xi = complex(math.sqrt(kpar2 - omega ** 2))
        else:
            xi = -1j * math.sqrt(omega ** 2 - kpar2)
        rs, rp = reference.fresnel_textbook(eps, 1.0, kpar, omega)
        e1 = np.array([ky, -kx, 0.0]) / kpar
        e2u = np.array([1j * xi * kx, 1j * xi * ky, -kpar2]) / (kpar * omega)
        e2d = np.array([-1j * xi * kx, -1j * xi * ky, -kpar2]) / (kpar * omega)
        d = np.outer(e1, e1) * rs + np.outer(e2u, e2d) * rp
        return d * np.exp(-2.0 * xi * z0) / (2.0 * xi) / (2.0 * math.pi)

    ref = np.zeros((3, 3), dtype=complex)
    for i in range(3):
        for j in range(3):
            for part in (np.real, np.imag):
                def f(ky, i=i, j=j, part=part):
                    return part(dyad(ky)[i, j] + dyad(-ky)[i, j])
                val, _ = quad(f, 0.0, kcut, points=[ky_star], limit=400)
                ref[i, j] += val if part is np.real else 1j * val
    scale = max(np.max(np.abs(ref)), 1e-12)
    assert np.max(np.abs(got - ref)) <= 1e-6 * scale


def test_surface_green_distance_ladder_monotone():
    vals = []
    for z0 in (0.5, 1.0, 2.0, 4.0, 8.0):
        g = entries(surface_green_coincident(LORENTZ, REST, SurfaceGeometry(z0=z0),
                                             1.5, 1.0, QUAD_SURF))
        vals.append(np.max(np.abs(g)))
    for a, b in zip(vals, vals[1:]):
        assert b < a


def test_surface_green_far_field_envelope():
    kx, omega = 1.5, 1.0
    xi_min = math.sqrt(kx ** 2 - omega ** 2)
    near = entries(surface_green_coincident(LORENTZ, REST, SurfaceGeometry(z0=1.0),
                                            kx, omega, QUAD_SURF))
    far = entries(surface_green_coincident(LORENTZ, REST, SurfaceGeometry(z0=8.0),
                                           kx, omega, QUAD_SURF))
    bound = math.exp(-2.0 * xi_min * 7.0)
    assert np.max(np.abs(far)) <= bound * np.max(np.abs(near))


def test_surface_green_starved_budget_names_entry():
    starved = QuadratureSpec(k_max=40.0, max_subdivisions=1)
    with pytest.raises(NonConvergenceError,
                       match=r"reflected Green entry \([0-2],[0-2]\) did not converge"):
        surface_green_coincident(LORENTZ, REST, SurfaceGeometry(z0=0.7), 1.3, 0.9,
                                 starved)


def test_surface_green_requires_cutoff_and_positive_height():
    with pytest.raises(ValueError):
        surface_green_coincident(LORENTZ, REST, SurfaceGeometry(z0=1.0), 1.5, 1.0,
                                 QuadratureSpec())
    with pytest.raises(ValueError):
        SurfaceGeometry(z0=-1.0)


# ---------------------------------------------------------------------------
# green_dissipation_identity
# ---------------------------------------------------------------------------

QUAD = QuadratureSpec()


def test_dissipation_identity_vacuum():
    rep = green_dissipation_identity(VACUUM, REST, 0.8, np.array([0.3, 0.5]), 1.1,
                                     QUAD)
    # bath side is exactly zero; the G - Gh side carries inversion roundoff
    assert np.max(np.abs(np.asarray(rep.lhs))) == 0.0
    assert rep.residual <= 1e-14


def test_dissipation_identity_rest_frame():
    rep = green_dissipation_identity(LORENTZ, REST, 0.8, np.array([0.3, 0.5]), 1.1,
                                     QUAD)
    assert rep.relative_residual < 1e-8


def test_dissipation_identity_moving():
    frame = MotionFrame(beta=0.3)
    rep = green_dissipation_identity(MAGNETIC, frame, 0.8, np.array([-0.4, 0.9]),
                                     0.7, QUAD)
    assert rep.relative_residual < 1e-8


def test_dissipation_identity_zero_doppler_rejected():
    frame = MotionFrame(beta=0.5)
    with pytest.raises(ValueError):
        green_dissipation_identity(LORENTZ, frame, 1.2, np.array([0.3, 0.5]),
                                   0.5 * 1.2, QUAD)


# ---------------------------------------------------------------------------
# reciprocity_check
# ---------------------------------------------------------------------------

POINT_A = (0.0, 0.8)
POINT_B = (0.4, 1.1)


def test_reciprocity_rest_frame():
    rep = reciprocity_check(LORENTZ, REST, 2.0, 0.4, POINT_A, POINT_B, QUAD)
    assert rep.transpose_residual < 1e-8
    assert rep.naive_residual < 1e-8


def test_reciprocity_moving_velocity_reversal():
    frame = MotionFrame(beta=0.5)
    rep = reciprocity_check(LORENTZ, frame, 2.0, 0.4, POINT_A, POINT_B, QUAD)
    assert rep.transpose_residual < 1e-6
    assert rep.naive_residual >= 10.0 * max(rep.transpose_residual, 1e-12)


def test_reciprocity_vacuum_any_velocity():
    frame = MotionFrame(beta=0.7)
    rep = reciprocity_check(VACUUM, frame, 2.0, 0.4, POINT_A, POINT_B, QUAD)
    assert rep.transpose_residual < 1e-12
    assert rep.naive_residual < 1e-12


def test_reciprocity_check_rejects_grazing_mode():
    with pytest.raises(ValueError, match="grazing"):
        reciprocity_check(LORENTZ, MotionFrame(beta=0.5), 0.4, 0.4, POINT_A,
                          POINT_B, QUAD)


def test_reflected_green_evaluates_chi_once_per_call(monkeypatch):
    from vacdrag import greens

    calls = []

    def counting_chi(*args):
        calls.append(args[1])
        return chi(*args)
    monkeypatch.setattr(greens, "chi", counting_chi)
    quad = QuadratureSpec(rel_tol=1e-6, abs_tol=1e-14, k_max=20.0)
    frame = MotionFrame(beta=0.5)
    for kx in (0.3, 2.0):     # inside and outside the light circle
        calls.clear()
        greens._reflected_green(LORENTZ, frame, kx, 1.0, 0.0, 1.0, 0.0, 1.0, quad)
        assert sorted(calls) == ["electric", "magnetic"]
