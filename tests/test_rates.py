"""Excitation rates: free-space null, surface rate, distance sweep, finite time."""

import json
import math
import re

import numpy as np
import pytest

import reference
from vacdrag.greens import SurfaceGeometry, surface_green_coincident
from vacdrag.kinematics import MotionFrame
from vacdrag.medium import LorentzOscillator, SusceptibilityModel, load_model
from vacdrag.quadrature import (NonConvergenceError, QuadratureSpec,
                                integrate_adaptive)
from vacdrag.rates import (
    DetectorSpec,
    RateResult,
    finite_time_probability,
    rate_free_space,
    rate_surface,
    rate_vs_distance,
)
from vacdrag.specs import check_rate_inputs

LORENTZ = SusceptibilityModel(electric_terms=(LorentzOscillator(1.0, 1.0, 0.1),),
                              label="single resonance")
MAGNETIC_RESONANCE = SusceptibilityModel(
    electric_terms=(LorentzOscillator(1.0, 1.0, 0.1),),
    magnetic_terms=(LorentzOscillator(0.4, 0.9, 0.1),),
    label="magnetic resonance")
VACUUM = SusceptibilityModel(electric_terms=(), label="vacuum")
KAPPA = (0.8, 0.3, 1.1)
QUAD = QuadratureSpec(rel_tol=1e-7, abs_tol=1e-16, k_max=50.0)


def det(omega=0.1, z0=1.0, kappa=KAPPA):
    return DetectorSpec(kappa=kappa, omega=omega, z0=z0)


# ---------------------------------------------------------------------------
# specs
# ---------------------------------------------------------------------------

def test_detector_spec_validation():
    with pytest.raises(ValueError):
        DetectorSpec(kappa=KAPPA, omega=0.0, z0=1.0)
    with pytest.raises(ValueError):
        DetectorSpec(kappa=KAPPA, omega=-1.0, z0=1.0)
    with pytest.raises(ValueError):
        DetectorSpec(kappa=(0.0, 0.0, 0.0), omega=1.0, z0=1.0)


# ---------------------------------------------------------------------------
# rate_free_space
# ---------------------------------------------------------------------------

def test_free_space_rate_is_exactly_zero():
    for beta in (0.0, 0.3, 0.6, 0.9, 0.99):
        for omega in (0.1, 1.0, 10.0):
            r = rate_free_space(det(omega=omega), MotionFrame(beta=beta), QUAD)
            assert r.gamma == 0.0
            assert r.error_estimate == 0.0


def test_free_space_rate_reports_domain():
    r = rate_free_space(det(omega=1.0), MotionFrame(beta=0.5), QUAD)
    assert r.k_lower == 2.0
    r0 = rate_free_space(det(omega=1.0), MotionFrame(beta=0.0), QUAD)
    assert r0.k_lower == math.inf
    assert r0.gamma == 0.0


# ---------------------------------------------------------------------------
# rate_surface
# ---------------------------------------------------------------------------

def test_surface_rate_zero_at_rest():
    r = rate_surface(det(), MotionFrame(beta=0.0), LORENTZ, QUAD)
    assert r.gamma == 0.0
    assert r.k_lower == math.inf


def test_surface_rate_vacuum_zero():
    r = rate_surface(det(), MotionFrame(beta=0.5), VACUUM, QUAD)
    assert r.gamma == 0.0


def test_surface_rate_matches_dense_grid_oracle():
    frame = MotionFrame(beta=0.5)
    r = rate_surface(det(), frame, LORENTZ, QUAD)
    assert r.gamma > 0.0
    ref_total, ref_parts = reference.rate_surface_dense(
        ((1.0, 1.0, 0.1),), (), 0.5, KAPPA, 0.1, 1.0, 50.0, nk=1500, nky=1500)
    assert abs(r.gamma - ref_total) <= 1e-4 * ref_total
    assert r.breakdown["s"] == pytest.approx(ref_parts["s"], rel=2e-4)
    assert r.breakdown["p"] == pytest.approx(ref_parts["p"], rel=2e-4)
    assert r.k_lower == pytest.approx(0.2)
    assert r.k_max == 50.0


def test_surface_rate_with_magnetic_response_matches_dense_grid_oracle():
    # mu != 1 reaches the s channel through r_s = (mu xi - xi_m)/(mu xi + xi_m)
    quad = QuadratureSpec(rel_tol=1e-6, abs_tol=1e-18, k_max=20.0)
    r = rate_surface(det(), MotionFrame(beta=0.5), MAGNETIC_RESONANCE, quad)
    _, ref_parts = reference.rate_surface_dense(
        ((1.0, 1.0, 0.1),), ((0.4, 0.9, 0.1),), 0.5, KAPPA, 0.1, 1.0, 20.0,
        ky_cut=25.0)
    assert r.converged
    for channel in ("s", "p"):
        assert r.breakdown[channel] == pytest.approx(ref_parts[channel], rel=1e-5)


def test_surface_rate_coupling_symmetry_and_scaling():
    frame = MotionFrame(beta=0.5)
    quad = QuadratureSpec(rel_tol=1e-6, abs_tol=1e-16, k_max=20.0)
    base = rate_surface(det(), frame, LORENTZ, quad)
    flipped = rate_surface(det(kappa=(-0.8, -0.3, -1.1)), frame, LORENTZ, quad)
    assert flipped.gamma == base.gamma
    doubled = rate_surface(det(kappa=(1.6, 0.6, 2.2)), frame, LORENTZ, quad)
    assert doubled.gamma == pytest.approx(4.0 * base.gamma, rel=1e-12)


def test_surface_rate_starved_budget_names_channel_and_k():
    frame = MotionFrame(beta=0.5)
    quad = QuadratureSpec(rel_tol=1e-6, abs_tol=1e-16, k_max=20.0,
                          max_subdivisions=1)
    with pytest.raises(NonConvergenceError) as exc:
        rate_surface(det(), frame, LORENTZ, quad)
    match = re.fullmatch(r"ky integral for the ([sp]) channel failed at k = (\S+)",
                         str(exc.value))
    assert match is not None, str(exc.value)
    # the named k is one of the 15 Kronrod nodes of the first outer panel
    k = float(match.group(2))
    k_lo = 0.1 / 0.5
    nodes = 0.5 * (k_lo + 20.0) + 0.5 * (20.0 - k_lo) * np.array(
        [-0.9914553711208126, -0.9491079123427585, -0.8648644233597691,
         -0.7415311855993944, -0.5860872354676911, -0.4058451513773972,
         -0.2077849550078985, 0.0, 0.2077849550078985, 0.4058451513773972,
         0.5860872354676911, 0.7415311855993944, 0.8648644233597691,
         0.9491079123427585, 0.9914553711208126])
    assert np.min(np.abs(nodes - k) / nodes) < 1e-5
    assert exc.value.residual > 0.0


def test_surface_rate_grows_with_velocity():
    quad = QuadratureSpec(rel_tol=1e-6, abs_tol=1e-16, k_max=50.0)
    slow = rate_surface(det(), MotionFrame(beta=0.25), LORENTZ, quad)
    fast = rate_surface(det(), MotionFrame(beta=0.5), LORENTZ, quad)
    assert 0.0 < slow.gamma < fast.gamma


def test_surface_rate_unit_rescaling_law():
    # scale frequencies by lam and lengths by 1/lam: gamma scales as lam^3
    lam = 2.0
    frame = MotionFrame(beta=0.5)
    quad = QuadratureSpec(rel_tol=1e-7, abs_tol=1e-18, k_max=20.0)
    quad_scaled = QuadratureSpec(rel_tol=1e-7, abs_tol=1e-18, k_max=20.0 * lam)
    scaled_model = SusceptibilityModel(
        electric_terms=(LorentzOscillator(lam ** 2 * 1.0, lam * 1.0, lam * 0.1),),
        label="scaled")
    base = rate_surface(det(), frame, LORENTZ, quad)
    scaled = rate_surface(det(omega=lam * 0.1, z0=1.0 / lam), frame, scaled_model,
                          quad_scaled)
    assert scaled.gamma == pytest.approx(lam ** 3 * base.gamma, rel=1e-6)


def test_surface_rate_domain_validation():
    frame = MotionFrame(beta=0.5)
    with pytest.raises(ValueError):
        rate_surface(det(), frame, LORENTZ, QuadratureSpec(k_max=0.15))
    with pytest.raises(ValueError):
        rate_surface(det(), frame, LORENTZ, QuadratureSpec())
    with pytest.raises(ValueError):
        rate_surface(det(z0=None), frame, LORENTZ, QUAD)


def test_rate_input_checks_run_in_order():
    frame, fast = MotionFrame(beta=0.0), MotionFrame(beta=0.5)
    bare = QuadratureSpec()
    # beta = 0 is the exact zero before any check
    assert check_rate_inputs(det(z0=None), frame, LORENTZ, bare)
    assert check_rate_inputs(det(z0=None), frame, LORENTZ, bare, finite_time=True)
    with pytest.raises(ValueError, match="z0 is required"):
        check_rate_inputs(det(z0=None), fast, LORENTZ, bare)
    with pytest.raises(ValueError, match="k_max must be set"):
        check_rate_inputs(det(), fast, LORENTZ, bare)
    for finite_time in (False, True):
        with pytest.raises(ValueError, match=r"exceed omega / \|beta\|"):
            check_rate_inputs(det(), fast, LORENTZ, QuadratureSpec(k_max=0.15),
                              finite_time=finite_time)
    assert not check_rate_inputs(det(), fast, LORENTZ, QuadratureSpec(k_max=0.3))
    with pytest.raises(ValueError, match=r"1\.8 omega / \|beta\|"):
        check_rate_inputs(det(), fast, LORENTZ, QuadratureSpec(k_max=0.3),
                          finite_time=True)
    # a model with no terms: zero after the k_max checks for the rate, before
    # them for the finite-time probability
    with pytest.raises(ValueError, match="k_max must be set"):
        check_rate_inputs(det(), fast, VACUUM, bare)
    assert check_rate_inputs(det(), fast, VACUUM, QUAD)
    assert check_rate_inputs(det(z0=None), fast, VACUUM, bare, finite_time=True)


def test_rate_matches_reflected_green_route(scenarios_dir):
    """Gamma = -(omega^2 / pi) int_{omega/|beta|}^{k_max} dk
    kappa.Im G_R(kx = sgn(beta) k; omega).kappa, with G_R the coincident
    surface Green function of greens (ky cut 48), reproduces rate_surface
    for rate_surface.json at both signs of beta. With the Doppler sign
    reversed, kx = -sgn(beta) k, the same integral is negative, an error
    reciprocity_check holds by construction and cannot see."""
    doc = json.loads((scenarios_dir / "rate_surface.json").read_text())
    model = load_model(doc["model_file"])
    d = doc["detector"]
    detector = DetectorSpec(kappa=tuple(d["kappa"]), omega=d["omega"], z0=d["z0"])
    k_max = doc["quad"]["k_max"]
    kappa = np.array(detector.kappa)
    omega = detector.omega

    def green_route(frame, sign, rel_tol):
        quad = QuadratureSpec(rel_tol=rel_tol, abs_tol=1e-18, k_max=48.0)
        geom = SurfaceGeometry(detector.z0)
        direction = sign * math.copysign(1.0, frame.beta)

        def integrand(ks):
            return np.array([
                kappa @ np.asarray(surface_green_coincident(
                    model, frame, geom, direction * k, omega, quad)).imag @ kappa
                for k in ks])
        res = integrate_adaptive(integrand, omega / abs(frame.beta), k_max,
                                 QuadratureSpec(rel_tol=rel_tol, abs_tol=1e-18))
        assert res.converged
        return -omega ** 2 / math.pi * res.value

    for beta in (0.5, -0.5):
        frame = MotionFrame(beta=beta)
        rate = rate_surface(detector, frame, model, QuadratureSpec(
            rel_tol=1e-9, abs_tol=1e-18, k_max=k_max))
        assert rate.error_estimate < 1e-9 * rate.gamma
        assert green_route(frame, 1.0, 1e-6) == pytest.approx(rate.gamma, rel=1e-8)
    reversed_doppler = green_route(MotionFrame(beta=0.5), -1.0, 1e-2)
    assert reversed_doppler < -0.5 * rate.gamma


# ---------------------------------------------------------------------------
# rate_vs_distance
# ---------------------------------------------------------------------------

def test_distance_ladder_decay_envelope():
    frame = MotionFrame(beta=0.5)
    ladder = [0.5, 1.0, 2.0, 4.0, 8.0, 16.0]
    results = rate_vs_distance(det(), frame, LORENTZ, QUAD, ladder)
    omega = 0.1
    xi_min = math.sqrt((omega / 0.5) ** 2 - omega ** 2)
    gammas = [r.gamma for r in results]
    for (z_a, g_a), (z_b, g_b) in zip(zip(ladder, gammas), zip(ladder[1:], gammas[1:])):
        assert g_b < g_a
        assert g_b <= math.exp(-2.0 * xi_min * (z_b - z_a)) * g_a


def test_distance_ladder_single_point_consistency():
    frame = MotionFrame(beta=0.5)
    quad = QuadratureSpec(rel_tol=1e-6, abs_tol=1e-16, k_max=20.0)
    lone = rate_vs_distance(det(), frame, LORENTZ, quad, [1.0])
    direct = rate_surface(det(z0=1.0), frame, LORENTZ, quad)
    assert lone[0].gamma == direct.gamma


def test_distance_ladder_vacuum_all_zero():
    frame = MotionFrame(beta=0.5)
    results = rate_vs_distance(det(), frame, VACUUM, QUAD, [0.5, 1.0, 2.0])
    assert all(r.gamma == 0.0 for r in results)


# ---------------------------------------------------------------------------
# finite_time_probability
# ---------------------------------------------------------------------------

FT_QUAD = QuadratureSpec(rel_tol=1e-6, abs_tol=1e-18, k_max=50.0)


def test_finite_time_vacuum_zero():
    p = finite_time_probability(det(), MotionFrame(beta=0.5), VACUUM, FT_QUAD, 10.0)
    assert p == 0.0


def test_finite_time_small_time_quadratic():
    frame = MotionFrame(beta=0.5)
    p1 = finite_time_probability(det(), frame, LORENTZ, FT_QUAD, 0.5)
    p2 = finite_time_probability(det(), frame, LORENTZ, FT_QUAD, 1.0)
    assert p1 > 0.0
    assert p2 / p1 == pytest.approx(4.0, rel=1e-2)


def test_finite_time_converges_to_golden_rule():
    frame = MotionFrame(beta=0.5)
    gamma = rate_surface(det(), frame, LORENTZ, FT_QUAD).gamma
    err = {}
    for T in (1000.0, 4000.0):
        p = finite_time_probability(det(), frame, LORENTZ, FT_QUAD, T)
        err[T] = abs(p / T - gamma) / gamma
    assert err[4000.0] < 0.02
    assert err[1000.0] < 0.08
    assert err[4000.0] <= 1.05 * err[1000.0]


def test_rate_spline_matches_scipy_not_a_knot_spline():
    from scipy.interpolate import CubicSpline
    from vacdrag.rates import _cubic_spline

    rng = np.random.default_rng(7)
    x = np.linspace(0.02, 0.18, 65)
    y = np.exp(0.1 * rng.normal(size=65).cumsum())
    z = np.linspace(x[0], x[-1], 2001)
    ref = CubicSpline(x, y)(z)
    assert np.max(np.abs(_cubic_spline(x, y)(z) - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_finite_time_requires_positive_time():
    with pytest.raises(ValueError):
        finite_time_probability(det(), MotionFrame(beta=0.5), LORENTZ, FT_QUAD, 0.0)


# ---------------------------------------------------------------------------
# finite-time convolution plans
# ---------------------------------------------------------------------------

def synthetic_rate_spline(omega=0.1):
    """A _RateSpline over a smooth positive stand-in for the rate, so the
    plans can be checked without a rate build."""
    from vacdrag.rates import _RateSpline, _cubic_spline

    grid = np.linspace(0.2 * omega, 1.8 * omega, 65)
    return _RateSpline(omega, _cubic_spline(grid, 4e-3 * np.exp(-5.0 * grid)
                                            * (1.0 + 0.3 * np.sin(40.0 * grid))))


def direct_simpson(rs, T):
    """The sinc-kernel convolution with the spline evaluated on the whole
    Simpson grid, as P(T) was computed before plans were cached."""
    n = rs.grid_size(T)
    u, du = np.linspace(-rs.half_width, rs.half_width, n, retstep=True)
    kernel = T * T * np.sinc(u * T / (2.0 * math.pi)) ** 2
    weights = np.full(n, 2.0)
    weights[1::2] = 4.0
    weights[0] = weights[-1] = 1.0
    return du / 3.0 * np.dot(weights, 0.5 * rs.spline(rs.omega - u) * kernel) / math.pi


def test_convolution_plan_matches_direct_simpson_rule():
    rs = synthetic_rate_spline()
    sizes = {}
    for T in (0.5, 50.0, 1600.0, 6400.0):
        sizes[T] = rs.grid_size(T)
        assert rs.probability(T) == pytest.approx(direct_simpson(rs, T), rel=1e-13)
    assert sizes[0.5] == sizes[50.0] == 513
    assert 513 < sizes[1600.0] < sizes[6400.0]


def test_convolution_plan_reused_without_spline_evaluation():
    rs = synthetic_rate_spline()
    calls = []
    spline = rs.spline

    def spy(z):
        calls.append(z.size)
        return spline(z)
    rs.spline = spy
    first = rs.probability(10.0)
    assert calls == [513]
    # same grid size, different T: the plan is reused
    assert rs.grid_size(20.0) == 513
    rs.probability(20.0)
    assert rs.probability(10.0) == first
    assert calls == [513]


def test_convolution_plans_bounded_oldest_evicted():
    from vacdrag.rates import _MAX_PLANS

    rs = synthetic_rate_spline()
    times = [2000.0 * (k + 1) for k in range(_MAX_PLANS + 3)]
    for T in times:
        rs.probability(T)
        assert len(rs.plans) <= _MAX_PLANS
    assert list(rs.plans) == [rs.grid_size(T) for T in times[-_MAX_PLANS:]]


def test_rate_spline_cache_clear_drops_plans():
    from vacdrag.rates import _rate_spline

    quad = QuadratureSpec(rel_tol=0.1, abs_tol=1e-12, k_max=1.0)
    frame = MotionFrame(beta=0.5)
    p = finite_time_probability(det(), frame, LORENTZ, quad, 50.0)
    cached = _rate_spline(LORENTZ, frame, det(), quad)
    assert list(cached.plans) == [513]
    _rate_spline.cache_clear()
    rebuilt = _rate_spline(LORENTZ, frame, det(), quad)
    assert rebuilt is not cached and rebuilt.plans == {}
    assert finite_time_probability(det(), frame, LORENTZ, quad, 50.0) == p
