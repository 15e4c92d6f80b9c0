"""Excitation rates: free-space null, the rate density point by point, the
surface rate, finite time."""

import json
import math
import re

import numpy as np
import pytest

import reference
from vacdrag.greens import (SurfaceGeometry, _doppler_medium, _dyad_pair,
                            _xi_medium, surface_green_coincident)
from vacdrag.kinematics import MotionFrame
from vacdrag.medium import LorentzOscillator, SusceptibilityModel, chi, load_model
from vacdrag.quadrature import (NonConvergenceError, QuadratureSpec,
                                integrate_adaptive)
from vacdrag.rates import (
    DetectorSpec,
    RateResult,
    _density,
    _folds,
    _k_floor,
    _light_cone_crossings,
    _outer_map,
    _split_map,
    finite_time_probability,
    rate_free_space,
    rate_surface,
)
from vacdrag.specs import (MAX_CONVOLUTION_PANELS, check_rate_inputs,
                           convolution_panels)

LORENTZ = SusceptibilityModel(electric_terms=(LorentzOscillator(1.0, 1.0, 0.1),),
                              label="single resonance")
MAGNETIC_RESONANCE = SusceptibilityModel(
    electric_terms=(LorentzOscillator(1.0, 1.0, 0.1),),
    magnetic_terms=(LorentzOscillator(0.4, 0.9, 0.1),),
    label="magnetic resonance")
DRUDE = load_model("bundled:drude_metal")
VACUUM = SusceptibilityModel(electric_terms=(), label="vacuum")
KAPPA = (0.8, 0.3, 1.1)
QUAD = QuadratureSpec(rel_tol=1e-7, abs_tol=1e-16, k_max=50.0)


def det(omega=0.1, z0=1.0, kappa=KAPPA):
    return DetectorSpec(kappa=kappa, omega=omega, z0=z0)


def spline_nodes(omega=0.1):
    """The gaps of the finite-time rate spline, ascending: the 65 Chebyshev
    points (of the first kind) of the window [0.2 omega, 1.8 omega]."""
    return omega * (1.0 - 0.8 * np.cos(np.pi * (np.arange(65) + 0.5) / 65))


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
# _density, point by point
# ---------------------------------------------------------------------------

# both bundled models and mu != 1, both signs of beta; beta n > 1 at 0.9
POINTWISE_MODELS = (load_model("bundled:lorentz_dielectric"), DRUDE,
                    MAGNETIC_RESONANCE)
POINTWISE_BETAS = (0.3, 0.5, -0.7, 0.9)


def pointwise_cases(n=50):
    """For each model and beta: a seeded detector, n seeded (k, ky) of the
    rate's domain, out to 40 / z0 past the threshold in k and in ky (about
    half of them where e^(-2 xi z0) < e^-60), _doppler_medium's eps and mu
    at the density's mode (-sgn(beta) k, -omega), and _density there."""
    rng = np.random.default_rng(2012)
    for model in POINTWISE_MODELS:
        for beta in POINTWISE_BETAS:
            d = det(omega=rng.uniform(0.05, 0.5), z0=rng.uniform(0.3, 3.0),
                    kappa=tuple(rng.normal(size=3)))
            frame = MotionFrame(beta=beta)
            reach = 40.0 / d.z0
            k = d.omega / abs(beta) + reach * rng.uniform(0.01, 1.0, n) ** 2
            ky = reach * rng.uniform(0.0, 1.0, n)
            eps, mu, _ = _doppler_medium(model, frame, -math.copysign(1.0, beta) * k,
                                         -d.omega)
            yield model, frame, d, k, ky, _density(eps, mu, _folds(d), k * k, ky)


def test_density_matches_the_reference_density():
    """_doppler_medium with _density, at 600 points, is the rate density of
    reference.rate_density, written from the formula, to 1e-13 in each
    channel at each point."""
    worst = 0.0
    for model, frame, d, k, ky, got in pointwise_cases():
        terms = [tuple((t.plasma_strength, t.resonance, t.damping) for t in side)
                 for side in (model.electric_terms, model.magnetic_terms)]
        ref = np.array(reference.rate_density(*terms, frame.beta, d.kappa, d.omega,
                                              d.z0, k, ky))
        assert np.all(ref != 0.0)
        worst = max(worst, float(np.max(np.abs(got - ref) / np.abs(ref))))
    assert worst <= 1e-13


def test_density_is_the_reflected_dyad_contracted_with_kappa():
    """The two routes to the reflected field agree point by point: the
    density summed over s and p is (1 / pi) kappa . Im D . kappa, D the
    greens dyad _dyad_pair of the mode (-sgn(beta) k, ky, -omega) at dy = 0
    and zsum = 2 z0, to 1e-12."""
    worst = 0.0
    for model, frame, d, k, ky, got in pointwise_cases():
        kx, omega = -math.copysign(1.0, frame.beta) * k, -d.omega
        eps, mu, _ = _doppler_medium(model, frame, kx, omega)
        dyad = _dyad_pair(eps, mu, kx, omega, ky,
                          _xi_medium(k * k + ky * ky, 1.0, 1.0, omega), 0.0, 2.0 * d.z0)
        kappa = np.array(d.kappa)
        green = np.einsum("i,ijn,j->n", kappa, dyad.imag, kappa) / math.pi
        error = np.abs(got.sum(axis=0) - green) / np.abs(green)
        worst = max(worst, float(error.max()))
    assert worst <= 1e-12


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


def test_surface_rate_beyond_the_medium_light_cone_matches_dense_grid_oracle():
    # beta n > 1: near the threshold Re xi_m^2 changes sign at a ky inside
    # the domain, where the inner integrand has a sqrt branch point
    quad = QuadratureSpec(rel_tol=1e-6, abs_tol=1e-18, k_max=12.0)
    r = rate_surface(det(omega=0.5), MotionFrame(beta=0.9), LORENTZ, quad)
    _, ref_parts = reference.rate_surface_dense(
        ((1.0, 1.0, 0.1),), (), 0.9, KAPPA, 0.5, 1.0, 12.0, nk=1500, nky=1500,
        ky_cut=25.0)
    assert r.converged
    for channel in ("s", "p"):
        assert r.breakdown[channel] == pytest.approx(ref_parts[channel], rel=1e-4)


@pytest.mark.parametrize("model, beta, cherenkov", [
    (LORENTZ, 0.5, False),             # Im r_p rises linearly from k = omega/beta
    (DRUDE, 0.5, False),               # Im chi ~ 1/omega_m: a sqrt onset
    (LORENTZ, 0.9, True),              # beta n > 1: a ky branch point as well
    (MAGNETIC_RESONANCE, 0.75, True),
], ids=["lorentz-linear-onset", "drude-sqrt-onset", "lorentz-beyond-light-cone",
        "magnetic-beyond-light-cone"])
def test_surface_rate_threshold_accuracy(model, beta, cherenkov):
    """At rel_tol 1e-5 the rate agrees with a rel_tol 1e-10 run within the
    requested tolerance and within its own error estimate, on both kinds of
    threshold onset and beyond the medium's light cone."""
    n2 = ((1.0 + chi(model, "electric", 1e-3))
          * (1.0 + chi(model, "magnetic", 1e-3))).real
    assert (beta * beta * n2 > 1.0) == cherenkov
    frame = MotionFrame(beta=beta)
    loose, tight = (rate_surface(det(), frame, model, QuadratureSpec(
        rel_tol=tol, abs_tol=1e-18, k_max=20.0)) for tol in (1e-5, 1e-10))
    assert loose.converged and tight.converged
    gap = abs(loose.gamma - tight.gamma)
    assert gap <= 1e-5 * tight.gamma
    assert gap <= loose.error_estimate


def test_rate_below_the_medium_light_cone_is_linear_in_the_damping():
    """Below beta n(0) = 1 no band of real medium modes opens, so as the
    damping goes to 0 the rate comes from the loss alone and is linear in
    it. One Lorentz term with plasma_strength R^2 and resonance R = 50 has
    n(0)^2 = 2 (beta n(0) = 0.71 at beta 0.5) and stays nondispersive across
    the Doppler band; Gamma / damping reads 1.336547e-6 at each damping from
    1e-1 to 1e-4, on the detector, frame and quad of rate_surface.json."""
    ratios = []
    for damping in (1e-1, 1e-2, 1e-3, 1e-4):
        model = SusceptibilityModel(electric_terms=(
            LorentzOscillator(2500.0, 50.0, damping),), label="near lossless")
        r = rate_surface(det(), MotionFrame(beta=0.5), model,
                         QuadratureSpec(rel_tol=1e-5, abs_tol=1e-18, k_max=12.0))
        assert r.converged and r.gamma > 0.0
        ratios.append(r.gamma / damping)
    assert max(ratios) - min(ratios) <= 1e-5 * min(ratios), ratios


def test_ky_split_maps_onto_both_pieces():
    """The graded ky map: t = 0, ky_cut / 2 and ky_cut go to 0, b and ky_cut,
    ky rises with t, jac is dky/dt, each half of t integrates jac to the
    length of its piece, and a member without a branch point keeps ky = t."""
    ky_cut = 25.0
    b = np.array([[0.0], [1e-3], [0.7], [12.5], [3.0]])
    on = np.array([[True], [True], [True], [True], [False]])
    ky, jac = _split_map(np.array([0.0, 0.5 * ky_cut, ky_cut]), b, on, ky_cut)
    assert ky[:4] == pytest.approx(
        np.hstack((np.zeros((4, 1)), b[:4], np.full((4, 1), ky_cut))),
        rel=1e-15, abs=1e-15)
    t = np.linspace(0.0, ky_cut, 4001)[1:-1]
    ky, jac = _split_map(t, b, on, ky_cut)
    assert (np.diff(ky, axis=1) >= 0.0).all()
    assert (np.diff(ky[1:], axis=1) > 0.0).all()   # b = 0 flattens [0, b]
    h = 1e-6
    slope = (_split_map(t + h, b, on, ky_cut)[0]
             - _split_map(t - h, b, on, ky_cut)[0]) / (2.0 * h)
    assert jac == pytest.approx(slope, rel=1e-6, abs=1e-9)
    assert (ky[4] == t).all() and (jac[4] == 1.0).all()
    # Gauss-Legendre on each half: e(a)^2 is smooth, 64 nodes are exact to
    # rounding
    x, w = np.polynomial.legendre.leggauss(64)
    for lo, hi, length in ((0.0, 0.5 * ky_cut, b[:, 0]),
                           (0.5 * ky_cut, ky_cut, ky_cut - b[:, 0])):
        nodes = 0.5 * (lo + hi) + 0.5 * (hi - lo) * x
        total = 0.5 * (hi - lo) * (_split_map(nodes, b, on, ky_cut)[1] @ w)
        assert total[:4] == pytest.approx(length[:4], rel=1e-13, abs=1e-13)


@pytest.mark.parametrize("crossings", [[0.3], [0.1, 0.2, 0.5]],
                         ids=["one-crossing", "three-crossings"])
def test_outer_map_puts_each_crossing_on_a_panel_edge(crossings):
    """The outer map: each crossing sits at the centre of its cell (s =
    1/2 for one, 1/8, 3/8 and 5/8 for three in four cells), s = 0 and 1 go
    to 0 and 1, u rises with s, jac is du/ds, and each half cell integrates
    jac to the length of its piece of u."""
    crossings = np.array(crossings)
    cells = 1 if crossings.size == 1 else 4
    centres = (np.arange(crossings.size) + 0.5) / cells
    u, _ = _outer_map(np.hstack((0.0, centres, 1.0)), crossings)
    assert u == pytest.approx(np.hstack((0.0, crossings, 1.0)), rel=1e-15, abs=1e-15)
    s = np.linspace(0.0, 1.0, 4001)[1:-1]
    u, jac = _outer_map(s, crossings)
    assert (np.diff(u) > 0.0).all()
    h = 1e-7
    inner = np.abs(s * cells - np.round(s * cells)) > 2.0 * h * cells  # not on a cell edge
    slope = (_outer_map(s + h, crossings)[0] - _outer_map(s - h, crossings)[0]) / (2.0 * h)
    assert jac[inner] == pytest.approx(slope[inner], rel=1e-6, abs=1e-5)
    # jac is linear on each half cell: 4-node Gauss-Legendre is exact
    x, w = np.polynomial.legendre.leggauss(4)
    edges = np.linspace(0.0, 1.0, 2 * cells + 1)
    for lo, hi in zip(edges, edges[1:]):
        nodes = 0.5 * (lo + hi) + 0.5 * (hi - lo) * x
        ends = _outer_map(np.array([lo, hi]), crossings)[0]
        total = 0.5 * (hi - lo) * (_outer_map(nodes, crossings)[1] @ w)
        assert total == pytest.approx(ends[1] - ends[0], rel=1e-13, abs=1e-15)


def _delta(model, beta, omega, k):
    """Delta(k) = k^2 - Re(eps mu)(omega_m) omega^2, omega_m = gamma (beta k
    - omega)."""
    frame = MotionFrame(beta=beta)
    cap = frame.gamma * (beta * k - omega)
    n2 = ((1.0 + chi(model, "electric", cap))
          * (1.0 + chi(model, "magnetic", cap))).real
    return k * k - n2 * omega * omega


@pytest.mark.parametrize("model, beta", [(MAGNETIC_RESONANCE, 0.75), (LORENTZ, 0.9)],
                         ids=["magnetic", "lorentz"])
def test_crossing_search_finds_the_medium_light_cone(model, beta):
    """Beyond the medium's light cone Delta < 0 at the threshold and
    changes sign once on the threshold-accuracy domain: the search puts k*
    where a dense grid of Delta changes sign, with Delta(k*) zero to
    rounding."""
    omega, k_max = 0.1, 20.0
    k_lo = omega / beta
    frame = MotionFrame(beta=beta)
    u = _light_cone_crossings(model, frame, omega, k_lo, k_max - k_lo,
                              _k_floor(frame, omega, k_lo))
    assert u.shape == (1,)
    k_star = k_lo + (k_max - k_lo) * u[0] ** 2
    grid = np.linspace(k_lo * (1.0 + 1e-9), k_max, 200001)
    sign = np.signbit(_delta(model, beta, omega, grid))
    change = np.flatnonzero(sign[1:] != sign[:-1])
    assert change.size == 1
    assert grid[change[0]] <= k_star <= grid[change[0] + 1]
    assert abs(_delta(model, beta, omega, k_star)) <= 1e-14 * k_star ** 2
    assert _delta(model, beta, omega, k_star * (1.0 - 1e-12)) < 0.0
    assert _delta(model, beta, omega, k_star * (1.0 + 1e-12)) > 0.0


@pytest.mark.parametrize("model, beta", [(MAGNETIC_RESONANCE, 0.75), (LORENTZ, 0.9)],
                         ids=["magnetic", "lorentz"])
def test_branch_points_are_zeros_of_the_kernels_xi_medium(model, beta):
    """The rate's singular set comes from the greens kernel: each crossing
    k* and each in-band branch point b of _doppler_medium's b^2 is a zero of
    Re xi_m^2(k^2 + b^2), the square of the kernel's own _xi_medium at the
    same eps and mu, to rounding."""
    omega, k_max = 0.1, 20.0
    k_lo = omega / beta
    frame = MotionFrame(beta=beta)
    u = _light_cone_crossings(model, frame, omega, k_lo, k_max - k_lo,
                              _k_floor(frame, omega, k_lo))
    k_star = k_lo + (k_max - k_lo) * u ** 2
    grid = np.linspace(k_lo * (1.0 + 1e-9), k_star[0], 2001)[:-1]
    k = np.concatenate((grid, k_star))
    eps, mu, b2 = _doppler_medium(model, frame, -k, -omega)
    assert (b2[:grid.size] > 0.0).all()     # b opens below the first k*
    b2[grid.size:] = 0.0                    # and closes at each k*
    kpar2 = k * k + b2
    re_xim2 = (_xi_medium(kpar2, eps, mu, omega) ** 2).real
    assert np.all(np.abs(re_xim2) <= 1e-14 * (kpar2 + np.abs(eps * mu) * omega ** 2))


@pytest.mark.parametrize("model, beta, gamma, error", [
    (MAGNETIC_RESONANCE, 0.75, "0x1.cdcf41c2b128dp-8", "0x1.365f55895785ep-29"),
    (LORENTZ, 0.9, "0x1.74d1a6d1e9a2dp-8", "0x1.23cbf3e0c2ed6p-26"),
], ids=["magnetic", "lorentz"])
def test_rate_beyond_the_medium_light_cone_keeps_its_bits(model, beta, gamma, error):
    """Every pinned CSV is below the medium's light cone; these two rates
    (the threshold-accuracy inputs at rel_tol 1e-5) pin the beta n > 1 path:
    the crossing search, the outer break and the graded ky maps."""
    r = rate_surface(det(), MotionFrame(beta=beta), model,
                     QuadratureSpec(rel_tol=1e-5, abs_tol=1e-18, k_max=20.0))
    assert (r.gamma.hex(), r.error_estimate.hex()) == (gamma, error)


def test_no_crossing_keeps_the_plain_outer_map(monkeypatch):
    """Below the medium's light cone there is no crossing: not at any node
    of the finite-time rate spline of the bundled Lorentz model at beta 0.5,
    nor on the beta sweep. Such a call never reaches the outer map."""
    model = load_model("bundled:lorentz_dielectric")
    for beta, omega in [(0.5, w) for w in spline_nodes()] + [
            (0.2, 0.1), (0.4, 0.1), (0.6, 0.1)]:
        k_lo = omega / beta
        frame = MotionFrame(beta=beta)
        assert _light_cone_crossings(model, frame, omega, k_lo, 12.0 - k_lo,
                                     _k_floor(frame, omega, k_lo)).size == 0

    def refuse(s, crossings):
        raise AssertionError("outer map called without a crossing")
    monkeypatch.setattr("vacdrag.rates._outer_map", refuse)
    r = rate_surface(det(), MotionFrame(beta=0.5), model,
                     QuadratureSpec(rel_tol=1e-3, abs_tol=1e-15, k_max=12.0))
    assert r.converged and r.gamma > 0.0


def count_panels(monkeypatch):
    """Spy on quadrature's adaptive loop. Returns the list of [members,
    panels in its first _panel call] of every _adapt, in the order they
    start, and a one-entry list that counts the _panel calls."""
    from vacdrag import quadrature
    adapt, panel = quadrature._adapt, quadrature._panel
    starts, open_ = [], []
    calls = [0]

    def spy_adapt(f, a, b, spec, halved=False):
        open_.append([np.size(a), None])
        starts.append(open_[-1])
        try:
            return adapt(f, a, b, spec, halved)
        finally:
            open_.pop()

    def spy_panel(f, a, b, member=None):
        calls[0] += 1
        if open_ and open_[-1][1] is None:
            open_[-1][1] = a.size
        return panel(f, a, b, member)

    monkeypatch.setattr(quadrature, "_adapt", spy_adapt)
    monkeypatch.setattr(quadrature, "_panel", spy_panel)
    return starts, calls


@pytest.mark.parametrize("model, beta, outer", [(MAGNETIC_RESONANCE, 0.75, 2),
                                                (LORENTZ, 0.5, 1)],
                         ids=["crossing", "no-crossing"])
def test_rate_integrals_start_from_their_first_bisection(monkeypatch, model, beta,
                                                         outer):
    """Every inner ky batch starts from the two halves of each member's
    interval, ky = b for a mapped member; the outer does where s = 1/2 is a
    crossing k*, and otherwise starts from its whole interval."""
    starts, _ = count_panels(monkeypatch)
    r = rate_surface(det(), MotionFrame(beta=beta), model,
                     QuadratureSpec(rel_tol=1e-5, abs_tol=1e-18, k_max=20.0))
    assert r.converged
    (members, first), *inner = starts
    assert (members, first) == (1, outer)
    assert inner and all(panels == 2 * members for members, panels in inner)


def test_rate_surface_scenario_panel_count(monkeypatch, scenarios_dir):
    """scenarios/rate_surface.json takes 48 _panel calls (55 when every ky
    integral evaluated its whole interval first) for the same bits."""
    from vacdrag import cli
    doc = json.loads((scenarios_dir / "rate_surface.json").read_text())
    _, calls = count_panels(monkeypatch)
    row, = cli.run_scenario(cli.scenario_from_dict(doc))["outputs"]["rows"]
    assert calls == [48]
    assert (row["gamma"].hex(), row["error_estimate"].hex()) == \
        ("0x1.e83a7556b625ep-9", "0x1.0d372e7c15238p-25")


@pytest.mark.parametrize("z0", [0.2, 1.0])
@pytest.mark.parametrize("name", ["lorentz_dielectric", "drude_metal"])
def test_surface_rate_approaches_the_near_field_limit(name, z0):
    """Gamma / Gamma_NR - 1, with Gamma_NR the closed-form nonretarded rate
    of reference.rate_nonretarded, is the retardation correction, O(omega^2)
    at fixed z0: it falls by 3.5 to 4.2 times per halving of omega. The
    factors measured on this grid at beta 0.5 run from 3.66 (Drude, z0 1,
    omega 0.05 -> 0.025) to 3.95, approaching 4."""
    model = load_model(f"bundled:{name}")
    terms = tuple((t.plasma_strength, t.resonance, t.damping)
                  for t in model.electric_terms)
    gaps = []
    for omega in (0.05, 0.025, 0.0125):
        k_max = omega / 0.5 + 40.0 / z0
        r = rate_surface(det(omega=omega, z0=z0), MotionFrame(beta=0.5), model,
                         QuadratureSpec(rel_tol=1e-10, abs_tol=1e-300, k_max=k_max))
        assert r.converged
        near = reference.rate_nonretarded(terms, 0.5, KAPPA, omega, z0, k_max)
        gaps.append(abs(r.gamma / near - 1.0))
    for wide, narrow in zip(gaps, gaps[1:]):
        assert 3.5 * narrow <= wide <= 4.2 * narrow, gaps
    assert gaps[-1] < 1e-3


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
    # the named k is one of the 15 Kronrod nodes of the first outer panel,
    # s in [0, 1], mapped to k = k_lo + (k_max - k_lo) s^2
    k = float(match.group(2))
    k_lo = 0.1 / 0.5
    s = 0.5 + 0.5 * np.array(
        [-0.9914553711208126, -0.9491079123427585, -0.8648644233597691,
         -0.7415311855993944, -0.5860872354676911, -0.4058451513773972,
         -0.2077849550078985, 0.0, 0.2077849550078985, 0.4058451513773972,
         0.5860872354676911, 0.7415311855993944, 0.8648644233597691,
         0.9491079123427585, 0.9914553711208126])
    nodes = k_lo + (20.0 - k_lo) * s * s
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


def test_distance_ladder_decay_envelope():
    """rate_surface falls with the height at least as fast as the decay
    e^(-2 xi z0) of its slowest mode, xi at the threshold k = omega / beta."""
    frame = MotionFrame(beta=0.5)
    ladder = [0.5, 1.0, 2.0, 4.0, 8.0, 16.0]
    gammas = [rate_surface(det(z0=z), frame, LORENTZ, QUAD).gamma for z in ladder]
    omega = 0.1
    xi_min = math.sqrt((omega / 0.5) ** 2 - omega ** 2)
    for (z_a, g_a), (z_b, g_b) in zip(zip(ladder, gammas), zip(ladder[1:], gammas[1:])):
        assert g_b < g_a
        assert g_b <= math.exp(-2.0 * xi_min * (z_b - z_a)) * g_a


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


def test_rate_spline_is_the_chebyshev_interpolant_of_the_rate(monkeypatch):
    """The build makes one rate_surface call per Chebyshev point, in
    ascending gap order, and its series matches a smooth stand-in rate,
    omega^2 e^(-20 omega), to round-off off the nodes (3.5e-14 of its
    maximum, where a uniform 65-node cubic spline misses by 1.8e-6)."""
    from vacdrag import rates

    gaps = []

    def fake(det, frame, model, quad):
        w = det.omega
        gaps.append(w)
        return RateResult(gamma=w * w * math.exp(-20.0 * w), error_estimate=0.0,
                          converged=True, k_lower=w / frame.beta, k_max=quad.k_max,
                          breakdown={"s": 0.0, "p": w * w * math.exp(-20.0 * w)})
    monkeypatch.setattr(rates, "rate_surface", fake)
    rates._rate_spline.cache_clear()
    spline = rates._rate_spline(LORENTZ, MotionFrame(beta=0.5), det(), FT_QUAD).spline
    rates._rate_spline.cache_clear()
    assert len(gaps) == 65 and np.all(np.diff(gaps) > 0.0)
    assert gaps == pytest.approx(spline_nodes(), rel=1e-14)
    z = np.linspace(0.02, 0.18, 2001)
    ref = z * z * np.exp(-20.0 * z)
    assert np.max(np.abs(spline(z) - ref)) <= 1e-13 * np.max(ref)


def unconverged_above(monkeypatch, gap):
    """rate_surface as a stand-in that flags every gap frequency above `gap`
    unconverged: a smooth positive rate otherwise."""
    from vacdrag import rates

    def fake(det, frame, model, quad):
        return RateResult(gamma=det.omega ** 3, error_estimate=1e-9 * det.omega,
                          converged=det.omega <= gap, k_lower=det.omega / frame.beta,
                          k_max=quad.k_max, breakdown={"s": 0.0, "p": det.omega ** 3})
    monkeypatch.setattr(rates, "rate_surface", fake)
    rates._rate_spline.cache_clear()


def test_rate_spline_raises_on_an_unconverged_node(monkeypatch):
    from vacdrag.rates import _rate_spline

    unconverged_above(monkeypatch, 0.151)
    grid = spline_nodes()
    first_bad = grid[grid > 0.151][0]
    with pytest.raises(NonConvergenceError,
                       match=f"gap frequency {first_bad:.6g} did not converge"):
        finite_time_probability(det(), MotionFrame(beta=0.5), LORENTZ, FT_QUAD, 50.0)
    assert _rate_spline.cache_info().currsize == 0
    unconverged_above(monkeypatch, 1.0)
    assert finite_time_probability(det(), MotionFrame(beta=0.5), LORENTZ,
                                   FT_QUAD, 50.0) > 0.0
    _rate_spline.cache_clear()


def test_finite_time_requires_positive_time():
    with pytest.raises(ValueError):
        finite_time_probability(det(), MotionFrame(beta=0.5), LORENTZ, FT_QUAD, 0.0)


def test_convolution_panels_are_capped():
    # 16 kernel cycles per panel, 0.8 omega T / pi cycles in the window
    t_max = 16 * MAX_CONVOLUTION_PANELS * math.pi / (0.8 * 0.1)
    assert convolution_panels(t_max, 0.1) == MAX_CONVOLUTION_PANELS
    assert convolution_panels(t_max / 2 ** 14, 0.1) == 1
    assert convolution_panels(math.nextafter(t_max / 2 ** 14, math.inf), 0.1) == 2
    for T in (math.nextafter(t_max, math.inf), math.inf):
        with pytest.raises(ValueError, match=re.escape(
                "T must be <= 1.02944e+07 at omega = 0.1: the finite-time "
                "convolution takes at most 16384 panels")):
            convolution_panels(T, 0.1)
    with pytest.raises(ValueError, match="T must be > 0"):
        convolution_panels(math.nan, 0.1)
    times = (0.5, 50.0, 400.0, 1146.7, 1600.0, 6400.0, 12800.0)
    assert [convolution_panels(T, 0.1) for T in times] == [1, 1, 1, 2, 4, 16, 32]


@pytest.mark.parametrize("T", [math.inf, 2.1e7])
def test_finite_time_rejects_T_beyond_the_cap_before_any_array(monkeypatch, T):
    from vacdrag import rates

    class NoNumpy:
        def __getattr__(self, name):
            raise AssertionError(f"numpy.{name} used")

    def no_spline(*args):
        raise AssertionError("rate spline built")
    monkeypatch.setattr(rates, "np", NoNumpy())
    monkeypatch.setattr(rates, "_rate_spline", no_spline)
    with pytest.raises(ValueError, match="T must be <= 1.02944e"):
        finite_time_probability(det(), MotionFrame(beta=0.5), LORENTZ, FT_QUAD, T)
    # before the rate checks too, as validate orders them
    with pytest.raises(ValueError, match="T must be <= 1.02944e"):
        finite_time_probability(det(), MotionFrame(beta=0.0), VACUUM, FT_QUAD, T)


# 600 2^k has 15.3 2^k kernel cycles at omega = 0.1: 2^k panels
PANEL_LADDER = (0.5, 50.0, 600.0, 1200.0, 2400.0, 4800.0, 9600.0)


def test_cache_hits_return_the_first_calls_bits(monkeypatch):
    """Every P(T) on a cached spline, at P = 1 to 16, has the bits of the
    first call, and so it has after plans for every larger P were built."""
    from vacdrag.rates import _rate_spline

    unconverged_above(monkeypatch, 1.0)
    frame = MotionFrame(beta=0.5)

    def ladder():
        return [finite_time_probability(det(), frame, LORENTZ, FT_QUAD, T)
                for T in PANEL_LADDER]
    first = ladder()
    spline = _rate_spline(LORENTZ, frame, det(), FT_QUAD)
    assert sorted(spline.plans) == [1, 2, 4, 8, 16]
    assert all(p > 0.0 for p in first)
    assert [p.hex() for p in ladder()] == [p.hex() for p in first]
    for k in range(5, 15):
        finite_time_probability(det(), frame, LORENTZ, FT_QUAD, 600.0 * 2 ** k)
    assert sorted(spline.plans) == [2 ** k for k in range(15)]
    assert [p.hex() for p in ladder()] == [p.hex() for p in first]
    _rate_spline.cache_clear()


def no_rate_computed(monkeypatch):
    """rate_surface as a stand-in that fails the test when called."""
    from vacdrag import rates

    def no_rate(*args):
        raise AssertionError("rate computed")
    monkeypatch.setattr(rates, "rate_surface", no_rate)
    rates._rate_spline.cache_clear()


@pytest.mark.parametrize("detector, quad, message", [
    (det(z0=None), FT_QUAD, "z0 is required"),
    (det(), QuadratureSpec(k_max=0.3), r"1\.8 omega / \|beta\|"),
])
def test_rejected_rate_inputs_raise_on_every_call(monkeypatch, detector, quad,
                                                  message):
    """An input check_rate_inputs rejects is never cached: a repeated call
    raises the first call's message, and no rate is computed."""
    from vacdrag import rates

    no_rate_computed(monkeypatch)
    raised = []
    for _ in range(2):
        with pytest.raises(ValueError, match=message) as exc:
            finite_time_probability(detector, MotionFrame(beta=0.5), LORENTZ,
                                    quad, 50.0)
        raised.append(str(exc.value))
    assert raised[0] == raised[1]
    assert rates._rate_spline.cache_info().currsize == 0


@pytest.mark.parametrize("beta, model", [(0.0, LORENTZ), (0.5, VACUUM)])
def test_exact_zero_on_every_call(monkeypatch, beta, model):
    """beta = 0 and a model with no terms give 0.0, first from the check and
    then from the cache, with no rate computed."""
    from vacdrag import rates

    no_rate_computed(monkeypatch)
    for T in (50.0, 50.0, 2400.0):
        assert finite_time_probability(det(), MotionFrame(beta=beta), model,
                                       FT_QUAD, T) == 0.0
    assert rates._rate_spline.cache_info()[:2] == (2, 1)    # hits, misses
    rates._rate_spline.cache_clear()


def test_cache_clear_forces_exactly_one_rebuild(monkeypatch):
    """After _rate_spline.cache_clear(), the first P(T) rebuilds the spline
    (65 more rate calls) and every later one reuses it, with the bits of
    the first build."""
    from vacdrag import rates

    calls = []
    unconverged_above(monkeypatch, 1.0)
    fake = rates.rate_surface

    def counted(*args):
        calls.append(args)
        return fake(*args)
    monkeypatch.setattr(rates, "rate_surface", counted)
    frame = MotionFrame(beta=0.5)
    first = [finite_time_probability(det(), frame, LORENTZ, FT_QUAD, T)
             for T in PANEL_LADDER]
    assert len(calls) == 65
    rates._rate_spline.cache_clear()
    again = [finite_time_probability(det(), frame, LORENTZ, FT_QUAD, T)
             for T in PANEL_LADDER * 2]
    assert len(calls) == 130
    assert again == first * 2
    rates._rate_spline.cache_clear()


# ---------------------------------------------------------------------------
# finite-time convolution plans
# ---------------------------------------------------------------------------

def synthetic_rate_spline(omega=0.1):
    """A _RateSpline over a smooth positive stand-in for the rate, so the
    plans can be checked without a rate build."""
    from vacdrag.rates import _RateSpline

    return _RateSpline(omega, np.polynomial.Chebyshev.interpolate(
        lambda w: 4e-3 * np.exp(-5.0 * w) * (1.0 + 0.3 * np.sin(40.0 * w)), 64,
        domain=[0.2 * omega, 1.8 * omega]))


def probability(rs, T):
    """P(T) on a _RateSpline, by the rule finite_time_probability takes."""
    return rs.probability(T, convolution_panels(T, rs.omega))


def dense_simpson(rs, times, n=2 ** 18 + 1):
    """The sinc-kernel convolution at each T by the composite Simpson rule
    on n nodes of the window, the spline evaluated at every node."""
    u, du = np.linspace(-rs.half_width, rs.half_width, n, retstep=True)
    weights = np.full(n, 2.0)
    weights[1::2] = 4.0
    weights[0] = weights[-1] = 1.0
    rate = du / 3.0 * weights * rs.spline(rs.omega - u) / (2.0 * math.pi)
    return [rate @ (T * T * np.sinc(u * T / (2.0 * math.pi)) ** 2) for T in times]


def test_convolution_plan_matches_dense_simpson_rule():
    # 1146.7 has 29.2 kernel cycles: two panels of 14.6, or one of 29.2
    rs = synthetic_rate_spline()
    times = (0.5, 50.0, 400.0, 1146.7, 1600.0, 6400.0, 12800.0)
    for T, reference_p in zip(times, dense_simpson(rs, times)):
        assert probability(rs, T) == pytest.approx(reference_p, rel=1e-13)


def test_convolution_plan_pairs_the_nodes():
    # one entry per pair +-u_j, the upper half of the 64-node Gauss-Legendre
    # rule on each panel of [-w, w], its coefficient from Gamma(omega -+ u_j)
    x, weights = np.polynomial.legendre.leggauss(64)
    rs = synthetic_rate_spline()
    for panels in (1, 2, 16):
        rs.probability(1.0, panels)
        half_u, coef = rs.plans[panels]
        assert half_u.shape == coef.shape == (32 * panels,)
        h = 2.0 * rs.half_width / panels
        grid = (-rs.half_width + h * (np.arange(panels)[:, None] + 0.5 * (1.0 + x))).ravel()
        u = grid[32 * panels:]
        assert np.allclose(2.0 * half_u, u, rtol=1e-14, atol=1e-15 * rs.half_width)
        assert np.allclose(-grid[:32 * panels][::-1], u, rtol=1e-14,
                           atol=1e-15 * rs.half_width)
        pair = rs.spline(rs.omega - u) + rs.spline(rs.omega + u)
        assert np.allclose(coef, 0.5 * h * np.tile(weights, panels)[32 * panels:]
                           * pair / (2.0 * math.pi) * 4.0 / (u * u), rtol=1e-12)


def test_convolution_plan_reused_without_spline_evaluation():
    rs = synthetic_rate_spline()
    calls = []
    spline = rs.spline

    def spy(z):
        calls.append(z.size)
        return spline(z)
    rs.spline = spy
    first = probability(rs, 10.0)
    assert calls == [64]
    # same panel count, different T: the plan is reused
    assert convolution_panels(20.0, rs.omega) == convolution_panels(10.0, rs.omega) == 1
    probability(rs, 20.0)
    assert probability(rs, 10.0) == first
    assert calls == [64]


def test_one_plan_per_panel_count_all_kept():
    """A spline queried at every panel count P = 2^0 ... 2^14 that
    specs.convolution_panels allows holds one plan per distinct P, 15 at
    most, and a re-query at any of them returns its first bits."""
    rs = synthetic_rate_spline()
    # 15.3 2^k kernel cycles: 2^k panels, the last at the cap
    times = [600.0 * 2 ** k for k in range(15)]
    assert convolution_panels(times[-1], rs.omega) == MAX_CONVOLUTION_PANELS
    first = [probability(rs, T) for T in times]
    assert list(rs.plans) == [2 ** k for k in range(15)]
    again = [probability(rs, T) for T in times[::-1]][::-1]
    assert [p.hex() for p in again] == [p.hex() for p in first]
    assert len(rs.plans) == 15


def golden_rule_workload(seed):
    """perfbench's golden-rule workload at this seed."""
    import importlib.util
    from pathlib import Path

    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", root / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.GoldenRule(seed, root)


def test_golden_rule_ladders_keep_every_plan():
    for seed in range(1, 21):
        workload = golden_rule_workload(seed)
        rs = synthetic_rate_spline(workload.det.omega)
        panels = set()
        for T in workload.ladder:
            panels.add(convolution_panels(T, rs.omega))
            probability(rs, T)
        assert len(panels) <= 5
        assert set(rs.plans) == panels


def test_rate_spline_cache_clear_drops_plans():
    from vacdrag.rates import _rate_spline

    quad = QuadratureSpec(rel_tol=0.1, abs_tol=1e-12, k_max=1.0)
    frame = MotionFrame(beta=0.5)
    p = finite_time_probability(det(), frame, LORENTZ, quad, 50.0)
    cached = _rate_spline(LORENTZ, frame, det(), quad)
    assert list(cached.plans) == [1]
    _rate_spline.cache_clear()
    rebuilt = _rate_spline(LORENTZ, frame, det(), quad)
    assert rebuilt is not cached and rebuilt.plans == {}
    assert finite_time_probability(det(), frame, LORENTZ, quad, 50.0) == p
