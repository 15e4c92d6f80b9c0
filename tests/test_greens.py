"""Dyadic Green functions: free space, half-space reflection, identity checks."""

import math
import re

import numpy as np
import pytest
from scipy.integrate import quad

import reference
from vacdrag.greens import (
    SurfaceGeometry,
    _reflected_green,
    _xi_medium,
    green_dissipation_identity,
    im_free_green_coincident,
    reciprocity_check,
    reflection_coefficients,
    surface_green_coincident,
)
from vacdrag import kinematics, quadrature
from vacdrag.kinematics import MotionFrame
from vacdrag.medium import (LorentzOscillator, SusceptibilityModel, chi,
                            kk_reconstruct, verify_identity_1)
from vacdrag.quadrature import NonConvergenceError, QuadratureSpec
from vacdrag.specs import SCALE

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


def retarded_xi(kpar2, omega):
    """The vacuum decay constant in closed form: sqrt(kpar^2 - omega^2),
    real and positive in the evanescent sector, and -i sign(omega)
    sqrt(omega^2 - kpar^2) in the propagating sector."""
    rad = kpar2 - omega * omega
    if rad >= 0.0:
        return complex(math.sqrt(rad), 0.0)
    return complex(0.0, -math.copysign(math.sqrt(-rad), omega))


def test_vacuum_branch_is_the_lossless_xi_medium():
    """_xi_medium at eps = mu = 1 is the retarded vacuum branch bit for bit,
    for a number and an array: kpar^2 on both sides of omega^2 and at it,
    for either sign of omega."""
    def bits(z):
        return [(c.real.hex(), c.imag.hex()) for c in map(complex, np.ravel(z))]

    for omega in (0.7, -0.7, 1.0, -3.5, 1e-3):
        kpar2 = np.array([0.0, 0.25 * omega * omega, math.nextafter(omega * omega, 0.0),
                          omega * omega, math.nextafter(omega * omega, math.inf),
                          4.0 * omega * omega, 1e6])
        expected = [retarded_xi(float(k), omega) for k in kpar2]
        got = _xi_medium(kpar2, 1.0, 1.0, omega)
        assert got.shape == kpar2.shape
        assert bits(got) == bits(expected)
        for k, z in zip(kpar2, expected):
            assert bits(_xi_medium(float(k), 1.0, 1.0, omega)) == bits(z)
        assert _xi_medium(omega * omega, 1.0, 1.0, omega) == 0.0


@pytest.mark.parametrize("kx, omega, start", [(0.3, 1.0, "10"), (0.0, 20.0, "80")])
def test_reflected_green_growing_tail_names_where_it_starts(kx, omega, start):
    """At zsum = 0 nothing damps the dyad, and its p entry grows like ky:
    the tail probe finds x^2 |f| growing and the Green function stops
    before any quadrature, naming the request and the tail's start s
    (_TAIL_SWITCH, or beyond twice the light circle's radius)."""
    with pytest.raises(NonConvergenceError,
                       match=re.escape(f"reflected Green tail grows at kx = {kx:.6g}, "
                                       f"beta = 0.4, ky > {start}")) as exc:
        _reflected_green(LORENTZ, [(MotionFrame(beta=0.4), kx, omega, 0.0, 0.0)],
                         QuadratureSpec(k_max=None))
    assert exc.value.residual == math.inf


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


def semi_infinite_matches_dense_grid(model, frame, kx, omega, z0, n, order):
    """_reflected_green with k_max=None at coincident points against the
    dense grid cut at ky = 40, where exp(-2 xi z0) < 1e-20; Richardson in the
    step cancels the grid's O(h^order) bias."""
    from vacdrag import greens
    ((got, _),) = greens._reflected_green(
        model, [(frame, kx, omega, 0.0, 2.0 * z0)], QuadratureSpec(k_max=None))
    om_minus = frame.gamma * (omega - frame.beta * kx)
    eps = 1.0 + chi(model, "electric", om_minus)
    mu = 1.0 + chi(model, "magnetic", om_minus)
    ref_h = reference.reflected_green_dense(eps, mu, kx, omega, z0, 40.0, n=n)
    ref_h2 = reference.reflected_green_dense(eps, mu, kx, omega, z0, 40.0,
                                             n=2 * n - 1 if order == 1 else 2 * n)
    ref = (2 ** order * ref_h2 - ref_h) / (2 ** order - 1)
    assert np.max(np.abs(got - ref)) <= 1e-7 * np.max(np.abs(ref))


def test_semi_infinite_green_inside_light_circle_matches_dense_grid():
    # plain, inside, outside, head and 1/u tail segments; moving, mu != 1
    semi_infinite_matches_dense_grid(MAGNETIC_RESONANCE, MotionFrame(beta=0.5),
                                     -0.4, 1.0, 0.7, 5_000, 2)


def test_semi_infinite_green_outside_light_circle_matches_dense_grid():
    # head [0, _TAIL_SWITCH] and the 1/u tail only
    semi_infinite_matches_dense_grid(LORENTZ, REST, 1.3, 0.9, 0.7, 50_001, 1)


def test_reflected_green_starved_budget_names_request_segment_and_ky():
    starved = QuadratureSpec(max_subdivisions=1)
    with pytest.raises(NonConvergenceError) as err:
        reciprocity_check(LORENTZ, MotionFrame(beta=0.5), 0.3, 1.0, POINT_A,
                          POINT_B, starved)
    kc = math.sqrt(1.0 - 0.3 ** 2)
    # the segment's own ky range, not the mapped t in [0, 1]
    ranges = {"plain": [(0.0, 0.5 * kc), (2.0 * kc, 10.0)],
              "inside": [(0.5 * kc, kc)], "outside": [(kc, 2.0 * kc)],
              "tail": [(10.0, math.inf)]}
    found = re.fullmatch(r"reflected Green entry \([0-2],[0-2]\) did not converge "
                         r"at kx = (-?0\.3), beta = (-?0\.5), (\w+) segment, "
                         r"ky in \[(\S+), (\S+)\]", str(err.value))
    assert found, str(err.value)
    ky_range = (float(found[4]), float(found[5]))
    assert any(ky_range == pytest.approx(r, abs=1e-5) for r in ranges[found[3]])


def test_reflected_green_non_finite_value_names_request_segment_and_ky(monkeypatch):
    from vacdrag import greens
    original = greens._fresnel_amplitudes

    def nan_at_xi_25_to_30(eps, mu, xi, xim):
        rs, rp = original(eps, mu, xi, xim)
        return np.where((xi.real > 25.0) & (xi.real < 30.0), np.nan, rs), rp
    monkeypatch.setattr(greens, "_fresnel_amplitudes", nan_at_xi_25_to_30)
    with pytest.raises(ValueError) as err:
        greens._reflected_green(LORENTZ, [(MotionFrame(beta=0.5), 2.0, 1.0, 0.0,
                                           2.0)], QuadratureSpec())
    found = re.fullmatch(r"reflected Green entry \(([0-2]),([0-2])\) is not finite "
                         r"at kx = 2, beta = 0\.5, tail segment, ky = (\S+)",
                         str(err.value))
    assert found, str(err.value)
    # r_s enters the upper-left 2x2 block only, at a ky where 25 < xi < 30
    assert int(found[1]) < 2 and int(found[2]) < 2
    assert 25.0 ** 2 < float(found[3]) ** 2 + 2.0 ** 2 - 1.0 < 30.0 ** 2


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


def test_dissipation_identity_keeps_nan(monkeypatch):
    """A susceptibility that comes out NaN gives a NaN residual and relative
    residual, not a perfect 0."""
    monkeypatch.setattr(kinematics, "chi", lambda model, kind, omega: complex(math.nan))
    with np.errstate(all="ignore"):
        rep = green_dissipation_identity(LORENTZ, MotionFrame(beta=0.3), 0.8,
                                         np.array([0.3, 0.5]), 1.1, QUAD)
    assert math.isnan(rep.residual) and math.isnan(rep.relative_residual)


@pytest.mark.parametrize("point", [(0.8, 1e200, 0.5, 1.1), (0.8, 0.3, 0.5, 1e155),
                                   (math.nextafter(SCALE, math.inf), 0.3, 0.5, 1.1),
                                   (0.8, 0.3, 0.5, math.nextafter(1.0 / SCALE, 0.0))])
def test_dissipation_identity_rejects_overflowing_k_points(point):
    kx, ky, kz, omega = point
    with pytest.raises(ValueError, match="must be finite, of magnitude 0 or within"):
        green_dissipation_identity(LORENTZ, MotionFrame(beta=0.3), kx,
                                   np.array([ky, kz]), omega, QUAD)


def test_dissipation_identity_is_finite_at_the_bound():
    """Every component at +-SCALE and +-1/SCALE, the others of order one,
    gives finite residuals, with lhs and rhs not both zero, for both bundled
    models up to beta = 1 - 1e-12 (numpy warnings are errors)."""
    for model in (LORENTZ, DRUDE):
        for beta in (0.0, 0.3, -0.8, 0.999999, 1.0 - 1e-12):
            for i in range(4):
                for end in (SCALE, -SCALE, 1.0 / SCALE, -1.0 / SCALE):
                    kx, ky, kz, omega = (end if j == i else c
                                         for j, c in enumerate((0.8, 0.3, 0.5, 1.1)))
                    rep = green_dissipation_identity(model, MotionFrame(beta=beta),
                                                     kx, (ky, kz), omega)
                    case = (model.label, beta, i, end)
                    assert math.isfinite(rep.residual), case
                    assert math.isfinite(rep.relative_residual), case
                    assert np.any(np.asarray(rep.lhs)) or np.any(np.asarray(rep.rhs)), case


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


def test_reciprocity_batch_equals_three_lone_green_functions():
    # each Green function of the check is a set of members of one batch; a
    # member makes the bisections, and so gives the bits, it makes alone
    from vacdrag import greens
    frame = MotionFrame(beta=0.5)
    for kx, k_max in ((0.3, 40.0), (0.3, None), (2.0, None)):
        quad = QuadratureSpec(rel_tol=1e-6, k_max=k_max)
        requests = [(frame, kx, 1.0, 0.4, 1.9),
                    (MotionFrame(beta=-0.5), -kx, 1.0, -0.4, 1.9),
                    (frame, -kx, 1.0, -0.4, 1.9)]
        batch = greens._reflected_green(MAGNETIC, requests, quad)
        for request, (value, err) in zip(requests, batch):
            ((alone, err_alone),) = greens._reflected_green(MAGNETIC, [request],
                                                            quad)
            assert np.array_equal(value, alone)
            assert err == err_alone


def test_reflected_green_evaluates_chi_once_per_call(monkeypatch):
    """chi once per kind and request: electric only for a model with no
    magnetic terms, whose mu is the scalar 1."""
    from vacdrag import greens

    calls = []

    def counting_chi(*args):
        calls.append(args[1])
        return chi(*args)
    monkeypatch.setattr(greens, "chi", counting_chi)
    quad = QuadratureSpec(rel_tol=1e-6, abs_tol=1e-14, k_max=20.0)
    frame = MotionFrame(beta=0.5)
    for model, kinds in ((LORENTZ, ["electric"]), (MAGNETIC, ["electric", "magnetic"])):
        for kx in (0.3, 2.0):     # inside and outside the light circle
            calls.clear()
            greens._reflected_green(model, [(frame, kx, 1.0, 0.0, 2.0)], quad)
            assert sorted(calls) == kinds
        # a reciprocity check: one batch of three Green functions, chi once
        # per kind for each
        for kx in (0.3, 2.0):
            calls.clear()
            reciprocity_check(model, frame, kx, 1.0, POINT_A, POINT_B, quad)
            assert sorted(calls) == sorted(kinds * 3)


# ---------------------------------------------------------------------------
# the start of every batch the package builds
# ---------------------------------------------------------------------------

def test_green_and_dispersion_batches_start_from_their_halves(monkeypatch):
    """The first _panel call of each check's lockstep batch evaluates the
    two halves of every member's interval, one panel for a member at the
    width floor: the reflected Green's ky segments (a reciprocity check's
    three Green functions, a surface Green function) and the dispersion
    pieces (a kk reconstruction, an identity's principal values and tail)."""
    adapt, panel = quadrature._adapt, quadrature._panel
    starts = []

    def spy_adapt(f, a, b, spec, halved=False):
        ends = np.atleast_1d(a), np.atleast_1d(b)
        starts.append([np.where(quadrature._at_floor(*ends), 1, 2).sum(), None])
        return adapt(f, a, b, spec, halved)

    def spy_panel(f, a, b, member=None):
        if starts[-1][1] is None:
            starts[-1][1] = a.size
        return panel(f, a, b, member)

    monkeypatch.setattr(quadrature, "_adapt", spy_adapt)
    monkeypatch.setattr(quadrature, "_panel", spy_panel)
    frame = MotionFrame(beta=0.5)
    reciprocity_check(LORENTZ, frame, 0.3, 1.0, POINT_A, POINT_B, QUAD)
    surface_green_coincident(LORENTZ, REST, SurfaceGeometry(z0=0.7), 0.4, 1.0,
                             QUAD_SURF)
    kk_reconstruct(LORENTZ, "electric", 0.5, QUAD)
    verify_identity_1(LORENTZ, 0.7, 1.3, QUAD)
    assert len(starts) == 4
    for expected, first in starts:
        assert first == expected
