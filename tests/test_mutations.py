"""The mutation table: each row is a deliberate physics fault and a check of
the suite that must catch it.

A row first runs its oracle (a test of this suite) on the real code, where it
must pass, then applies the mutant with monkeypatch to every binding of its
target in the loaded modules, and runs the oracle again, where it must fail.
Every binding means what an edit of the source would reach: `rates` imports
the reflection kernel's two stages, `_doppler_medium` and `_reflection`, by
name from `greens`, `greens` imports `doppler` and
`moving_susceptibility_tensors` from `kinematics`, `greens` and `medium`
import the tail probe `_tail_start` from `quadrature`, `rates` and `cli`
import the panel rule `convolution_panels` from `specs`, and test modules
import what they check. A row whose oracle passes under its mutant is a
fault the suite cannot see, and fails here. A mutant is a wrapper around the
original function, a changed copy of a module constant (`_WEIGHTS`) or,
where the fault sits inside a longer function (`rate_surface`, the damping
of `lorentz_chi`, the verdict of `_tail_start`, the cached `_rate_spline`,
the panel count of `convolution_panels`, the key document of
`cli._cache_key`, the unknown-key check of `cli.scenario_from_dict` and its
key set, the rel_tol floor of `QuadratureSpec.__post_init__`, the
finiteness check and the range call of `LorentzOscillator.__post_init__`,
the halved start's badness scale in `quadrature._adapt`, the unknown-key
check of `model_from_dict`, the window rule of `check_kk_frequency`, the
fold, the tail Jacobian, the start and the band cut of `medium._dispersion`,
the range call of `check_dissipation`, the range of `check_scale`, the
range calls of `DetectorSpec.__post_init__` and the kz fold and the decay
of the rate density `_density`), an edit of its source compiled again in its
module. A dotted name (`_RateSpline._plan`) is a method, bound only
on its class, and a subscripted name (`_KINDS[dissipation-check]`) an entry
of a module's table. An oracle may be a parametrized test bound to one of
its rows: the fixtures it still names are the mutation test's own.
"""

import dataclasses
import functools
import importlib
import inspect
import sys
import textwrap

import numpy as np
import pytest

import test_cli
import test_greens
import test_kinematics
import test_medium
import test_quadrature
import test_rates
from vacdrag import cli, greens
from vacdrag.specs import MotionFrame, NonConvergenceError
from vacdrag.tensors import ComplexTensor3


def rs_without_mu(original):
    """The s channel loses mu: r_s = (xi - xi_m) / (xi + xi_m)."""
    def mutant(eps, mu, xi, xim):
        _, rp = original(eps, mu, xi, xim)
        return (xi - xim) / (xi + xim), rp
    return mutant


def doppler_swapped(original):
    """The Doppler shift changes sign: gamma (omega + beta kx) comes back,
    the other branch, in place of gamma (omega - beta kx)."""
    def mutant(frame, omega, kx):
        return original(MotionFrame(beta=-frame.beta), omega, kx)
    return mutant


def chi_eb_sign_flipped(original):
    """chi_eb (and with it chi_be = -chi_eb) changes sign."""
    def mutant(model, frame, omega_lab, kx):
        ee, bb, eb, be = original(model, frame, omega_lab, kx)
        return (ee, bb, ComplexTensor3(-np.asarray(eb)),
                ComplexTensor3(-np.asarray(be)))
    return mutant


def damping_sign_flipped(original):
    """-i gamma w becomes +i gamma w in the Lorentz sum: on the real axis
    that is the complex conjugate, an absorber turned into a gain medium."""
    def mutant(terms, w):
        return np.conj(original(terms, w))
    return mutant


def inside_jacobian_dropped(original):
    """The inside light-circle substitution loses its Jacobian q/ky."""
    def mutant(kind, x, kc2):
        ky, jac = original(kind, x, kc2)
        return ky, np.where(kind == greens.INSIDE, 1.0, jac)
    return mutant


def tail_jacobian_dropped(original):
    """The 1/u tail of a semi-infinite ky segment loses its Jacobian 1/u^2."""
    def mutant(kind, x, kc2):
        ky, jac = original(kind, x, kc2)
        return ky, np.where(kind == greens.TAIL, 1.0, jac)
    return mutant


def odd_entries_with_cos(original):
    """The dyad entries odd in ky fold with 2 cos(ky dy), as the even ones
    do, instead of 2i sin(ky dy). A shift of dy by pi / (2 ky) turns the
    original's sin into cos."""
    def mutant(eps, mu, kx, omega, ky, xi, dy, zsum):
        out = original(eps, mu, kx, omega, ky, xi, dy, zsum)
        shifted = original(eps, mu, kx, omega, ky, xi, dy + 0.5 * np.pi / ky, zsum)
        for i, j in ((0, 1), (1, 0), (1, 2), (2, 1)):
            out[i, j] = -1j * shifted[i, j]
        return out
    return mutant


def gauss_column_kronrod(original):
    """The panel weight matrix's Gauss column holds the Kronrod weights, so
    G7 = K15 and every panel's error estimate falls to its round-off floor:
    the first panel passes as converged."""
    return np.stack((original[:, 0], original[:, 0]), axis=1)


def predicate_dropped(original):
    """A CLI kind's entry keeps its fields, rows and computation but loses
    its row predicate, so validate no longer applies the input check that
    run applies."""
    return dataclasses.replace(original, check=None)


def kx_axis_checked_at_ends(original):
    """The sweep's kx axis is validated like a rate axis, at the two ends of
    a log axis only, so a light-cone row between them passes validate."""
    kx = dataclasses.replace(original.axes["kx"], log_ends=True)
    return dataclasses.replace(original, axes=dict(original.axes, kx=kx))


def kk_quad_takes_k_max(original):
    """kk-check's quad rule is the truncated integrals' one, so a k_max that
    its untruncated integrals never read passes validate."""
    axis = original.axes["omega"]
    fields = tuple(("quad", cli._quad) if name == "quad" else (name, rule)
                   for name, rule in axis.fields)
    return dataclasses.replace(
        original, axes={"omega": dataclasses.replace(axis, fields=fields)})


# The top-level keys of every kind and sweep axis together, as one key set
# for all kinds would accept them.
EVERY_KINDS_KEYS = """{"kind", "sweep_axis"}.union(
    name for kind in _KINDS.values()
    for entry in (kind, *(kind.axes or {}).values()) for name, _ in entry.fields)"""


def kind_rejects(row):
    """test_cli's test_validate_rejects_what_each_kind_rejects, bound to one
    of its rows."""
    test = test_cli.test_validate_rejects_what_each_kind_rejects
    name, update, reason = row
    oracle = functools.partial(test, name=name, update=update, reason=reason)
    oracle.__name__ = test.__name__
    return oracle


def field_message(row):
    """test_cli's test_validation_messages_are_pinned, bound to one of its
    rows."""
    test = test_cli.test_validation_messages_are_pinned
    name, update, message = row
    oracle = functools.partial(test, name=name, update=update, message=message)
    oracle.__name__ = test.__name__
    return oracle


def near_field(name, z0):
    """test_rates' test_surface_rate_approaches_the_near_field_limit, bound
    to one model and height."""
    test = test_rates.test_surface_rate_approaches_the_near_field_limit
    oracle = functools.partial(test, name=name, z0=z0)
    oracle.__name__ = test.__name__
    return oracle


def growing_green_tail(kx, omega, start):
    """test_greens' test_reflected_green_growing_tail_names_where_it_starts,
    bound to one request and the tail start it names."""
    test = test_greens.test_reflected_green_growing_tail_names_where_it_starts
    oracle = functools.partial(test, kx=kx, omega=omega, start=start)
    oracle.__name__ = test.__name__
    return oracle


def kernel_branch_points(model, beta):
    """test_rates' test_branch_points_are_zeros_of_the_kernels_xi_medium,
    bound to one model and velocity."""
    test = test_rates.test_branch_points_are_zeros_of_the_kernels_xi_medium
    oracle = functools.partial(test, model=model, beta=beta)
    oracle.__name__ = test.__name__
    return oracle


def rewritten(name, old, new):
    """A mutant made by an edit of the source: `old`, which must occur once
    in the function, becomes `new`, and the function is compiled again in
    its own module's namespace, under its decorators (a cached function gets
    a new, empty cache)."""
    def make(original):
        func = inspect.unwrap(original)
        source = textwrap.dedent(inspect.getsource(func))
        assert source.count(old) == 1
        namespace = {}
        exec(compile(source.replace(old, new), inspect.getsourcefile(func),
                     "exec"), func.__globals__, namespace)
        return namespace[func.__name__]
    make.__name__ = name
    return make


KZ_FOLD_HALVED = rewritten("kz_fold_halved", "+ pz * kpar2 * kpar2",
                           "+ 0.5 * pz * kpar2 * kpar2")

# (module, name, mutant, modules that bind the target, oracle)
MUTATIONS = [
    ("greens", "_fresnel_amplitudes", rs_without_mu, {"greens"},
     test_greens.test_fresnel_rest_frame_with_magnetic_response_matches_textbook_grid),
    ("greens", "_fresnel_amplitudes", rs_without_mu, {"greens"},
     test_rates.test_surface_rate_with_magnetic_response_matches_dense_grid_oracle),
    ("greens", "_doppler_medium",
     rewritten("b2_without_mu", "(eps * mu).real", "eps.real"), {"greens", "rates"},
     kernel_branch_points(test_rates.MAGNETIC_RESONANCE, 0.75)),
    ("kinematics", "doppler", doppler_swapped, {"kinematics", "greens", "rates"},
     test_greens.test_fresnel_doppler_argument_bookkeeping),
    ("kinematics", "doppler", doppler_swapped, {"kinematics", "greens", "rates"},
     test_kinematics.test_moving_chi_matches_raw_integral_route),
    ("kinematics", "moving_susceptibility_tensors", chi_eb_sign_flipped,
     {"kinematics", "greens"},
     test_kinematics.test_moving_chi_matches_raw_integral_route),
    ("medium", "lorentz_chi", damping_sign_flipped, {"medium"},
     test_medium.test_kk_below_resonance),
    ("medium", "lorentz_chi", damping_sign_flipped, {"medium"},
     test_rates.test_surface_rate_matches_dense_grid_oracle),
    ("medium", "lorentz_chi",
     rewritten("damping_floored", "- 1j * t.damping * omega",
               "- 1j * max(t.damping, 1e-2) * omega"),
     {"medium"},
     test_rates.test_rate_below_the_medium_light_cone_is_linear_in_the_damping),
    ("greens", "_segment_ky", inside_jacobian_dropped, {"greens"},
     test_greens.test_semi_infinite_green_inside_light_circle_matches_dense_grid),
    ("greens", "_segment_ky", tail_jacobian_dropped, {"greens"},
     test_greens.test_semi_infinite_green_inside_light_circle_matches_dense_grid),
    ("greens", "_dyad_pair", odd_entries_with_cos, {"greens"},
     test_greens.test_reciprocity_moving_velocity_reversal),
    ("rates", "rate_surface",
     rewritten("ky_cut_4_over_z0", "max(25.0 / det.z0,", "max(4.0 / det.z0,"),
     {"rates"}, test_rates.test_surface_rate_matches_dense_grid_oracle),
    ("rates", "_density", KZ_FOLD_HALVED, {"rates"},
     test_rates.test_surface_rate_matches_dense_grid_oracle),
    ("rates", "_density", KZ_FOLD_HALVED, {"rates"},
     near_field("lorentz_dielectric", 1.0)),
    ("rates", "_density", KZ_FOLD_HALVED, {"rates"},
     test_rates.test_density_matches_the_reference_density),
    ("kinematics", "doppler", doppler_swapped, {"kinematics", "greens", "rates"},
     test_rates.test_density_matches_the_reference_density),
    # a fault only where e^(-2 xi z0) < e^-60: no integral moves by a bit
    ("rates", "_density",
     rewritten("decay_floored_at_e_minus_60", "np.exp(decay * xi)",
               "np.exp(np.maximum(decay * xi, -60.0))"),
     {"rates"}, test_rates.test_density_matches_the_reference_density),
    ("rates", "rate_surface",
     rewritten("outer_jacobian_dropped", " * (2.0 * span * u * du)", ""), {"rates"},
     test_rates.test_surface_rate_matches_dense_grid_oracle),
    ("rates", "_split_map",
     rewritten("upper_piece_jacobian_dropped",
               "(_GRADE_SLOPE / half) * width * e * (grow + 1.0)",
               "np.where(u < 0.0, (_GRADE_SLOPE / half) * width * e * (grow + 1.0), 1.0)"),
     {"rates"},
     test_rates.test_surface_rate_beyond_the_medium_light_cone_matches_dense_grid_oracle),
    ("rates", "_split_map",
     rewritten("outer_upper_piece_jacobian_dropped",
               "slope = (2.0 / half) * width * e",
               "slope = np.where(u < 0.0, (2.0 / half) * width * e, 1.0)"),
     {"rates"},
     test_rates.test_surface_rate_beyond_the_medium_light_cone_matches_dense_grid_oracle),
    ("rates", "_rate_spline",
     rewritten("domain_ends_at_1_7", "1.8 * omega]", "1.7 * omega]"), {"rates"},
     test_rates.test_rate_spline_is_the_chebyshev_interpolant_of_the_rate),
    ("rates", "_RateSpline._plan",
     rewritten("pair_one_sided", "rate[half - 1::-1]", "rate[half:]"),
     {"rates"}, test_rates.test_convolution_plan_matches_dense_simpson_rule),
    ("specs", "convolution_panels",
     rewritten("thirty_two_cycles_per_panel", "math.ceil(cycles / _CYCLES_PER_PANEL)",
               "math.ceil(cycles / (2 * _CYCLES_PER_PANEL))"),
     {"specs", "rates", "cli"}, test_rates.test_convolution_plan_matches_dense_simpson_rule),
    ("kinematics", "moving_susceptibility_tensors",
     rewritten("chi_ee_yz_term_with_chi_e", "g2 * b2 * yz * cb", "g2 * b2 * yz * ce"),
     {"kinematics", "greens"},
     test_kinematics.test_moving_chi_matches_raw_integral_route),
    ("quadrature", "_WEIGHTS", gauss_column_kronrod, {"quadrature"},
     test_quadrature.test_oscillatory_bessel_integrand_matches_fixed_rule_oracle),
    ("medium", "_dispersion",
     rewritten("fold_without_mirror", "out[fold] += y[x.size:]", "pass"),
     {"medium"}, test_medium.test_identity_generic_pair),
    ("medium", "_dispersion",
     rewritten("tail_without_jacobian", "out[tail] /= x[tail] ** 2", "pass"),
     {"medium"}, test_medium.test_kk_below_resonance),
    ("medium", "_dispersion",
     rewritten("pieces_start_whole", "halved=True", "halved=False"),
     {"medium"}, test_greens.test_green_and_dispersion_batches_start_from_their_halves),
    ("quadrature", "_tail_start",
     rewritten("tail_probe_always_integrable", "return s, bool(", "return s, True or ("),
     {"quadrature", "greens", "medium"}, growing_green_tail(0.3, 1.0, "10")),
    ("specs", "check_kk_frequency",
     rewritten("kk_pole_windows_unchecked", "pole_windows(terms, (omega,))", "pass"),
     {"specs", "cli", "medium"}, kind_rejects(test_cli.KK_LOW_POLE)),
    ("medium", "_dispersion",
     rewritten("band_edge_uncut", "if lo < edge < hi", "if False"),
     {"medium"}, test_medium.test_kk_far_pole_samples_the_absorption_band),
    ("specs", "check_dissipation",
     rewritten("dissipation_point_unbounded", "check_scale(", "(lambda *args: None)("),
     {"specs", "cli", "greens"}, kind_rejects(test_cli.DISSIPATION_OVERFLOW)),
    ("specs", "check_scale",
     rewritten("scale_lower_end_dropped", "1.0 / SCALE <= abs(value) <= SCALE",
               "abs(value) <= SCALE"),
     {"specs"}, kind_rejects(test_cli.RATE_OMEGA_TINY)),
    # every range call of the method: check_scale a local that checks nothing
    ("specs", "DetectorSpec.__post_init__",
     rewritten("detector_scale_unchecked", "def __post_init__(self):",
               "def __post_init__(self, check_scale=lambda *args: None):"),
     {"specs"}, kind_rejects(test_cli.RATE_KAPPA_HUGE)),
    ("cli", "_KINDS[dissipation-check]", predicate_dropped, {"cli"},
     kind_rejects(next(row for row in test_cli.KIND_REJECTS
                       if row[0] == "dissipation_check.json"))),
    ("cli", "_KINDS[sweep]", kx_axis_checked_at_ends, {"cli"},
     kind_rejects(test_cli.LOG_KX_MIDDLE)),
    ("cli", "_cache_key",
     rewritten("cache_key_without_code_digest", '"code": _code_digest(), ', ""),
     {"cli"}, test_cli.test_cache_key_covers_the_package_code),
    ("cli", "scenario_from_dict",
     rewritten("top_level_keys_unchecked",
               'errors.extend(unknown_fields(doc, {"kind", *inputs}))', "pass"),
     {"cli"}, field_message(test_cli.UNKNOWN_KEY)),
    ("cli", "scenario_from_dict",
     rewritten("every_kinds_keys_accepted", '{"kind", *inputs}', EVERY_KINDS_KEYS),
     {"cli"}, field_message(test_cli.OTHER_KINDS_KEY)),
    ("cli", "_KINDS[kk-check]", kk_quad_takes_k_max, {"cli"},
     field_message(test_cli.UNTRUNCATED_K_MAX)),
    ("specs", "QuadratureSpec.__post_init__",
     rewritten("rel_tol_floor_dropped", "if not self.rel_tol >= _REL_TOL_FLOOR:",
               "if False:"),
     {"specs"}, field_message(test_cli.REL_TOL_BELOW_FLOOR)),
    ("specs", "LorentzOscillator.__post_init__",
     rewritten("oscillator_finiteness_unchecked",
               "if not math.isfinite(getattr(self, name)):", "if False:"),
     {"specs"}, field_message(test_cli.NON_FINITE_MODEL)),
    ("specs", "LorentzOscillator.__post_init__",
     rewritten("oscillator_scale_unchecked", "check_scale(name, getattr(self, name))",
               "pass"),
     {"specs"}, field_message(test_cli.MODEL_TERM_HUGE)),
    ("quadrature", "_adapt",
     rewritten("halved_start_unit_scale", "inv_scale = 1.0 / tol\n",
               "inv_scale = 1.0 / tol if level == 0 else np.ones_like(tol)\n"),
     {"quadrature"},
     test_quadrature.test_halved_vector_integrand_ranks_its_panels_per_component),
    ("specs", "model_from_dict",
     rewritten("model_keys_unchecked", "if unknown:", "if False:"),
     {"specs", "medium"}, field_message(test_cli.MODEL_UNKNOWN_KEY)),
]


# How an oracle fails under a mutant where not by its own assertion: a
# mutant whose integral diverges at a segment end stops at the quadrature's
# panel-width floor first, a fold without its mirror samples the pole
# itself, where the integrand is infinite, and a growing tail let through
# overflows far out.
FAILURES = {"inside_jacobian_dropped": (NonConvergenceError,
                                        r"did not converge at .* inside segment"),
            "fold_without_mirror": (ValueError, "integrand returned a non-finite value"),
            "tail_probe_always_integrable": (ValueError,
                                             r"is not finite at .* tail segment")}


def patch_every_binding(monkeypatch, module, name, make):
    """Bind make(original) wherever a loaded module binds
    vacdrag.<module>.<name>, as an edit of the source would (the test
    modules that import it by name included); the short names of the
    vacdrag modules patched."""
    importlib.import_module("vacdrag.rates")       # load every numeric module
    owner = importlib.import_module(f"vacdrag.{module}")
    name, _, key = name.partition("[")
    if key:
        table = getattr(owner, name)
        key = key.removesuffix("]")
        monkeypatch.setitem(table, key, make(table[key]))
        return {module}
    cls, _, name = name.rpartition(".")
    if cls:
        owner = getattr(owner, cls)
    original = getattr(owner, name)
    mutant = make(original)
    if cls:
        monkeypatch.setattr(owner, name, mutant)
        return {module}
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
def test_oracle_catches_mutant(monkeypatch, request, module, name, make, bindings,
                               oracle):
    fixtures = {p: request.getfixturevalue(p)
                for p, v in inspect.signature(oracle).parameters.items()
                if v.default is v.empty}
    oracle(**fixtures)
    assert patch_every_binding(monkeypatch, module, name, make) == bindings
    failure, match = FAILURES.get(make.__name__, (AssertionError, None))
    with pytest.raises(failure, match=match):
        oracle(**fixtures)
