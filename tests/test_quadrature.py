"""Tests for the deterministic quadrature layer.

Oracle values come from closed forms or from the oversampled fixed-rule
reference in reference.py; nothing here reuses the adaptive code under test.
"""

import math

import numpy as np
import pytest
from scipy.special import j0

import reference
from vacdrag.quadrature import (
    IntegralResult,
    QuadratureSpec,
    _split,
    integrate_adaptive,
    integrate_semi_infinite,
    principal_value,
)

SPEC = QuadratureSpec()


# ---------------------------------------------------------------------------
# integrate_adaptive
# ---------------------------------------------------------------------------

def test_constant_integrand():
    res = integrate_adaptive(lambda x: np.ones_like(x), 0.0, 1.0, SPEC)
    assert res.converged
    assert res.value == pytest.approx(1.0, abs=1e-14)


def test_parabola_exact_for_rule():
    res = integrate_adaptive(lambda x: x ** 2, 0.0, 1.0, SPEC)
    assert res.converged
    assert res.value == pytest.approx(1.0 / 3.0, rel=1e-14)


def test_oscillatory_bessel_integrand_matches_fixed_rule_oracle():
    # independent route: mpmath-backed series/asymptotic J0 on a dense
    # fixed Gauss-Legendre grid
    def f_ref(x):
        return np.array([reference.j0_reference(t) for t in np.atleast_1d(10.0 * x)])

    oracle = reference.gauss_fixed(f_ref, 0.0, 20.0, n=2000)
    res = integrate_adaptive(lambda x: j0(10.0 * x), 0.0, 20.0, SPEC)
    assert res.converged
    assert res.value == pytest.approx(oracle, rel=1e-8, abs=1e-10)


def test_result_fields_and_error_bound_when_converged():
    res = integrate_adaptive(lambda x: np.exp(x), 0.0, 1.0, SPEC)
    assert isinstance(res, IntegralResult)
    assert res.converged
    assert res.evaluations > 0
    assert res.error_estimate <= max(SPEC.rel_tol * abs(res.value), SPEC.abs_tol)
    assert res.value == pytest.approx(math.e - 1.0, rel=1e-12)


def test_real_integrand_gives_real_value():
    res = integrate_adaptive(lambda x: np.sin(x), 0.0, 1.0, SPEC)
    assert not isinstance(res.value, complex)


def test_complex_integrand_supported():
    res = integrate_adaptive(lambda x: np.exp(1j * x), 0.0, np.pi, SPEC)
    assert res.converged
    assert res.value == pytest.approx(complex(0.0, 2.0), rel=1e-12)


def test_nonfinite_integrand_reported_with_location():
    with pytest.raises(ValueError, match="x = 0"):
        integrate_adaptive(lambda x: 1.0 / x, -1.0, 1.0, SPEC)


def test_determinism_bit_identical():
    def f(x):
        return np.sin(17.0 * x) / (1.0 + x ** 2)

    a = integrate_adaptive(f, 0.0, 30.0, QuadratureSpec())
    b = integrate_adaptive(f, 0.0, 30.0, QuadratureSpec())
    assert a.value == b.value
    assert a.error_estimate == b.error_estimate
    assert a.evaluations == b.evaluations


def test_subdivision_budget_exhaustion_flags_not_converged():
    spec = QuadratureSpec(max_subdivisions=2)
    res = integrate_adaptive(lambda x: np.sin(40.0 * x) ** 2 / (1e-4 + x ** 2),
                             0.0, 10.0, spec)
    assert not res.converged


def test_vector_integrand_meets_tolerance_per_component():
    # two components about 1e6 apart; the small one has the sharper peak,
    # so a test on the joint norm would stop before it is resolved
    def f(x):
        return np.stack((1e3 * np.exp(-x) * np.sin(5.0 * x),
                         1e-3 / (0.01 + (x - 0.7) ** 2)))

    exact = np.array([
        1e3 * (5.0 - math.exp(-2.0) * (math.sin(10.0) + 5.0 * math.cos(10.0))) / 26.0,
        1e-3 * (math.atan(13.0) + math.atan(7.0)) / 0.1,
    ])
    spec = QuadratureSpec(rel_tol=1e-10, abs_tol=1e-30)
    res = integrate_adaptive(f, 0.0, 2.0, spec)
    assert res.converged
    assert res.value.shape == res.error_estimate.shape == (2,)
    for value, err, ref in zip(res.value, res.error_estimate, exact):
        assert abs(value - ref) <= err <= max(spec.rel_tol * abs(ref), spec.abs_tol)
    again = integrate_adaptive(f, 0.0, 2.0, spec)
    assert again.value.tobytes() == res.value.tobytes()
    assert again.error_estimate.tobytes() == res.error_estimate.tobytes()
    assert again.evaluations == res.evaluations


def test_vector_integrand_nonfinite_reported_with_location():
    with pytest.raises(ValueError, match="x = 0"):
        integrate_adaptive(lambda x: np.stack((np.ones_like(x), 1.0 / x)),
                           -1.0, 1.0, SPEC)


def test_integrand_shape_must_end_with_abscissae():
    with pytest.raises(ValueError, match="shape"):
        integrate_adaptive(lambda x: np.ones((len(x), 2)), 0.0, 1.0, SPEC)


def test_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(rel_tol=-1.0)
    with pytest.raises(ValueError):
        QuadratureSpec(abs_tol=0.0)
    with pytest.raises(ValueError):
        QuadratureSpec(k_max=-2.0)


# ---------------------------------------------------------------------------
# batched bisection: one integrand call per sweep
# ---------------------------------------------------------------------------

def _peak(x):
    return 1e-3 / (0.01 + (x - 0.7) ** 2)


def _two_components(x):
    return np.stack((1e3 * np.exp(-x) * np.sin(5.0 * x), _peak(x)))


def _oscillating(x):
    return np.sin(40.0 * x) ** 2 / (1e-4 + x ** 2)


def test_one_integrand_call_per_sweep():
    calls = []

    def spy(x):
        calls.append(x.size)
        return _peak(x)

    res = integrate_adaptive(spy, 0.0, 2.0, QuadratureSpec(rel_tol=1e-10,
                                                          abs_tol=1e-30))
    assert res.converged
    assert sum(calls) == res.evaluations
    assert all(size % 15 == 0 for size in calls)
    assert len(calls) <= (res.evaluations // 15) / 2


# evaluations of the one-panel-at-a-time worst-first loop on the same inputs
SERIAL_EVALUATIONS = [
    (_two_components, 0.0, 2.0, QuadratureSpec(rel_tol=1e-10, abs_tol=1e-30), 225),
    (_oscillating, 0.0, 10.0, SPEC, 3855),
    (np.exp, 0.0, 1.0, SPEC, 15),
]


@pytest.mark.parametrize("f, a, b, spec, serial", SERIAL_EVALUATIONS)
def test_sweeps_evaluate_no_more_than_serial_bisection(f, a, b, spec, serial):
    res = integrate_adaptive(f, a, b, spec)
    assert res.converged
    assert res.evaluations <= serial


@pytest.mark.parametrize("budget", [1, 2, 3, 7, 50])
def test_starved_budget_never_exceeds_max_subdivisions(budget):
    sizes = []

    def spy(x):
        sizes.append(x.size)
        return _oscillating(x)

    res = integrate_adaptive(spy, 0.0, 10.0, QuadratureSpec(max_subdivisions=budget))
    assert not res.converged
    # every bisected panel is replaced by two: one more panel per 30 abscissae
    held = 1 + np.cumsum(sizes[1:]) // 30
    assert (held <= budget).all()


def test_nonfinite_value_reported_at_leftmost_abscissa_of_the_sweep():
    seen = []

    def f(x):
        seen.append(x.copy())
        y = _peak(x)
        if len(seen) == 3:
            y[x > 0.9] = np.nan
        return y

    with pytest.raises(ValueError) as exc:
        integrate_adaptive(f, 0.0, 2.0, QuadratureSpec(rel_tol=1e-10, abs_tol=1e-30))
    x = seen[-1]
    assert len(seen) == 3 and x.size > 30
    assert str(exc.value).endswith(f"x = {x[x > 0.9].min():.6g}")


# ---------------------------------------------------------------------------
# lockstep batches: integrate_adaptive(..., batch=m)
# ---------------------------------------------------------------------------

# member j: (a_j x^2, its own peak of width w_j at p_j); the parabola is
# exact for the rule, the peak sets how many sweeps the member needs
A = np.array([1.0, -2.0, 0.5, 3.0, 1.5])
P = np.array([0.7, 0.2, 1.3, 1.9, 1.0])
W = np.array([1e-2, 3e-3, 5.0, 1e-4, 1e-1])


def _members(arg):
    x, j = arg
    return np.stack((A[j] * x * x, 1e-3 / (W[j] + (x - P[j]) ** 2)))


def _member(j):
    return lambda x: _members((x, j))


def _members_fortran(arg):
    # the same values in the other memory layout, components contiguous
    return np.asfortranarray(_members(arg))


TIGHT = QuadratureSpec(rel_tol=1e-10, abs_tol=1e-30)


@pytest.mark.parametrize("members", [_members, _members_fortran])
def test_batch_members_match_lone_integrals(members):
    batch = integrate_adaptive(members, 0.0, 2.0, TIGHT, batch=A.size)
    assert batch.value.shape == batch.error_estimate.shape == (2, A.size)
    assert batch.evaluations.shape == batch.converged.shape == (A.size,)
    # ndarrays, not an int and a bool: callers test batch.converged.all()
    assert isinstance(batch.converged, np.ndarray)
    assert isinstance(batch.evaluations, np.ndarray)
    for j in range(A.size):
        alone = integrate_adaptive(_member(j), 0.0, 2.0, TIGHT)
        assert type(alone.converged) is bool and type(alone.evaluations) is int
        assert np.array_equal(batch.value[:, j], alone.value)
        assert np.array_equal(batch.error_estimate[:, j], alone.error_estimate)
        assert batch.evaluations[j] == alone.evaluations
        assert batch.converged[j] == alone.converged
    # the members do differ: one panel for the broad peak, many for the narrow
    assert batch.evaluations[2] < batch.evaluations[1] < batch.evaluations[3]


def test_batch_makes_one_integrand_call_per_sweep():
    calls = []

    def spy(arg):
        calls.append(arg[1].copy())
        return _members(arg)

    res = integrate_adaptive(spy, 0.0, 2.0, TIGHT, batch=A.size)
    sweeps = []
    for j in range(A.size):
        lone = []

        def lone_spy(x, f=_member(j)):
            lone.append(x.size)
            return f(x)

        integrate_adaptive(lone_spy, 0.0, 2.0, TIGHT)
        sweeps.append(len(lone))
    # the batch lasts as long as its slowest member, one call a sweep
    assert len(calls) == max(sweeps)
    for j in range(A.size):
        # member j is in the first sweeps[j] calls and in no later one
        assert sum(np.count_nonzero(c == j) for c in calls) == res.evaluations[j]
        assert all((c == j).any() for c in calls[:sweeps[j]])
        assert not any((c == j).any() for c in calls[sweeps[j]:])


def test_batch_member_starved_alone_while_the_others_converge():
    spec = QuadratureSpec(rel_tol=1e-10, abs_tol=1e-30, max_subdivisions=6)
    res = integrate_adaptive(_members, 0.0, 2.0, spec, batch=A.size)
    assert res.converged.tolist() == [False, False, True, False, True]
    # a starved member holds at most its own budget of panels
    assert (res.evaluations <= 15 + 30 * (6 - 1)).all()
    for j in range(A.size):
        alone = integrate_adaptive(_member(j), 0.0, 2.0, spec)
        assert res.converged[j] == alone.converged
        assert res.evaluations[j] == alone.evaluations
        assert np.array_equal(res.value[:, j], alone.value)


def test_batch_nonfinite_value_reported_at_leftmost_abscissa():
    seen = []

    def f(arg):
        x, j = arg
        seen.append((x.copy(), j.copy()))
        y = _members(arg)
        if len(seen) == 3:
            # member 0 comes first in the call, member 1 lies further left
            y[:, (j == 0) & (x > 1.5)] = np.inf
            y[:, (j == 1) & (x > 0.9)] = np.nan
        return y

    with pytest.raises(ValueError) as exc:
        integrate_adaptive(f, 0.0, 2.0, TIGHT, batch=2)
    x, j = seen[-1]
    assert len(seen) == 3 and ((j == 0) & (x > 1.5)).any()
    leftmost = x[(j == 1) & (x > 0.9)].min()
    assert leftmost < x[(j == 0) & (x > 1.5)].min()
    assert str(exc.value).endswith(f"x = {leftmost:.6g}")


def test_prefix_error_is_an_exact_sum_best_first():
    # each of two integrals: one panel of error 1 and three of 5e-17 against
    # a tolerance of 1.2e-16. The three add to 1.5e-16, so the worst panel
    # alone is not enough: the worst two go. A running total from the worst
    # panel absorbs them (1 + 5e-17 == 1) and would bisect one.
    errs = np.array([5e-17, 1.0, 5e-17, 5e-17] * 2)
    slot, col = np.repeat([0, 1], 4), np.tile(np.arange(4), 2)
    tol = np.full(2, 1.2e-16)
    pick, split = _split(errs, 1.0 / tol, tol, slot, col, np.array([4, 4]), 50)
    assert pick.tolist() == [0, 1, 4, 5] and split.tolist() == [2, 2]
    # the one-integral path agrees
    pick, split = _split(errs[:4], 1.0 / tol[:1], tol[:1], slot[:4], col[:4],
                         np.array([4]), 50)
    assert pick.tolist() == [0, 1] and split == 2


@pytest.mark.parametrize("batch", [0, -1, 2.0])
def test_batch_must_be_a_positive_integer(batch):
    with pytest.raises(ValueError, match="batch"):
        integrate_adaptive(_members, 0.0, 2.0, SPEC, batch=batch)


# ---------------------------------------------------------------------------
# principal_value
# ---------------------------------------------------------------------------

def test_pv_odd_pole_is_zero():
    res = principal_value(lambda x: 1.0 / x, 0.0, -1.0, 1.0, SPEC)
    assert res.converged
    assert abs(res.value) < 1e-12


def test_pv_asymmetric_interval_log_value():
    res = principal_value(lambda x: 1.0 / x, 0.0, -1.0, 2.0, SPEC)
    assert res.converged
    assert res.value == pytest.approx(math.log(2.0), rel=1e-10)


def test_pv_exponential_kernel_matches_hyperbolic_sine_integral():
    # PV of e^x/x over [-1, 1] equals 2*Shi(1)
    res = principal_value(lambda x: np.exp(x) / x, 0.0, -1.0, 1.0, SPEC)
    assert res.converged
    assert res.value == pytest.approx(2.1145017507514570291, rel=1e-10)
    assert res.value == pytest.approx(reference.shi1_times_2(), rel=1e-10)


def test_pv_antisymmetric_under_integrand_negation():
    def f(x):
        return np.exp(x) / x

    plus = principal_value(f, 0.0, -1.0, 1.0, SPEC)
    minus = principal_value(lambda x: -f(x), 0.0, -1.0, 1.0, SPEC)
    assert minus.value == -plus.value


def test_pv_window_halving_invariance():
    spec = QuadratureSpec(rel_tol=1e-14, abs_tol=1e-10)

    def f(x):
        return np.cos(x) / (x - 0.3)

    full = principal_value(f, 0.3, -1.0, 2.0, spec, window=0.4)
    half = principal_value(f, 0.3, -1.0, 2.0, spec, window=0.2)
    assert full.converged and half.converged
    assert abs(full.value - half.value) < spec.abs_tol


def test_pv_pole_at_endpoint_rejected():
    with pytest.raises(ValueError):
        principal_value(lambda x: 1.0 / x, -1.0, -1.0, 1.0, SPEC)
    with pytest.raises(ValueError):
        principal_value(lambda x: 1.0 / x, 2.0, -1.0, 1.0, SPEC)


# ---------------------------------------------------------------------------
# integrate_semi_infinite
# ---------------------------------------------------------------------------

def test_exponential_tail():
    res = integrate_semi_infinite(lambda x: np.exp(-x), 0.0, SPEC)
    assert res.converged
    assert res.value == pytest.approx(1.0, rel=1e-10)


def test_lorentzian_tail_arctan_value():
    res = integrate_semi_infinite(lambda x: 1.0 / (1.0 + x ** 2), 0.0, SPEC)
    assert res.converged
    assert res.value == pytest.approx(math.pi / 2.0, rel=1e-10)


def test_surface_mode_weight_matches_fixed_rule_oracle():
    # evanescent-weight integrand: exp(-2 xi(k) z0) / xi with z0 = 1
    z0 = 1.0
    omega = 0.8

    def f(k):
        xi = np.sqrt(k ** 2 + 1.5 ** 2 - omega ** 2)
        return np.exp(-2.0 * xi * z0) / xi

    oracle = reference.gauss_fixed(f, 0.0, 60.0, n=4000)
    res = integrate_semi_infinite(f, 0.0, SPEC)
    assert res.converged
    assert res.value == pytest.approx(oracle, rel=1e-8)


def test_nonzero_lower_limit():
    res = integrate_semi_infinite(lambda x: np.exp(-x), 3.0, SPEC)
    assert res.converged
    assert res.value == pytest.approx(math.exp(-3.0), rel=1e-10)


def test_lower_limit_beyond_tail_switch():
    res = integrate_semi_infinite(lambda x: x ** -3, 25.0, SPEC)
    assert res.converged
    assert res.value == pytest.approx(0.5 * 25.0 ** -2, rel=1e-9)


def test_non_decaying_integrand_flagged():
    res = integrate_semi_infinite(lambda x: 1.0 / (1.0 + x), 0.0, SPEC)
    assert not res.converged


def test_vector_semi_infinite_and_principal_value():
    res = integrate_semi_infinite(
        lambda x: np.stack((np.exp(-x), 1.0 / (1.0 + x ** 2))), 0.0, SPEC)
    assert res.converged
    assert res.value == pytest.approx([1.0, math.pi / 2.0], rel=1e-10)
    flagged = integrate_semi_infinite(
        lambda x: np.stack((np.exp(-x), 1.0 / (1.0 + x))), 0.0, SPEC)
    assert not flagged.converged
    pv = principal_value(lambda x: np.stack((1.0 / x, np.exp(x) / x)),
                         0.0, -1.0, 1.0, SPEC)
    assert pv.converged
    assert abs(pv.value[0]) < 1e-12
    assert pv.value[1] == pytest.approx(2.1145017507514570291, rel=1e-10)


def test_growing_integrand_flagged_without_overflow_crash():
    res = integrate_semi_infinite(lambda x: x / (1.0 + np.sqrt(x)), 0.0, SPEC)
    assert not res.converged


# ---------------------------------------------------------------------------
# error-estimate honesty across the three operations
# ---------------------------------------------------------------------------

def _honesty_suite():
    """20 integrals with closed-form values: (runner, exact)."""
    cases = []

    def fin(f, a, b, exact):
        cases.append((lambda: integrate_adaptive(f, a, b, SPEC), exact))

    fin(lambda x: x ** 2, 0.0, 1.0, 1.0 / 3.0)
    fin(lambda x: np.exp(x), 0.0, 1.0, math.e - 1.0)
    fin(lambda x: np.sin(x), 0.0, math.pi, 2.0)
    fin(lambda x: 1.0 / (1.0 + x ** 2), 0.0, 1.0, math.pi / 4.0)
    fin(lambda x: np.log1p(x), 0.0, 1.0, 2.0 * math.log(2.0) - 1.0)
    fin(lambda x: np.sqrt(x), 0.0, 1.0, 2.0 / 3.0)
    fin(lambda x: np.cos(x) ** 2, 0.0, 2.0 * math.pi, math.pi)
    fin(lambda x: x * np.exp(x), 0.0, 1.0, 1.0)
    fin(lambda x: np.exp(-x ** 2), 0.0, 5.0, 0.5 * math.sqrt(math.pi) * math.erf(5.0))
    fin(lambda x: 1.0 / x, 1.0, 2.0, math.log(2.0))
    fin(lambda x: np.cosh(x), 0.0, 1.0, math.sinh(1.0))
    fin(lambda x: x * np.sin(x), 0.0, math.pi, math.pi)
    fin(lambda x: 1.0 / np.sqrt(1.0 + x), 0.0, 1.0, 2.0 * (math.sqrt(2.0) - 1.0))
    fin(lambda x: 1.0 / (x ** 2 + 0.01), -1.0, 1.0, 20.0 * math.atan(10.0))
    fin(lambda x: np.exp(-100.0 * (x - 0.5) ** 2), 0.0, 1.0,
        math.sqrt(math.pi) / 10.0 * math.erf(5.0))

    cases.append((lambda: integrate_semi_infinite(lambda x: np.exp(-x), 0.0, SPEC), 1.0))
    cases.append((lambda: integrate_semi_infinite(lambda x: 1.0 / (1.0 + x ** 2), 0.0, SPEC),
                  math.pi / 2.0))
    cases.append((lambda: integrate_semi_infinite(lambda x: x * np.exp(-x ** 2), 0.0, SPEC),
                  0.5))
    cases.append((lambda: principal_value(lambda x: 1.0 / x, 0.0, -1.0, 2.0, SPEC),
                  math.log(2.0)))
    cases.append((lambda: principal_value(lambda x: np.exp(x) / x, 0.0, -1.0, 1.0, SPEC),
                  2.1145017507514570291))
    return cases


def test_error_estimates_are_honest():
    suite = _honesty_suite()
    assert len(suite) == 20
    honest = 0
    for runner, exact in suite:
        res = runner()
        assert res.converged
        true_err = abs(res.value - exact)
        if true_err <= 3.0 * max(res.error_estimate, 5e-16 * abs(exact)):
            honest += 1
    assert honest >= 19  # 95 percent of 20
