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
    _NODES,
    _TAIL_SWITCH,
    _W_GAUSS,
    _W_KRONROD,
    IntegralResult,
    QuadratureSpec,
    _panel,
    _split,
    _tail_start,
    integrate_adaptive,
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


@pytest.mark.filterwarnings("error::RuntimeWarning")
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


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_vector_integrand_nonfinite_reported_with_location():
    with pytest.raises(ValueError, match="x = 0"):
        integrate_adaptive(lambda x: np.stack((np.ones_like(x), 1.0 / x)),
                           -1.0, 1.0, SPEC)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_complex_nonfinite_integrand_reported_with_location():
    # the first panel's leftmost node right of 0.5: 0.5 (1 + 0.2077849550078985)
    with pytest.raises(ValueError, match="x = 0.603892$"):
        integrate_adaptive(lambda x: np.where(x > 0.5, complex(1.0, math.nan), 1j),
                           0.0, 1.0, SPEC)


def test_finite_values_whose_sums_overflow_are_not_reported():
    # +-1.7e308 at every node: |y| sums past float max, so the panel's
    # resabs is inf although every value is finite
    def f(x):
        return np.where(x < 0.0, -1.7e308, 1.7e308)

    with np.errstate(all="ignore"):
        res = integrate_adaptive(f, -1.0, 1.0, QuadratureSpec(max_subdivisions=1))
    assert not res.converged


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


def test_rel_tol_floor_is_fifty_eps():
    """QUADPACK's floor: 50 eps is admitted and meets a relative stop test
    on a smooth integrand; the next float below it is rejected."""
    floor = 50.0 * np.finfo(float).eps
    spec = QuadratureSpec(rel_tol=floor, abs_tol=1e-300)
    res = integrate_adaptive(np.exp, 0.0, 1.0, spec)
    assert res.converged and res.value == pytest.approx(math.e - 1.0, rel=1e-15)
    with pytest.raises(ValueError, match=r"rel_tol must be >= 1.11022e-14, 50 eps"):
        QuadratureSpec(rel_tol=math.nextafter(floor, 0.0))


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


@pytest.mark.filterwarnings("error::RuntimeWarning")
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


def _params(j):
    # member j >= 5 repeats member j - 5 with its peak moved right by 0.05
    i = j % A.size
    return A[i], P[i] + 0.05 * (j // A.size), W[i]


def _members(arg):
    x, j = arg
    a, p, w = _params(j)
    return np.stack((a * x * x, 1e-3 / (w + (x - p) ** 2)))


def _member(j, members=_members):
    return lambda x: members((x, j))


def _members_fortran(arg):
    # the same values in the other memory layout, components contiguous
    return np.asfortranarray(_members(arg))


def _members_plain(arg):
    # one component: a lone first panel is a single row of 15 values
    return _members(arg)[1]


# the rate's component shape (2, 15): two channels at 15 k-nodes
K_NODES = np.linspace(0.6, 1.4, 15)[:, None]


def _members_rate_shaped(arg):
    x, j = arg
    a, p, w = _params(j)
    return np.stack((a * x * x * K_NODES, 1e-3 / (w * K_NODES + (x - p) ** 2)))


TIGHT = QuadratureSpec(rel_tol=1e-10, abs_tol=1e-30)


def _ends(j):
    # each member's own interval, around its peak
    return -0.2 * (j % 3), 2.0 + 0.25 * (j % 4)


# The panel sums are BLAS products, and BLAS may round a row otherwise by the
# number of rows, so each batch size and component shape is its own case.
@pytest.mark.parametrize("size", range(1, 10))
@pytest.mark.parametrize("members", [_members, _members_fortran, _members_plain,
                                     _members_rate_shaped])
def test_batch_members_match_lone_integrals(members, size):
    lo, hi = np.array([_ends(j) for j in range(size)]).T
    batch = integrate_adaptive(members, lo, hi, TIGHT, batch=size)
    shape = members((np.zeros(1), np.zeros(1, dtype=int))).shape[:-1]
    assert batch.value.shape == batch.error_estimate.shape == shape + (size,)
    assert batch.evaluations.shape == batch.converged.shape == (size,)
    # ndarrays, not an int and a bool: callers test batch.converged.all()
    assert isinstance(batch.converged, np.ndarray)
    assert isinstance(batch.evaluations, np.ndarray)
    for j in range(size):
        alone = integrate_adaptive(_member(j, members), *_ends(j), TIGHT)
        assert type(alone.converged) is bool and type(alone.evaluations) is int
        assert np.array_equal(batch.value[..., j], alone.value)
        assert np.array_equal(batch.error_estimate[..., j], alone.error_estimate)
        assert batch.evaluations[j] == alone.evaluations
        assert batch.converged[j] == alone.converged
    if size >= 4:
        # the members do differ: one panel for the broad peak, many for the
        # narrow
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


def _end_singular(arg):
    # member 0 diverges at x = 0, member 2 at x = 1; member 1 is smooth
    x, j = arg
    with np.errstate(divide="ignore"):
        return np.where(j == 0, 1.0 / x, np.where(j == 2, 1.0 / (1.0 - x), x * x))


def test_endpoint_singularity_stops_at_the_width_floor():
    # 1/x bisects toward x = 0 until a panel is near 1000 tiny wide, 1/(1 - x)
    # toward x = 1 until one is near 2000 eps wide; without the floor an
    # abscissa overflows 1/x or rounds onto x = 1, a non-finite value
    batch = integrate_adaptive(_end_singular, 0.0, 1.0, TIGHT, batch=3)
    assert batch.converged.tolist() == [False, True, False]
    assert np.isfinite(batch.value).all()
    assert batch.value[1] == pytest.approx(1.0 / 3.0, rel=1e-12)
    for j in range(3):
        alone = integrate_adaptive(lambda x, j=j: _end_singular((x, np.full(x.size, j))),
                                   0.0, 1.0, TIGHT)
        assert batch.converged[j] == alone.converged
        assert batch.evaluations[j] == alone.evaluations
        assert batch.value[j] == alone.value
    # floats are coarser just above 1 than below it: at QUADPACK's 100 eps
    # an abscissa of the last halves rounds onto x = 1
    res = integrate_adaptive(lambda x: 1.0 / (x - 1.0), 1.0, 1.1, TIGHT)
    assert not res.converged and math.isfinite(res.value)


@pytest.mark.parametrize("spec", [TIGHT, SPEC])
def test_integrable_endpoint_singularity_converges(spec):
    # the panels next to x = 0 shrink far below eps before x^-1/2 meets its
    # tolerance; floats are dense there, so the floor must not stop them
    res = integrate_adaptive(lambda x: 1.0 / np.sqrt(x), 0.0, 1.0, spec)
    assert res.converged
    assert res.value == pytest.approx(2.0, rel=10.0 * spec.rel_tol)


@pytest.mark.filterwarnings("error::RuntimeWarning")
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


@pytest.mark.parametrize("shape", [(), (2,), (2, 15)])
@pytest.mark.parametrize("kind", [float, complex])
def test_panel_sums_match_plain_weighted_sums(shape, kind):
    # _panel's BLAS products against QUADPACK's dqk15 written as weighted
    # numpy sums: the order of the sums differs, the results by round-off
    c = np.random.default_rng(5).uniform(0.5, 2.0, shape + (1,))
    c = c * (1.0 + 0.5j) if kind is complex else c

    def f(x):
        return c * np.exp(np.sin(8.0 * x)) - 1.0

    a, b = np.array([0.0, 1.0, 2.5]), np.array([1.0, 2.5, 5.0])
    half = 0.5 * (b - a)
    x = (0.5 * (a + b))[:, None] + half[:, None] * _NODES
    y = f(x.ravel()).reshape(shape + x.shape)
    k15 = half * np.sum(_W_KRONROD * y, axis=-1)
    g7 = half * np.sum(_W_GAUSS * y, axis=-1)
    resabs = half * np.sum(_W_KRONROD * np.abs(y), axis=-1)
    mean = k15 / (b - a)
    resasc = half * np.sum(_W_KRONROD * np.abs(y - mean[..., None]), axis=-1)
    err = resasc * np.minimum(1.0, (200.0 * np.abs(k15 - g7) / resasc) ** 1.5)
    value, error = _panel(f, a, b)
    assert value.shape == error.shape == shape + (3,)
    assert np.allclose(value, k15, rtol=0.0, atol=1e-14 * resabs.max())
    # every panel's error is far above round-off, so it agrees to round-off
    assert (err > 1e-6 * resabs).all()
    assert np.allclose(error, err, rtol=1e-10, atol=0.0)
    # the first panel alone, a single row of 15 values for a plain integrand
    value, error = _panel(f, a[:1], b[:1])
    assert np.allclose(value, k15[..., :1], rtol=0.0, atol=1e-14 * resabs.max())
    assert np.allclose(error, err[..., :1], rtol=1e-10, atol=0.0)


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


def test_ends_are_numbers_or_one_per_member():
    with pytest.raises(ValueError, match="one end per member"):
        integrate_adaptive(_members, np.zeros(3), 2.0, SPEC, batch=2)
    with pytest.raises(ValueError, match="one end per member"):
        integrate_adaptive(np.exp, np.zeros(1), 1.0, SPEC)
    with pytest.raises(ValueError, match="require a < b"):
        integrate_adaptive(_members, np.array([0.0, 2.0]), 2.0, SPEC, batch=2)
    with pytest.raises(ValueError, match="must be finite"):
        integrate_adaptive(_members, 0.0, np.array([2.0, math.inf]), SPEC, batch=2)


# ---------------------------------------------------------------------------
# halved start: integrate_adaptive(..., halved=True)
# ---------------------------------------------------------------------------

# member j: a peak of width w_j at p_j, none of which one panel resolves
NARROW_P = np.array([0.7, 0.2, 1.9, 1.0, 0.4])
NARROW_W = np.array([1e-2, 3e-3, 1e-4, 1e-1, 1e-3])


def _narrow(arg):
    x, j = arg
    return 1e-3 / (NARROW_W[j] + (x - NARROW_P[j]) ** 2)


def _narrow_complex(arg):
    return np.exp(1j * arg[0]) * _narrow(arg)


def _lone(members):
    return lambda x: members((x, np.zeros(x.size, dtype=int)))


NARROW_ENDS = (-0.2 * (np.arange(5) % 3), 2.0 + 0.25 * (np.arange(5) % 4))


@pytest.mark.parametrize("members", [_narrow, _narrow_complex])
@pytest.mark.parametrize("batch", [None, 5])
def test_halved_start_gives_the_default_starts_bits(members, batch):
    """The default start bisects every panel in its first sweep when one
    panel cannot resolve the integrand; the halved start begins from those
    halves and so gives the same bits, 15 evaluations fewer."""
    f, lo, hi = (_lone(members), 0.0, 2.0) if batch is None else \
        (members, *NARROW_ENDS)
    whole = integrate_adaptive(f, lo, hi, TIGHT, batch=batch)
    halved = integrate_adaptive(f, lo, hi, TIGHT, batch=batch, halved=True)
    assert np.all(whole.evaluations > 15) and np.all(whole.converged)
    assert np.asarray(halved.value).tobytes() == np.asarray(whole.value).tobytes()
    assert np.asarray(halved.error_estimate).tobytes() == \
        np.asarray(whole.error_estimate).tobytes()
    assert np.array_equal(halved.evaluations, whole.evaluations - 15)
    assert np.array_equal(halved.converged, whole.converged)
    assert type(halved.value) is type(whole.value)


def _far_apart(x):
    # two peaks 1e6 apart in height, at opposite ends of [0, 2]
    return np.stack((1e3 / (0.01 + (x - 0.3) ** 2), 1e-3 / (0.01 + (x - 1.7) ** 2)))


def test_halved_vector_integrand_ranks_its_panels_per_component():
    """Badness scales each component by the tolerance of the halves' first
    estimate. Without it the larger component ranks every panel, and the
    smaller one's peak waits for a sweep of its own."""
    exact = np.array([1e3 * (math.atan(17.0) + math.atan(3.0)) / 0.1,
                      1e-3 * (math.atan(3.0) + math.atan(17.0)) / 0.1])
    whole = integrate_adaptive(_far_apart, 0.0, 2.0, TIGHT)
    res = integrate_adaptive(_far_apart, 0.0, 2.0, TIGHT, halved=True)
    assert res.converged
    for value, err, ref in zip(res.value, res.error_estimate, exact):
        assert abs(value - ref) <= err <= TIGHT.rel_tol * abs(ref)
    assert res.evaluations == whole.evaluations - 15
    assert res.error_estimate.tobytes() == whole.error_estimate.tobytes()


def test_halved_evaluations_count_the_abscissae():
    lone, seen = [], []
    res = integrate_adaptive(lambda x: lone.append(x.size) or _peak(x), 0.0, 2.0,
                             TIGHT, halved=True)
    assert lone[0] == 30 and sum(lone) == res.evaluations

    def spy(arg):
        seen.append(arg[1].copy())
        return _narrow(arg)

    batch = integrate_adaptive(spy, *NARROW_ENDS, TIGHT, batch=5, halved=True)
    members = np.concatenate(seen)
    assert np.array_equal(np.bincount(members, minlength=5), batch.evaluations)
    assert np.array_equal(seen[0], np.repeat(np.arange(5), 30))


def test_halved_start_with_one_subdivision_is_the_whole_panel():
    spec = QuadratureSpec(rel_tol=1e-10, abs_tol=1e-30, max_subdivisions=1)
    whole = integrate_adaptive(_peak, 0.0, 2.0, spec)
    halved = integrate_adaptive(_peak, 0.0, 2.0, spec, halved=True)
    assert (halved.value, halved.error_estimate, halved.evaluations,
            halved.converged) == (whole.value, whole.error_estimate, 15, False)


def test_halved_member_at_the_width_floor_starts_whole():
    # member 1's interval is a few ulps wide: it is one panel, which meets
    # its tolerance, while member 0 starts from its halves
    lo, hi = np.array([0.0, 1.0]), np.array([2.0, 1.0 + 4 * np.finfo(float).eps])

    def f(arg):
        x, j = arg
        return np.where(j == 0, _peak(x), x * x)

    res = integrate_adaptive(f, lo, hi, TIGHT, batch=2, halved=True)
    alone = integrate_adaptive(_peak, 0.0, 2.0, TIGHT, halved=True)
    assert res.converged.all()
    assert res.evaluations.tolist() == [alone.evaluations, 15]
    assert res.value[0] == alone.value


def test_halved_cubic_converges_on_its_halves():
    # one panel resolves a cubic; its two halves do too, for 30 evaluations
    res = integrate_adaptive(lambda x: x ** 3, 0.0, 1.0, SPEC, halved=True)
    assert res.converged and res.evaluations == 30
    assert res.value == pytest.approx(0.25, rel=1e-15)


# ---------------------------------------------------------------------------
# _tail_start
# ---------------------------------------------------------------------------

def test_nonzero_lower_limit():
    """Below _TAIL_SWITCH the tail starts there whatever the lower limit,
    and e^-x, which decays, is integrable."""
    for a in (0.0, 3.0, -5.0):
        assert _tail_start(lambda x: np.exp(-x), a) == (_TAIL_SWITCH, True)


def test_lower_limit_beyond_tail_switch():
    # from _TAIL_SWITCH on the tail starts at a + max(1, |a|)
    assert _tail_start(lambda x: x ** -3, 25.0) == (50.0, True)
    assert _tail_start(lambda x: x ** -3, _TAIL_SWITCH) == (2.0 * _TAIL_SWITCH, True)


def test_non_decaying_integrand_flagged():
    assert _tail_start(lambda x: 1.0 / (1.0 + x), 0.0) == (_TAIL_SWITCH, False)


def test_growing_integrand_flagged_without_overflow_crash():
    # e^x overflows at the far probe: flagged, with no floating-point error
    with np.errstate(all="raise"):
        for f in (lambda x: x / (1.0 + np.sqrt(x)), np.exp):
            assert _tail_start(f, 0.0) == (_TAIL_SWITCH, False)


def test_vector_tail_with_one_growing_component_flagged():
    assert _tail_start(lambda x: np.stack((np.exp(-x), 1.0 / (1.0 + x ** 2))), 0.0)[1]
    assert not _tail_start(lambda x: np.stack((np.exp(-x), 1.0 / (1.0 + x))), 0.0)[1]


# ---------------------------------------------------------------------------
# error-estimate honesty
# ---------------------------------------------------------------------------

def _honesty_suite():
    """15 integrals with closed-form values: (runner, exact)."""
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
    return cases


def test_error_estimates_are_honest():
    suite = _honesty_suite()
    assert len(suite) == 15
    honest = 0
    for runner, exact in suite:
        res = runner()
        assert res.converged
        true_err = abs(res.value - exact)
        if true_err <= 3.0 * max(res.error_estimate, 5e-16 * abs(exact)):
            honest += 1
    assert honest >= math.ceil(0.95 * len(suite))  # all 15
