"""Deterministic adaptive quadrature.

Everything downstream (Green functions, dispersion integrals, rates)
funnels through one entry point here, `integrate_adaptive`, a
finite-interval adaptive integrator built on an embedded Gauss/Kronrod pair.
It runs one adaptive loop (`_adapt`), in which every integral is a member of
a lockstep batch over its own interval. Callers map their own variables
onto finite intervals (a principal value's fold about its pole, a 1/u tail
beyond `_tail_start`'s s) and run the pieces as members of one batch.

Integrands receive a 1-D ndarray of n abscissae and return values of shape
(..., n): a plain integrand returns shape (n,), a vector integrand stacks
any number of components in front. Every component has its own stop test,
err_c <= max(rel_tol |value_c|, abs_tol), so a component many decades below
the others still meets the relative tolerance. Vector integrands give
ndarray values and error estimates of the component shape; plain ones give
a float or complex and a float.

The loop bisects in sweeps. Each sweep ranks each integral's panels worst
first (leftmost on a tie), bisects the shortest prefix whose error must go
for every component to meet its tolerance, and evaluates the children of
all the integrals in one integrand call, 15 abscissae per child. Each
integral keeps its own panels, tolerances and max_subdivisions budget, and
sums its panels sequentially in spatial order, so it gives the same bits
alone or in a batch, run after run. It leaves the working set once it
converges or runs out of budget, or unconverged when a panel it must bisect
is at the width floor, its ends within 1000 eps of its midpoint, where the
outer abscissae of its halves could round onto their ends (an integrand
singular at an end).

An integral starts from its interval cut into equal panels of 15
abscissae, its two halves with `halved` (unless max_subdivisions is 1 or
it is at the width floor) and one panel otherwise; a bisection costs 30.
Halved, an integral that one panel cannot resolve skips a panel whose
estimate only scaled its badness, and one that it can pays a panel more.
Every batch the package builds starts halved: the dispersion pieces of
medium, greens' ky segments, the rate's ky integrals and its outer integral
with a light-cone crossing, but not that without one.

A lone `integrate_adaptive` is a batch of one, its integrand called with
the abscissae alone. With `batch=m` the integrand is called with the pair
(x, member) of abscissae and the index of the integral each belongs to.

A panel's four sums per component (the Kronrod and Gauss estimates, and
QUADPACK's resabs and resasc) are matrix products of its values y, taken
in C order as a row of 15, and of |y| and |y - mean|, with a constant (15,
2) matrix of the Kronrod and Gauss weights. BLAS gemm rounds a row the same
way however many rows share the call; a lone row, which numpy would send
to gemv, goes in twice. Floating-point warnings are suppressed in the
integrand and the sums. Every Kronrod weight is positive, so a non-finite
value makes resabs non-finite: only then are the values scanned, and a
non-finite one aborts with the leftmost offending abscissa of the sweep.
QuadratureSpec and NonConvergenceError are defined in specs and
re-exported here.

Three fast paths serve a lone integral: the lone branches of `_split` and
`_sums`, and `_adapt`'s guard on the panel places. Like the hot path's
other special cases they keep the general path's bits, and each names the
slowdown measured without it (in process, one CPU, best of 7 repeats).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .specs import NonConvergenceError, QuadratureSpec

__all__ = [
    "IntegralResult",
    "NonConvergenceError",
    "QuadratureSpec",
    "integrate_adaptive",
    "worst_component",
]

_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny
_TINY_RESABS = _TINY / (50.0 * _EPS)

# 15-point Kronrod abscissae (positive half) with the embedded 7-point Gauss
# rule on the odd indices; weights follow QUADPACK's dqk15.
_XGK = np.array([
    0.9914553711208126, 0.9491079123427585, 0.8648644233597691,
    0.7415311855993944, 0.5860872354676911, 0.4058451513773972,
    0.2077849550078985, 0.0,
])
_WGK = np.array([
    0.0229353220105292, 0.0630920926299785, 0.1047900103222502,
    0.1406532597155259, 0.1690047266392679, 0.1903505780647854,
    0.2044329400752989, 0.2094821410847278,
])
_WG = np.array([
    0.1294849661688697, 0.2797053914892767, 0.3818300505051189,
    0.4179591836734694,
])

_NODES = np.concatenate((-_XGK[:-1], _XGK[::-1]))          # ascending, 15 nodes
_W_KRONROD = np.concatenate((_WGK[:-1], _WGK[::-1]))
_W_GAUSS = np.zeros(15)
_W_GAUSS[1:14:2] = np.concatenate((_WG[:-1], _WG[::-1][:4]))
# columns: the Kronrod and the Gauss weights, so K15 and G7 are one product
_WEIGHTS = np.stack((_W_KRONROD, _W_GAUSS), axis=1)
_TWICE = np.zeros(2, dtype=np.intp)


@dataclass(frozen=True)
class IntegralResult:
    """Value and error estimate: a float (or complex) for a plain integrand,
    ndarrays of the component shape for a vector integrand. A batch of m
    integrals gives ndarrays with a trailing axis of m on value and
    error_estimate, and ndarrays of shape (m,) for evaluations and
    converged."""

    value: complex | np.ndarray
    error_estimate: float | np.ndarray
    evaluations: int | np.ndarray
    converged: bool | np.ndarray


def _tolerance(value, spec):
    return np.maximum(spec.rel_tol * np.abs(value), spec.abs_tol)


def worst_component(result: IntegralResult, spec: QuadratureSpec) -> tuple:
    """Index of the component of a vector result whose error estimate is
    largest relative to its tolerance under spec."""
    ratio = result.error_estimate / _tolerance(result.value, spec)
    return np.unravel_index(np.argmax(ratio), np.shape(ratio))


def _eval(f, x, member=None):
    # C order fixes the order of the panel sums whatever layout f returns
    y = np.ascontiguousarray(f(x if member is None else (x, member)))
    if y.shape[-1:] != x.shape:
        raise ValueError("integrand must return values of shape (..., n) "
                         "for n abscissae")
    return y


def _scan(x, y):
    """Raise for the leftmost abscissa of x at which a value of y (..., n)
    is not finite; return if every value is finite, as where a sum
    overflows."""
    bad = ~np.isfinite(y).reshape(-1, x.size).all(axis=0)
    if bad.any():
        raise ValueError(f"integrand returned a non-finite value at "
                         f"x = {float(x[bad].min()):.6g}")


def _panel(f, a, b, member=None):
    """Kronrod estimates and QUADPACK-style error bounds of the panels
    [a_i, b_i], all from one integrand call on their 15 m abscissae: shape
    (..., m), the component shape and then one entry per panel. With
    `member`, the batch member of each panel, the integrand is called with
    the pair (abscissae, member of each abscissa).
    """
    width = b - a
    half = 0.5 * width
    mid = 0.5 * (a + b)
    with np.errstate(all="ignore"):
        x = (mid[:, None] + half[:, None] * _NODES).ravel()
        y = _eval(f, x, None if member is None else np.repeat(member, 15))
        shape = y.shape[:-1] + (a.size,)
        # row r: component r // m at panel r % m, its 15 values in C order
        rows = y.reshape(-1, 15)
        n = rows.shape[0]
        if n == 1:
            # numpy sends a lone row to BLAS gemv, which rounds otherwise
            # than gemm: the row goes in twice, to get the bits of any other
            rows = rows.take(_TWICE, axis=0)
        sums = (rows @ _WEIGHTS)[:n].reshape(shape + (2,))
        k15 = half * sums[..., 0]
        g7 = half * sums[..., 1]
        absum = (np.abs(rows) @ _WEIGHTS)[:n, 0]
        # every Kronrod weight is positive: a non-finite value makes its
        # row's sum of |y| non-finite
        if not np.isfinite(absum).all():
            _scan(x, y)
        resabs = half * absum.reshape(shape)       # half > 0: b > a
        mean = k15 / width
        dev = np.abs(rows - mean.reshape(-1, 1))
        resasc = half * (dev @ _WEIGHTS)[:n, 0].reshape(shape)
    err = np.abs(k15 - g7)
    # where resasc == 0 the integrand is constant and the floor below wins
    err = resasc * np.minimum(1.0, (200.0 * err / (resasc + (resasc == 0.0))) ** 1.5)
    err = np.maximum(err, 50.0 * _EPS * resabs * (resabs > _TINY_RESABS))
    return k15, err


def _rows(x, at, size, width):
    """The entries of x (..., N) one integral to a row: entry q at flat
    place at[q] of a zero array (..., size, width)."""
    grid = np.zeros(x.shape[:-1] + (size * width,), dtype=x.dtype)
    grid[..., at] = x
    return grid.reshape(x.shape[:-1] + (size, width))


def _sums(x, slot, col, counts, size):
    """Each working integral's sum of its entries of x (..., N), sequential
    in spatial order: shape (..., size)."""
    if size == 1:   # lone paths (3): green-checks +10-12%, golden-rule +5-7% without
        return np.add.accumulate(x, axis=-1)[..., -1:]
    width = counts.max()
    return np.add.accumulate(_rows(x, slot * width + col, size, width),
                             axis=-1)[..., -1]


def _split(errs, inv_scale, tol, slot, col, counts, budget):
    """The panels to bisect in a sweep, as sorted places, and how many of
    each working integral's.

    Each integral's panels are ranked by badness, worst first and leftmost
    on a tie, and its share is the shortest prefix whose error must go for
    every component to meet its tolerance, capped by its budget. The error
    a prefix leaves is an exact sequential sum, best panel first.
    """
    size, n = inv_scale.shape[-1], errs.shape[-1]
    if errs.ndim > 1:
        scale = inv_scale if size == 1 else inv_scale[..., slot]
        bad = (errs * scale).reshape(-1, n).max(axis=0)
    else:
        bad = errs
    if size == 1:   # lone paths (3): green-checks +10-12%, golden-rule +5-7% without
        order = np.argsort(-bad, kind="stable")
        # rest[i]: the error left once the n - 1 - i worst are bisected
        rest = np.add.accumulate(errs[..., order[::-1]], axis=-1)
        enough = (rest <= tol).reshape(-1, n).all(axis=0)
        m = min(n - int(np.count_nonzero(enough[:-1])), budget - n)
        return np.sort(order[:m]), m
    # grouped by integral, so entry q of order has rank col[q] in its own;
    # row g of rest: integral g's errors summed best first after zero pads
    order = np.lexsort((-bad, slot))
    width = counts.max()
    rest = np.add.accumulate(
        _rows(errs[..., order], slot * width + (width - 1 - col), size, width),
        axis=-1)
    enough = (rest <= tol[..., None]).reshape(-1, size, width).all(axis=0)
    split = np.minimum(width - np.count_nonzero(enough[:, :-1], axis=1),
                       budget - counts)
    return np.sort(order[col < split[slot]]), split


def _at_floor(lo, hi):
    """Whether the panels [lo, hi] are too narrow to bisect: their ends lie
    within 1000 eps of their midpoint, or the panels are near the bottom of
    the normal range. This is QUADPACK's test with 1000 eps for its 100
    eps: the outer abscissae of a half sit 0.0043 of its width inside its
    ends, and this keeps them more than an ulp and a rounded midpoint away.
    Near zero, where floats are dense, a panel shrinks far below eps."""
    mid = np.abs(0.5 * (lo + hi)) + 1000.0 * _TINY
    return np.maximum(np.abs(lo), np.abs(hi)) <= (1.0 + 1000.0 * _EPS) * mid


def _adapt(f, a, b, spec, halved=False):
    """The adaptive loop for m integrals over their own intervals [a_i,
    b_i], in lockstep: (value, error, evaluations, converged), each with a
    trailing axis of m. With ndarray ends f is called with the pair (x,
    member); with float ends it is one integral, called with x alone.
    Each integral starts from its interval cut into `counts` equal panels:
    its two halves with `halved`, unless max_subdivisions is 1 or the
    interval is at the width floor (_at_floor), and one panel otherwise.

    The panels sit in flat arrays, grouped by integral and in spatial order
    within each. Badness scales a panel's error per component by the
    tolerances of its integral's first estimate. These are the panels the
    one-at-a-time worst-first loop of QUADPACK bisects, unless a child
    outranks a panel of its own prefix.
    """
    budget = min(spec.max_subdivisions, sys.maxsize)     # beyond intp: unlimited
    pair = np.ndim(a) > 0
    pa, pb = np.atleast_1d(a), np.atleast_1d(b)
    batch = size = pa.size
    # a panel at the floor (_at_floor) is at most 2000 (eps max(|a|, |b|) +
    # tiny) wide, and after s sweeps no panel is narrower than about
    # (b - a) / 2^s, so the sweeps before `deep` need not look for one
    floor = 2000.0 * (_EPS * np.maximum(np.abs(pa), np.abs(pb)) + _TINY)
    deep = math.log2(((pb - pa) / floor).min()) - 1.0
    # the integral in each working slot; each integral's panel count, 2 when
    # halved; each panel's slot and its place among its integral's panels
    ids = np.arange(size)
    counts = np.ones(size, dtype=np.intp)
    if halved and budget > 1:
        counts += ~_at_floor(pa, pb)
    slot = np.repeat(ids, counts)
    col = np.arange(slot.size) - (np.cumsum(counts) - counts)[slot]
    mid = (0.5 * (pa + pb))[slot]
    pa = np.where(col > 0, mid, pa[slot])
    pb = np.where(col + 1 < counts[slot], mid, pb[slot])
    level = counts.max() - 1
    vals, errs = _panel(f, pa, pb, slot if pair else None)
    value = _sums(vals, slot, col, counts, size)
    err = _sums(errs, slot, col, counts, size)
    stuck = np.zeros(size, dtype=bool)
    # 15 abscissae a starting panel and 30 a bisection: 30 counts - start
    start = 15 * counts
    tol = _tolerance(value, spec)
    inv_scale = 1.0 / tol
    while True:
        ok = (err <= tol).reshape(-1, size).all(axis=0)
        done = ok | (counts >= budget) | stuck
        if done.any():
            if size == batch:
                out = (np.empty_like(value), np.empty_like(err),
                       np.empty(batch, dtype=np.intp), np.empty(batch, dtype=bool))
            gone = ids[done]
            # 0.0 + turns a -0.0 total into 0.0, as a sum from zero would
            out[0][..., gone] = 0.0 + value[..., done]
            out[1][..., gone] = err[..., done]
            out[2][gone] = 30 * counts[done] - start[gone]
            out[3][gone] = ok[done]
            if done.all():
                return out
            live = ~done
            keep = live[slot]
            slot = (np.cumsum(live) - 1)[slot[keep]]
            pa, pb, col = pa[keep], pb[keep], col[keep]
            vals, errs = vals[..., keep], errs[..., keep]
            ids, counts = ids[live], counts[live]
            tol, inv_scale = tol[..., live], inv_scale[..., live]
            size = ids.size
            stuck = np.zeros(size, dtype=bool)
        n = errs.shape[-1]
        pick, split = _split(errs, inv_scale, tol, slot, col, counts, budget)
        m = pick.size
        lo, hi = pa[pick], pb[pick]
        if level >= deep:       # golden-rule and rate-points +1-2% without the gate
            narrow = _at_floor(lo, hi)
            if narrow.any():
                # the integral stops unconverged, as on a spent budget
                stuck[slot[pick[narrow]]] = True
                continue
        mid = 0.5 * (lo + hi)
        ca = np.repeat(lo, 2)
        ca[1::2] = mid
        cb = np.repeat(hi, 2)
        cb[::2] = mid
        cv, ce = _panel(f, ca, cb, np.repeat(ids[slot[pick]], 2) if pair else None)
        if m == n:      # all bisected: green-checks +0.9%, golden-rule +0.5% without
            pa, pb, vals, errs = ca, cb, cv, ce
            slot = np.repeat(slot, 2)
        else:
            # each parent's entry becomes its two children's, in place
            reps = np.ones(n, dtype=np.intp)
            reps[pick] = 2
            left = pick + np.arange(m)
            slots = np.repeat(left, 2)
            slots[1::2] += 1
            pa, pb = np.repeat(pa, reps), np.repeat(pb, reps)
            pa[left + 1] = mid
            pb[left] = mid
            vals = np.repeat(vals, reps, axis=-1)
            errs = np.repeat(errs, reps, axis=-1)
            vals[..., slots] = cv
            errs[..., slots] = ce
            slot = np.repeat(slot, reps)
        n += m
        level += 1
        counts += split
        if size > 1:        # lone paths (see _sums): a lone integral needs no places
            col = np.arange(n) - (np.cumsum(counts) - counts)[slot]
        value = _sums(vals, slot, col, counts, size)
        err = _sums(errs, slot, col, counts, size)
        tol = _tolerance(value, spec)


def integrate_adaptive(f, a, b, spec: QuadratureSpec, batch: int | None = None,
                       halved: bool = False) -> IntegralResult:
    """Integrate f over the finite interval [a, b] to spec tolerances.

    With batch=m, f holds m independent integrals that advance in lockstep,
    member i over [a_i, b_i]: a and b are numbers, shared by every member,
    or arrays of m ends. f is called with one argument, the pair (x,
    member), and returns (..., n) values, column j belonging to integral
    member[j] at x[j]. The result then has ndarrays of shape (..., m) for
    value and error_estimate and of shape (m,) for evaluations and
    converged, each entry as integrating that member alone would give.

    With halved=True every integral starts from the two halves of its
    interval, unless max_subdivisions is 1 or the interval is at the width
    floor. Where one panel over the interval cannot meet the tolerance, a
    plain integrand gets the default start's bits for 15 fewer evaluations
    (30 per panel held, less 30), and a vector one takes its badness scale
    from the halves' estimate; where one panel can, it costs 15 more. So the
    default stays whole, and the package's batches pass it (module docstring).
    """
    if not (batch is None or isinstance(batch, (int, np.integer)) and batch >= 1):
        raise ValueError("batch must be a positive integer")
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape not in ((), (batch,)) or b.shape not in ((), (batch,)):
        raise ValueError("the ends must be numbers, or arrays of one end per member")
    if not (np.isfinite(a) & np.isfinite(b)).all():
        raise ValueError("integration limits must be finite")
    if not (a < b).all():
        raise ValueError("require a < b")
    if batch is None:
        value, err, evals, converged = (r[..., 0] for r in _adapt(
            f, float(a), float(b), spec, halved))
        if np.ndim(value) == 0:
            value = complex(value) if np.iscomplexobj(value) else float(value)
            err = float(err)
        return IntegralResult(value, err, int(evals), bool(converged))
    return IntegralResult(*_adapt(f, np.full(batch, a), np.full(batch, b), spec,
                                  halved))


# Where a semi-infinite integral's tail begins, for a lower limit below it.
_TAIL_SWITCH = 10.0


def _tail_start(f, a):
    """(s, integrable) for f's integral over [a, infinity): the head [a, s]
    is a plain integral and the tail maps onto (0, 1/s] by x = 1/u. A cheap
    pre-pass of 4 values finds x^2 |f| growing far out, in some component:
    then the tail is not integrable at this precision."""
    s = _TAIL_SWITCH
    if a >= s:
        s = a + max(1.0, abs(a))
    probes = np.array([s, 2.0 * s, 50.0 * s, 100.0 * s])
    with np.errstate(all="ignore"):
        weight = np.abs(np.asarray(f(probes))) * probes ** 2
    return s, bool(np.isfinite(weight).all() and not (
        weight[..., -1] > 3.0 * np.maximum(weight[..., 0], 1e-300)).any())
