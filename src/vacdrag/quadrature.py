"""Deterministic adaptive quadrature.

Everything downstream (Green functions, reflection integrals, rates) funnels
through the three entry points here: a finite-interval adaptive integrator
built on an embedded Gauss/Kronrod pair, a principal-value integrator using
symmetric pole folding, and a semi-infinite integrator with a 1/x tail map.
All three share one adaptive loop (`_adapt`).

Integrands receive a 1-D ndarray of n abscissae and return values of shape
(..., n): a plain integrand returns shape (n,), a vector integrand stacks
any number of components in front. Every component has its own stop test,
err_c <= max(rel_tol |value_c|, abs_tol), so a component many decades below
the others still meets the relative tolerance. Vector integrands give
ndarray values and error estimates of the component shape; plain ones give
a float or complex and a float.

The loop bisects in sweeps. Each sweep ranks the panels worst first
(leftmost on a tie), bisects the shortest prefix whose error must go for
every component to meet its tolerance, and evaluates all the children in
one integrand call, so an integrand sees 15 abscissae per child panel and
a sweep costs one call however many panels it bisects. Each panel's sums
over its 15 abscissae and the totals over the panels, which run
sequentially in spatial order, are the same as in a one-panel-at-a-time
loop, so repeated runs are bit-identical.

`integrate_adaptive(..., batch=m)` runs m independent integrals over one
interval in lockstep, through the same loop: each keeps its own panels,
per-component tolerances and max_subdivisions budget, and makes the
bisections it would make alone, while one integrand call per sweep serves
the children of all of them. An integral leaves the working set once it
converges or runs out of budget. A batch integrand is called with one
argument, the pair (x, member) of abscissae and the index of the integral
each belongs to; a single integral is the loop with one member.

Integrands are evaluated with floating-point warnings suppressed, and their
values are taken in C order, so the panel sums run in one order whatever
memory layout an integrand returns. Any non-finite result aborts with the
leftmost offending abscissa of the sweep. QuadratureSpec and
NonConvergenceError are defined in specs and re-exported here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .specs import NonConvergenceError, QuadratureSpec

__all__ = [
    "IntegralResult",
    "NonConvergenceError",
    "QuadratureSpec",
    "integrate_adaptive",
    "integrate_semi_infinite",
    "principal_value",
    "worst_component",
]

_EPS = np.finfo(float).eps
_TINY_RESABS = np.finfo(float).tiny / (50.0 * _EPS)
_sum = np.add.reduce

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
    with np.errstate(all="ignore"):
        # C order fixes the order of the panel sums whatever layout f returns
        y = np.ascontiguousarray(f(x if member is None else (x, member)))
    if y.shape[-1:] != x.shape:
        raise ValueError("integrand must return values of shape (..., n) "
                         "for n abscissae")
    if not np.isfinite(y).all():
        bad = ~np.isfinite(y).reshape(-1, x.size).all(axis=0)
        raise ValueError(f"integrand returned a non-finite value at "
                         f"x = {float(x[bad].min()):.6g}")
    return y


def _panel(f, a, b, member=None):
    """Kronrod estimates and QUADPACK-style error bounds, one per component.

    With float ends, of the panel [a, b]: shape (...). With ndarray ends, of
    the panels [a_i, b_i], all from one integrand call on their 15 m
    abscissae: shape (..., m), the component shape and then one entry per
    panel. With `member`, the batch member of each panel, the integrand is
    called with the pair (abscissae, member of each abscissa).
    """
    width = b - a
    half = 0.5 * width
    mid = 0.5 * (a + b)
    if np.ndim(a):
        x = (mid[:, None] + half[:, None] * _NODES).ravel()
        y = _eval(f, x, None if member is None else np.repeat(member, 15))
        y = y.reshape(y.shape[:-1] + (a.size, 15))
    else:
        y = _eval(f, mid + half * _NODES)
    k15 = half * _sum(_W_KRONROD * y, axis=-1)
    g7 = half * _sum(_W_GAUSS * y, axis=-1)
    scale = abs(half)
    resabs = scale * _sum(_W_KRONROD * np.abs(y), axis=-1)
    mean = k15 / width
    resasc = scale * _sum(_W_KRONROD * np.abs(y - mean[..., None]), axis=-1)
    err = np.abs(k15 - g7)
    # where resasc == 0 the integrand is constant and the floor below wins
    err = resasc * np.minimum(1.0, (200.0 * err / (resasc + (resasc == 0.0))) ** 1.5)
    err = np.maximum(err, 50.0 * _EPS * resabs * (resabs > _TINY_RESABS))
    return k15, err


def _finish(value, err, evals, converged):
    if np.ndim(value) == 0:
        value = complex(value) if np.iscomplexobj(value) else float(value)
        err = float(err)
    return IntegralResult(value, err, int(evals), bool(converged))


def _rows(x, at, size, width):
    """The entries of x (..., N) one integral to a row: entry q at flat
    place at[q] of a zero array (..., size, width)."""
    grid = np.zeros(x.shape[:-1] + (size * width,), dtype=x.dtype)
    grid[..., at] = x
    return grid.reshape(x.shape[:-1] + (size, width))


def _sums(x, slot, col, counts, size):
    """Each working integral's sum of its entries of x (..., N), sequential
    in spatial order: shape (..., size)."""
    if size == 1:
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
    if size == 1:
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


def _adapt(f, a, b, spec, batch=None):
    """The adaptive loop, in sweeps, until every component of every
    integral meets its own stop test or the integral's panel budget runs
    out.

    With batch=None, f is one integral over [a, b]. With batch=m, f holds m
    independent integrals over [a, b], which advance in lockstep: a sweep
    bisects each working integral's share of panels (see _split) and
    evaluates all their children in one call of f, and an integral leaves
    the working set once it converges or its budget runs out.

    The panels sit in flat arrays, grouped by integral and in spatial order
    within each, and each integral's values and errors are summed
    sequentially in that order. Badness scales a panel's error per
    component by the tolerances of its integral's first estimate. So an
    integral makes the same bisections and gives the same bits alone or in
    a batch. These are the panels the one-at-a-time worst-first loop of
    QUADPACK bisects, unless a child outranks a panel of its own prefix.
    """
    budget = spec.max_subdivisions
    if batch is None:
        # one integral: its first panel with float ends, the cheapest call
        value, err = _panel(f, a, b)
        tol = _tolerance(value, spec)
        converged = (err <= tol).all()
        if converged or budget <= 1:
            # 0.0 + turns a -0.0 total into 0.0, as a sum from zero would
            return 0.0 + value, err, 15, converged
        value, err, tol = value[..., None], err[..., None], tol[..., None]
        size = 1
        # no slots or places: a working set of one sums and ranks its
        # panels directly (_sums, _split), without the per-integral rows.
        # Run as a batch of one, green-checks, all single integrals, read
        # 22% more op_s (10/10 pairs)
        ids = slot = col = counts = None
    else:
        size = batch
        # the integral in each working slot; each panel's slot and its
        # place among its integral's panels; each integral's panel count
        ids = slot = np.arange(size)
        col = np.zeros(size, dtype=np.intp)
        counts = np.ones(size, dtype=np.intp)
        pa, pb = np.full(size, a), np.full(size, b)
        value, err = _panel(f, pa, pb, ids)
        tol = _tolerance(value, spec)
    vals, errs, inv_scale = value, err, 1.0 / tol
    while True:
        if batch is not None:
            ok = (err <= tol).reshape(-1, size).all(axis=0)
            done = ok | (counts >= budget)
            if done.any():
                if size == batch:
                    out = (np.empty_like(value), np.empty_like(err),
                           np.empty(batch, dtype=np.intp),
                           np.empty(batch, dtype=bool))
                gone = ids[done]
                out[0][..., gone] = 0.0 + value[..., done]
                out[1][..., gone] = err[..., done]
                out[2][gone] = 30 * counts[done] - 15
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
        n = errs.shape[-1]
        if n == size:
            # the first sweep: each integral halves its one panel [a, b]
            pick, split, m = slice(None), 1, n
            mid = 0.5 * (a + b)
            ca, cb = np.array([a, mid] * n), np.array([mid, b] * n)
        else:
            pick, split = _split(errs, inv_scale, tol, slot, col, counts, budget)
            m = pick.size
            lo, hi = pa[pick], pb[pick]
            mid = 0.5 * (lo + hi)
            ca = np.repeat(lo, 2)
            ca[1::2] = mid
            cb = np.repeat(hi, 2)
            cb[::2] = mid
        cv, ce = _panel(f, ca, cb,
                        None if batch is None else np.repeat(ids[slot[pick]], 2))
        if m == n:
            pa, pb, vals, errs = ca, cb, cv, ce
            if batch is not None:
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
            if batch is not None:
                slot = np.repeat(slot, reps)
        n += m
        if size > 1:
            counts += split
            col = np.arange(n) - (np.cumsum(counts) - counts)[slot]
        elif batch is not None:
            counts[0] = n       # a lone integral needs no places
        value = _sums(vals, slot, col, counts, size)
        err = _sums(errs, slot, col, counts, size)
        tol = _tolerance(value, spec)
        if batch is None:
            converged = (err <= tol).all()
            if converged or n >= budget:
                return 0.0 + value[..., 0], err[..., 0], 30 * n - 15, converged


def integrate_adaptive(f, a, b, spec: QuadratureSpec,
                       batch: int | None = None) -> IntegralResult:
    """Integrate f over the finite interval [a, b] to spec tolerances.

    With batch=m, f holds m independent integrals over [a, b] that advance
    in lockstep: it is called with one argument, the pair (x, member), and
    returns (..., n) values, column j belonging to integral member[j] at
    x[j]. The result then has ndarrays of shape (..., m) for value and
    error_estimate and of shape (m,) for evaluations and converged, each
    entry as integrating that member alone would give.
    """
    a, b = float(a), float(b)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("integration limits must be finite")
    if not a < b:
        raise ValueError("require a < b")
    if batch is None:
        return _finish(*_adapt(f, a, b, spec))
    if not (isinstance(batch, (int, np.integer)) and batch >= 1):
        raise ValueError("batch must be a positive integer")
    return IntegralResult(*_adapt(f, a, b, spec, int(batch)))


def principal_value(f, pole, a, b, spec: QuadratureSpec,
                    window: float | None = None) -> IntegralResult:
    """Cauchy principal value of f over [a, b] with a simple pole inside.

    The pole is handled by folding a symmetric window onto [0, w] where the
    odd part cancels analytically; the remainder is regular and is integrated
    adaptively. `window` overrides the default half-distance window.
    """
    pole, a, b = float(pole), float(a), float(b)
    if not a < b:
        raise ValueError("require a < b")
    dmin = min(pole - a, b - pole)
    if dmin <= 1e-12 * (b - a):
        raise ValueError("pole must lie strictly inside the interval")
    w = 0.5 * dmin if window is None else float(window)
    if not 0.0 < w <= dmin:
        raise ValueError("window must lie within the interval on both sides")

    def folded(t):
        return f(pole + t) + f(pole - t)

    parts = [_adapt(folded, 0.0, w, spec)]
    if a < pole - w:
        parts.append(_adapt(f, a, pole - w, spec))
    if pole + w < b:
        parts.append(_adapt(f, pole + w, b, spec))
    value = sum(p[0] for p in parts)
    err = sum(p[1] for p in parts)
    evals = sum(p[2] for p in parts)
    return _finish(value, err, evals, all(p[3] for p in parts))


def integrate_semi_infinite(f, a, spec: QuadratureSpec) -> IntegralResult:
    """Integrate f over [a, infinity) assuming decay beyond spec.tail_switch.

    The head is integrated directly; the tail is mapped by x -> 1/u. A cheap
    pre-pass checks that x^2 |f| is not growing far out; if it is, in any
    component, the tail is not integrable at this precision and the result
    is flagged unconverged.
    """
    a = float(a)
    if not math.isfinite(a):
        raise ValueError("lower limit must be finite")
    s = spec.tail_switch
    if a >= s:
        s = a + max(1.0, abs(a))
    probes = np.array([s, 2.0 * s, 50.0 * s, 100.0 * s])
    with np.errstate(all="ignore"):
        y = np.asarray(f(probes))
        weight = np.abs(y) * probes ** 2
    grows = not np.isfinite(weight).all() or \
        (weight[..., -1] > 3.0 * np.maximum(weight[..., 0], 1e-300)).any()
    head = _adapt(f, a, s, spec)
    if grows:
        return _finish(head[0], head[1] + math.inf, head[2] + 4, False)

    def tail(u):
        return f(1.0 / u) / u ** 2

    tl = _adapt(tail, 0.0, 1.0 / s, spec)
    return _finish(head[0] + tl[0], head[1] + tl[1], head[2] + tl[2] + 4,
                   head[3] and tl[3])
