"""Span tracer for the traced benchmark run.

The tracer wraps module-level functions of the `vacdrag` package at each
layer boundary from outside the package. Modules import their callees by name
(`rates.chi`, `rates.integrate_adaptive`, `greens._adapt`, ...), so a wrapper
is installed on every binding of the original object in every loaded
`vacdrag` module, and removed again by `uninstall`. Nothing under `src/`
changes.

Each wrapped call records one span: name, start, end and parent span. Spans
stay in memory (flat arrays) until the run ends, when `dump` writes them to
an `.npz` file and `layer_metrics` turns them into the per-layer numbers. A
layer's self time is its spans' durations minus the time their child spans
cover. A name that is missing at the commit under test is recorded as absent,
and every metric that needs it is reported as absent (value null).
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time
from array import array

import numpy as np

_clock = time.perf_counter

# (module, attribute, span name) for plain span wrappers.
_SPANS = [
    ("quadrature", "integrate_adaptive", "quadrature.integrate_adaptive"),
    ("quadrature", "principal_value", "quadrature.principal_value"),
    ("quadrature", "integrate_semi_infinite", "quadrature.integrate_semi_infinite"),
    ("medium", "kk_reconstruct", "medium.kk_reconstruct"),
    ("medium", "verify_identity_1", "medium.verify_identity_1"),
    ("kinematics", "lorentz_gamma", "kinematics.lorentz_gamma"),
    ("kinematics", "doppler", "kinematics.doppler"),
    ("kinematics", "coupling_tensors", "kinematics.coupling_tensors"),
    ("kinematics", "moving_susceptibility_tensors",
     "kinematics.moving_susceptibility_tensors"),
    ("greens", "_dyad_pair", "greens._dyad_pair"),
    ("greens", "_reflected_green", "greens._reflected_green"),
    ("greens", "reflection_coefficients", "greens.reflection_coefficients"),
    ("greens", "surface_green_coincident", "greens.surface_green_coincident"),
    ("greens", "green_dissipation_identity", "greens.green_dissipation_identity"),
    ("greens", "reciprocity_check", "greens.reciprocity_check"),
    ("rates", "rate_surface", "rates.rate_surface"),
    ("rates", "_channel_rate", "rates._channel_rate"),
    ("rates", "finite_time_probability", "rates.finite_time_probability"),
    ("cli", "scenario_from_dict", "cli.scenario_from_dict"),
    ("cli", "run_scenario", "cli.run_scenario"),
    ("cli", "emit_results", "cli.emit_results"),
]

# Vectorized kernels: a span plus a count of the points evaluated; the
# second field is the index of the argument whose size is the point count.
_KERNELS = [
    ("medium", "chi", 2, "medium.chi"),
    ("greens", "_xi_vacuum", 0, "greens._xi_vacuum"),
    ("greens", "_xi_medium", 0, "greens._xi_medium"),
    ("greens", "_fresnel_amplitudes", 2, "greens._fresnel_amplitudes"),
]

_QUAD_SPANS = ("quadrature.integrate_adaptive", "quadrature.principal_value",
               "quadrature.integrate_semi_infinite", "quadrature._adapt")
_INTEGRAND_SPANS = ("quadrature.integrand", "rates.outer_integrand",
                    "rates.density")
_KINEMATICS_SPANS = tuple(s[2] for s in _SPANS if s[0] == "kinematics")
_GREENS_KERNEL_SPANS = ("greens._xi_vacuum", "greens._xi_medium",
                        "greens._fresnel_amplitudes")

# Per-layer metric -> (unit, wrapped names it needs).
METRICS = {
    "quadrature.integrals": ("count", ["quadrature._adapt"]),
    "quadrature.panels": ("count", ["quadrature._panel"]),
    "quadrature.self_s": ("s", ["quadrature._adapt"]),
    "quadrature.integrand_s": ("s", ["quadrature._adapt"]),
    "quadrature.max_panels": ("count", ["quadrature._adapt", "quadrature._panel"]),
    "medium.chi_calls": ("count", ["medium.chi"]),
    "medium.chi_points": ("count", ["medium.chi"]),
    "medium.chi_s": ("s", ["medium.chi"]),
    "medium.kk_s": ("s", ["medium.kk_reconstruct"]),
    "medium.identity_s": ("s", ["medium.verify_identity_1"]),
    "kinematics.calls": ("count", ["kinematics.doppler"]),
    "kinematics.self_s": ("s", ["kinematics.doppler"]),
    "tensors.constructions": ("count", ["tensors.ComplexTensor3"]),
    "greens.kernel_calls": ("count", ["greens._xi_medium", "greens._fresnel_amplitudes"]),
    "greens.kernel_points": ("count", ["greens._xi_medium", "greens._fresnel_amplitudes"]),
    "greens.kernel_s": ("s", ["greens._xi_medium", "greens._fresnel_amplitudes"]),
    "greens.dyad_calls": ("count", ["greens._dyad_pair"]),
    "greens.dyad_s": ("s", ["greens._dyad_pair"]),
    "greens.reflected_green_calls": ("count", ["greens._reflected_green"]),
    "greens.reflected_green_s": ("s", ["greens._reflected_green"]),
    "rates.rate_calls": ("count", ["rates.rate_surface"]),
    "rates.outer_integrals": ("count", ["rates.integrate_adaptive"]),
    "rates.inner_integrals": ("count", ["rates.integrate_adaptive"]),
    "rates.density_calls": ("count", ["rates.integrate_adaptive", "quadrature._adapt"]),
    "rates.density_self_s": ("s", ["rates.integrate_adaptive", "quadrature._adapt"]),
    "rates.spline_builds": ("count", ["rates._rate_spline"]),
    "rates.spline_build_s": ("s", ["rates._rate_spline"]),
    "rates.spline_cache_hits": ("count", ["rates._rate_spline"]),
    "rates.convolution_s": ("s", ["rates.finite_time_probability"]),
    "cli.process_start_s": ("s", ["cli.main"]),
    "cli.validate_s": ("s", ["cli.scenario_from_dict"]),
    "cli.run_scenario_s": ("s", ["cli.run_scenario"]),
    "cli.emit_s": ("s", ["cli.emit_results"]),
    "cli.cache_hits": ("count", ["cli.cache_lookup_or_compute", "cli.run_scenario"]),
    "cli.cache_misses": ("count", ["cli.cache_lookup_or_compute", "cli.run_scenario"]),
    "cli.cache_s": ("s", ["cli.cache_lookup_or_compute"]),
    "cli.pool_s": ("s", ["cli._run_sweep"]),
}


class Labeled:
    """An integrand tagged with the span name its calls are recorded under."""

    __slots__ = ("fn", "label")

    def __init__(self, fn, label):
        self.fn = fn
        self.label = label

    def __call__(self, x):
        return self.fn(x)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("q")
        self._stack: list[int] = []
        self.counts = {"quadrature.panels": 0, "medium.chi_points": 0,
                       "greens.kernel_points": 0, "tensors.constructions": 0,
                       "rates.outer_integrals": 0, "rates.inner_integrals": 0,
                       "rates.spline_cache_hits": 0,
                       "cli.cache_hits": 0, "cli.cache_misses": 0}
        self.max_panels = 0
        self._panel_stack: list[int] = []
        self._rates_depth = 0
        self.absent: set[str] = set()
        self._patches: list = []

    # -- spans -----------------------------------------------------------
    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, name: str) -> int:
        idx = len(self.start)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.name.append(self._name_id(name))
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(_clock())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = _clock()
        self._stack.pop()

    def _rename(self, idx: int, name: str) -> None:
        self.name[idx] = self._name_id(name)

    def _span_wrapper(self, name, fn):
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
        return wrapper

    def _kernel_wrapper(self, name, fn, arg_index, counter):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[counter] += int(np.size(args[arg_index]))
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
        return wrapper

    def _adapt_wrapper(self, fn):
        tracer = self

        def wrapper(f, *args, **kwargs):
            if isinstance(f, Labeled):
                label, raw = f.label, f.fn
            else:
                label, raw = "quadrature.integrand", f

            def integrand(x):
                idx = tracer._open(label)
                try:
                    return raw(x)
                finally:
                    tracer._close(idx)

            tracer._panel_stack.append(0)
            idx = tracer._open("quadrature._adapt")
            try:
                return fn(integrand, *args, **kwargs)
            finally:
                tracer._close(idx)
                panels = tracer._panel_stack.pop()
                if panels > tracer.max_panels:
                    tracer.max_panels = panels
        return wrapper

    def _panel_wrapper(self, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.counts["quadrature.panels"] += 1
            if tracer._panel_stack:
                tracer._panel_stack[-1] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _rates_integrate_wrapper(self, fn):
        """rates.integrate_adaptive: outer (k) when not nested, inner (ky)
        when called from inside another rates integral; the inner integrand
        is the `density` closure."""
        tracer = self

        def wrapper(f, *args, **kwargs):
            if tracer._rates_depth == 0:
                tracer.counts["rates.outer_integrals"] += 1
                label = "rates.outer_integrand"
            else:
                tracer.counts["rates.inner_integrals"] += 1
                label = "rates.density"
            tracer._rates_depth += 1
            try:
                return fn(Labeled(f, label), *args, **kwargs)
            finally:
                tracer._rates_depth -= 1
        return wrapper

    def _spline_wrapper(self, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            before = fn.cache_info()
            idx = tracer._open("rates.spline_lookup")
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(idx)
                after = fn.cache_info()
                tracer.counts["rates.spline_cache_hits"] += after.hits - before.hits
                if after.misses > before.misses:
                    tracer._rename(idx, "rates.spline_build")
        wrapper.cache_info = fn.cache_info
        wrapper.cache_clear = fn.cache_clear
        return wrapper

    def _cache_wrapper(self, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            before = tracer._count("cli.run_scenario")
            idx = tracer._open("cli.cache_lookup_or_compute")
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(idx)
                key = "cli.cache_misses" if tracer._count("cli.run_scenario") > before \
                    else "cli.cache_hits"
                tracer.counts[key] += 1
        return wrapper

    def _sweep_wrapper(self, fn):
        tracer = self

        def wrapper(scenario, workers, *args, **kwargs):
            name = "cli._run_sweep[pool]" if workers > 1 else "cli._run_sweep"
            idx = tracer._open(name)
            try:
                return fn(scenario, workers, *args, **kwargs)
            finally:
                tracer._close(idx)
        return wrapper

    def _count(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            return 0
        return self.name.count(nid)

    # -- installation ----------------------------------------------------
    def _rebind(self, module: str, attr: str, make):
        """Replace every binding of vacdrag.<module>.<attr> in every loaded
        vacdrag module by make(original)."""
        key = f"{module}.{attr}"
        try:
            mod = importlib.import_module(f"vacdrag.{module}")
        except ImportError:
            self.absent.add(key)
            return
        orig = getattr(mod, attr, None)
        if orig is None:
            self.absent.add(key)
            return
        wrapper = make(orig)
        for mname, m in list(sys.modules.items()):
            if m is None or not (mname == "vacdrag" or mname.startswith("vacdrag.")):
                continue
            for k, v in list(vars(m).items()):
                if v is orig:
                    setattr(m, k, wrapper)
                    self._patches.append((m, k, orig))

    def install(self) -> "Tracer":
        for module, attr, name in _SPANS:
            self._rebind(module, attr, lambda f, n=name: self._span_wrapper(n, f))
        for module, attr, arg, name in _KERNELS:
            counter = "medium.chi_points" if module == "medium" \
                else "greens.kernel_points"
            self._rebind(module, attr,
                         lambda f, n=name, a=arg, c=counter:
                         self._kernel_wrapper(n, f, a, c))
        self._rebind("quadrature", "_adapt", self._adapt_wrapper)
        self._rebind("quadrature", "_panel", self._panel_wrapper)
        # after the generic pass, so it wraps the quadrature-level wrapper
        rates = sys.modules.get("vacdrag.rates")
        inner = getattr(rates, "integrate_adaptive", None)
        if inner is None:
            self.absent.add("rates.integrate_adaptive")
        else:
            setattr(rates, "integrate_adaptive",
                    self._rates_integrate_wrapper(inner))
            self._patches.append((rates, "integrate_adaptive", inner))
        if hasattr(getattr(rates, "_rate_spline", None), "cache_info"):
            self._rebind("rates", "_rate_spline", self._spline_wrapper)
        else:
            self.absent.add("rates._rate_spline")
        self._rebind("cli", "main", lambda f: self._span_wrapper("cli.main", f))
        self._rebind("cli", "cache_lookup_or_compute", self._cache_wrapper)
        self._rebind("cli", "_run_sweep", self._sweep_wrapper)
        self._install_tensor_counter()
        return self

    def _install_tensor_counter(self):
        try:
            cls = importlib.import_module("vacdrag.tensors").ComplexTensor3
        except (ImportError, AttributeError):
            self.absent.add("tensors.ComplexTensor3")
            return
        orig = cls.__dict__.get("__init__")
        if orig is None:
            self.absent.add("tensors.ComplexTensor3")
            return
        counts = self.counts

        def counting_init(obj, *args, **kwargs):
            counts["tensors.constructions"] += 1
            orig(obj, *args, **kwargs)
        type.__setattr__(cls, "__init__", counting_init)
        self._patches.append((cls, "__init__", orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            if isinstance(owner, type):
                type.__setattr__(owner, attr, orig)
            else:
                setattr(owner, attr, orig)
        self._patches.clear()

    # -- output ----------------------------------------------------------
    def arrays(self) -> dict:
        return {"names": np.array(self.names, dtype=str),
                "name": np.frombuffer(self.name, dtype=np.int64).copy(),
                "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
                "start": np.frombuffer(self.start, dtype=np.float64).copy(),
                "end": np.frombuffer(self.end, dtype=np.float64).copy()}

    def dump(self, path) -> None:
        """Write the spans, counters and absent names to one .npz file."""
        extra = dict(self.counts, **{"quadrature.max_panels": self.max_panels})
        np.savez(path, **self.arrays(),
                 count_keys=np.array(list(extra), dtype=str),
                 count_values=np.array(list(extra.values()), dtype=np.float64),
                 absent=np.array(sorted(self.absent), dtype=str))


def span_table(names, name, parent, start, end) -> dict:
    """Per span name: number of spans, total duration, total self time."""
    dur = end - start
    child = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_t = dur - child
    table = {}
    for nid, label in enumerate(names):
        sel = name == nid
        table[str(label)] = (int(sel.sum()), float(dur[sel].sum()),
                             float(self_t[sel].sum()))
    return table


def layer_metrics(table: dict, counts: dict, absent, main_walls=()) -> dict:
    """Per-layer metric values from a span table and counters.

    `main_walls` holds (invocation wall time, time inside cli.main) for each
    traced CLI process.
    """
    def n(*names):
        return sum(table.get(k, (0, 0.0, 0.0))[0] for k in names)

    def total(*names):
        return sum(table.get(k, (0, 0.0, 0.0))[1] for k in names)

    def own(*names):
        return sum(table.get(k, (0, 0.0, 0.0))[2] for k in names)

    starts = [wall - inside for wall, inside in main_walls]
    values = {
        "quadrature.integrals": n("quadrature._adapt"),
        "quadrature.panels": counts.get("quadrature.panels", 0),
        "quadrature.self_s": own(*_QUAD_SPANS),
        "quadrature.integrand_s": own(*_INTEGRAND_SPANS),
        "quadrature.max_panels": counts.get("quadrature.max_panels", 0),
        "medium.chi_calls": n("medium.chi"),
        "medium.chi_points": counts.get("medium.chi_points", 0),
        "medium.chi_s": own("medium.chi"),
        "medium.kk_s": total("medium.kk_reconstruct"),
        "medium.identity_s": total("medium.verify_identity_1"),
        "kinematics.calls": n(*_KINEMATICS_SPANS),
        "kinematics.self_s": own(*_KINEMATICS_SPANS),
        "tensors.constructions": counts.get("tensors.constructions", 0),
        "greens.kernel_calls": n(*_GREENS_KERNEL_SPANS),
        "greens.kernel_points": counts.get("greens.kernel_points", 0),
        "greens.kernel_s": own(*_GREENS_KERNEL_SPANS),
        "greens.dyad_calls": n("greens._dyad_pair"),
        "greens.dyad_s": own("greens._dyad_pair"),
        "greens.reflected_green_calls": n("greens._reflected_green"),
        "greens.reflected_green_s": total("greens._reflected_green"),
        "rates.rate_calls": n("rates.rate_surface"),
        "rates.outer_integrals": counts.get("rates.outer_integrals", 0),
        "rates.inner_integrals": counts.get("rates.inner_integrals", 0),
        "rates.density_calls": n("rates.density"),
        "rates.density_self_s": own("rates.density"),
        "rates.spline_builds": n("rates.spline_build"),
        "rates.spline_build_s": total("rates.spline_build"),
        "rates.spline_cache_hits": counts.get("rates.spline_cache_hits", 0),
        "rates.convolution_s": own("rates.finite_time_probability"),
        "cli.process_start_s": statistics.median(starts) if starts else 0.0,
        "cli.validate_s": total("cli.scenario_from_dict"),
        "cli.run_scenario_s": total("cli.run_scenario"),
        "cli.emit_s": total("cli.emit_results"),
        "cli.cache_hits": counts.get("cli.cache_hits", 0),
        "cli.cache_misses": counts.get("cli.cache_misses", 0),
        "cli.cache_s": own("cli.cache_lookup_or_compute"),
        "cli.pool_s": total("cli._run_sweep[pool]"),
    }
    absent = set(absent)
    out = {}
    for key, (unit, needs) in METRICS.items():
        value = None if absent.intersection(needs) else values[key]
        out[key] = {"value": value, "unit": unit}
    return out
