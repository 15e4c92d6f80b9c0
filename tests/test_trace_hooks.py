"""The benchmark tracer still finds every name its per-layer metrics need.

`perfbench/tracer.py` wraps package functions by name from outside the
package. A name that is deleted or renamed is recorded as absent, and every
metric that needs it reports null. This test fails in exactly that case.
"""

import importlib.util
from pathlib import Path

import vacdrag.cli
import vacdrag.greens
import vacdrag.medium
import vacdrag.quadrature
import vacdrag.rates
import vacdrag.tensors
from vacdrag.specs import DetectorSpec, MotionFrame, QuadratureSpec, load_model

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_no_metric_needs_an_absent_name():
    tracer = load_tracer()
    hooks = tracer.Tracer()
    try:
        hooks.install()
    finally:
        hooks.uninstall()
    blind = {metric: sorted(set(needs) & hooks.absent)
             for metric, (_, needs) in tracer.METRICS.items()
             if set(needs) & hooks.absent}
    assert not blind
    # uninstall puts the package's own functions back
    assert vacdrag.rates.integrate_adaptive is vacdrag.quadrature.integrate_adaptive
    assert vacdrag.greens._xi_medium.__module__ == "vacdrag.greens"


def test_traced_rate_surface_reaches_the_inner_integrals():
    """The tracer's one-argument integrand wrappers can call the batched
    ky integrand, and the batch runs under the traced names, so the inner
    integral and density counters are not silently zero. The lone outer
    integrand reaches _adapt as the tracer labelled it, unwrapped."""
    tracer = load_tracer()
    hooks = tracer.Tracer()
    hooks.install()
    try:
        res = vacdrag.rates.rate_surface(
            DetectorSpec(kappa=(0.8, 0.3, 1.1), omega=0.1, z0=1.0),
            MotionFrame(beta=0.5), load_model("bundled:lorentz_dielectric"),
            QuadratureSpec(rel_tol=1e-3, k_max=5.0))
    finally:
        hooks.uninstall()
    assert res.converged and res.gamma > 0.0
    assert hooks.counts["rates.inner_integrals"] > 0
    for label in ("rates.density", "rates.outer_integrand"):
        assert label in hooks.names
        assert hooks.name.count(hooks.names.index(label)) > 0


def test_traced_reciprocity_check_is_one_reflected_green_call():
    """A reciprocity check runs its three Green functions as one batch: one
    `_reflected_green` span per check, under which the dyad and its kernels
    are still seen."""
    tracer = load_tracer()
    hooks = tracer.Tracer()
    hooks.install()
    try:
        rep = vacdrag.greens.reciprocity_check(
            load_model("bundled:lorentz_dielectric"), MotionFrame(beta=0.5),
            0.3, 1.0, (0.0, 0.8), (0.4, 1.1), QuadratureSpec(rel_tol=1e-6))
    finally:
        hooks.uninstall()
    assert rep.transpose_residual < 1e-6
    arrays = hooks.arrays()
    table = tracer.span_table(arrays["names"], arrays["name"], arrays["parent"],
                              arrays["start"], arrays["end"])
    metrics = tracer.layer_metrics(table, hooks.counts, hooks.absent)
    assert metrics["greens.reflected_green_calls"]["value"] == 1
    assert metrics["greens.dyad_calls"]["value"] > 0
    assert metrics["greens.kernel_calls"]["value"] > 0


def test_traced_time_ladder_builds_once_and_times_the_hits():
    """A T ladder on one spline: one build, a cache hit for every later T,
    and convolution time of its own, so the golden-rule metrics still see
    the hit path."""
    tracer = load_tracer()
    hooks = tracer.Tracer()
    ladder = (0.5, 1.0, 50.0, 400.0, 1600.0, 6400.0)
    args = (DetectorSpec(kappa=(0.8, 0.3, 1.1), omega=0.1, z0=1.0),
            MotionFrame(beta=0.5), load_model("bundled:lorentz_dielectric"),
            QuadratureSpec(rel_tol=0.1, abs_tol=1e-12, k_max=1.0))
    vacdrag.rates._rate_spline.cache_clear()
    hooks.install()
    try:
        probs = [vacdrag.rates.finite_time_probability(*args, T) for T in ladder]
    finally:
        hooks.uninstall()
        vacdrag.rates._rate_spline.cache_clear()
    assert all(p > 0.0 for p in probs)
    arrays = hooks.arrays()
    table = tracer.span_table(arrays["names"], arrays["name"], arrays["parent"],
                              arrays["start"], arrays["end"])
    metrics = tracer.layer_metrics(table, hooks.counts, hooks.absent)
    assert metrics["rates.spline_builds"]["value"] == 1
    assert metrics["rates.spline_cache_hits"]["value"] == len(ladder) - 1
    assert metrics["rates.convolution_s"]["value"] > 0.0


def test_traced_cli_run_records_the_cli_spans(tmp_path, scenarios_dir):
    """An in-process `vacdrag run` of a rate sweep with two workers, traced:
    the CLI calls validation, the run and the sweep through the module's
    globals, where the tracer rebinds them, so cli.validate_s,
    cli.run_scenario_s and cli.pool_s are not silently zero."""
    tracer = load_tracer()
    hooks = tracer.Tracer()
    hooks.install()
    try:
        code = vacdrag.cli.main(["run", "--scenario",
                                 str(scenarios_dir / "sweep_beta.json"),
                                 "--workers", "2", "--output",
                                 str(tmp_path / "sweep.csv")])
    finally:
        hooks.uninstall()
    assert code == 0
    for name in ("cli.main", "cli.scenario_from_dict", "cli.run_scenario",
                 "cli._run_sweep[pool]"):
        assert name in hooks.names, name
        assert hooks.name.count(hooks.names.index(name)) == 1, name


def test_traced_queries_on_one_spline_record_each_span(monkeypatch):
    """n P(T) calls on one spline: one `rates.spline_build`, n - 1 cache
    hits and n `rates.finite_time_probability` spans. The tracer rebinds
    `rates._rate_spline` where finite_time_probability looks it up; were
    it bound out of the tracer's reach, the golden-rule spline and
    convolution metrics would read zero."""
    tracer = load_tracer()
    hooks = tracer.Tracer()

    def rate(det, frame, model, quad):
        w = det.omega
        return vacdrag.rates.RateResult(
            gamma=w ** 3, error_estimate=0.0, converged=True,
            k_lower=w / frame.beta, k_max=quad.k_max,
            breakdown={"s": 0.0, "p": w ** 3})
    monkeypatch.setattr(vacdrag.rates, "rate_surface", rate)
    args = (DetectorSpec(kappa=(0.8, 0.3, 1.1), omega=0.1, z0=1.0),
            MotionFrame(beta=0.5), load_model("bundled:lorentz_dielectric"),
            QuadratureSpec(rel_tol=1e-6, abs_tol=1e-18, k_max=50.0))
    times = (0.5, 50.0, 600.0, 2400.0, 9600.0, 50.0, 0.5)
    vacdrag.rates._rate_spline.cache_clear()
    hooks.install()
    try:
        probs = [vacdrag.rates.finite_time_probability(*args, T) for T in times]
    finally:
        hooks.uninstall()
        vacdrag.rates._rate_spline.cache_clear()
    assert all(p > 0.0 for p in probs)
    spans = {label: hooks.name.count(hooks.names.index(label))
             for label in ("rates.spline_build", "rates.spline_lookup",
                           "rates.finite_time_probability")}
    assert spans == {"rates.spline_build": 1,
                     "rates.spline_lookup": len(times) - 1,
                     "rates.finite_time_probability": len(times)}
    assert hooks.counts["rates.spline_cache_hits"] == len(times) - 1
