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
    integral and density counters are not silently zero."""
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
    assert "rates.density" in hooks.names
    assert hooks.name.count(hooks.names.index("rates.density")) > 0
