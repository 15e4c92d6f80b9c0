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
