"""validate/run parity, generated rather than found one case at a time.

Each bundled scenario (sweeps and T lists cut to at most 3 rows) with one
numeric leaf set to a drawn value must either fail validation with the
message that its computation, handed the rows unchecked, raises too; or run
within LIMIT_S seconds to finite cells in every converged row, or to a
NonConvergenceError. The one exception is the exact zero at beta = 0, whose
k_lower and k_max cells are inf by design.

Run as a script, `PYTHONPATH=src python tests/test_parity.py`, it sweeps
every leaf of every bundled scenario over EDGE_VALUES, and every term of the
bundled model that a scenario names, through a temporary model file, and
prints the count of each outcome and every case that breaks the rule.
"""

import copy
import json
import math
import signal
import sys
import tempfile
import time
import warnings
from collections import Counter
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vacdrag import cli
from vacdrag.cli import ScenarioValidationError, run_scenario, scenario_from_dict
from vacdrag.specs import SCALE, NonConvergenceError

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
MODELS = Path(__file__).resolve().parent.parent / "src" / "vacdrag" / "models"

# The sweep's edge values, the ends of the input range, and QUADPACK's
# rel_tol floor of 50 eps with the float below it.
REL_TOL_FLOOR = 50.0 * sys.float_info.epsilon
EDGE_VALUES = (0.0, -0.0, 5e-324, 1e-300, 1e-13, -1e-13, 1e13, 1e60, 1e155,
               1e300, -1.0, 1.0 - 1e-12, -(1.0 - 1e-12),
               1.0 / SCALE, -1.0 / SCALE, SCALE, -SCALE,
               REL_TOL_FLOOR, math.nextafter(REL_TOL_FLOOR, 0.0))

# The longest case seen: a 3-row beta sweep at rel_tol 50 eps, the floor,
# converges in about 11 s. A reciprocity-check point offset y >= 1e13 fails
# to converge within about 1 s.
LIMIT_S = 30

# Outcomes that keep the rule; anything else names what broke it.
KEPT = ("rejected", "ran", "nonconvergence")


def _cut(doc: dict) -> dict:
    if "sweep_axis" in doc:
        doc["sweep_axis"]["count"] = min(doc["sweep_axis"]["count"], 3)
    if isinstance(doc.get("T"), list):
        doc["T"] = doc["T"][:3]
    return doc


BUNDLED = {path.name: _cut(json.loads(path.read_text()))
           for path in sorted(SCENARIOS.glob("*.json"))}


def _leaves(node, path=()):
    """Paths of the numbers (not booleans) in a JSON document."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        if isinstance(value, (dict, list)):
            yield from _leaves(value, path + (key,))
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            yield path + (key,)


CASES = [(name, path) for name, doc in BUNDLED.items() for path in _leaves(doc)]


def _bundled_model(name: str) -> dict:
    """The document of the bundled model that scenario `name` names."""
    model = BUNDLED[name]["model_file"].removeprefix("bundled:")
    return json.loads((MODELS / f"{model}.json").read_text())


# (scenario, path within its model document): the sweep's model-term leaves
MODEL_CASES = [(name, path) for name, doc in BUNDLED.items()
               if "model_file" in doc for path in _leaves(_bundled_model(name))]


def _set(doc: dict, path: tuple, value: float) -> dict:
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


def with_leaf(name: str, path: tuple, value: float) -> dict:
    return _set(copy.deepcopy(BUNDLED[name]), path, value)


def with_model_leaf(name: str, path: tuple, value: float, model_file: Path) -> dict:
    """Scenario name with its model's leaf at path set to value, the model
    written to model_file."""
    model_file.write_text(json.dumps(_set(_bundled_model(name), path, value)))
    return dict(copy.deepcopy(BUNDLED[name]), model_file=str(model_file))


def _unchecked(doc: dict):
    """The Scenario of doc, parsed with its row predicates skipped."""
    with mock.patch.object(cli, "_rows", lambda *args, **kwargs: []):
        return scenario_from_dict(doc)


def _bad_cells(doc: dict, row: dict) -> list:
    if not row.get("converged", True):
        return []
    beta = row.get("beta", doc.get("frame", {}).get("beta"))
    return [column for column, value in row.items()
            if isinstance(value, float) and not math.isfinite(value)
            and not (beta == 0.0 and column in ("k_lower", "k_max"))]


def _timeout(signum, frame):
    raise TimeoutError


def outcome(doc: dict) -> str:
    """One of KEPT when doc keeps the rule, under warnings as errors;
    otherwise what broke it."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            scenario = scenario_from_dict(doc)
        except ScenarioValidationError as exc:
            try:
                run_scenario(_unchecked(doc))
            except Exception as ran:
                if isinstance(ran, ValueError) and str(ran) == str(exc):
                    return "rejected"
                return f"validate: {exc} | run: {type(ran).__name__}: {ran}"
            return f"validate: {exc} | run passes"
        previous = signal.signal(signal.SIGALRM, _timeout)
        signal.setitimer(signal.ITIMER_REAL, LIMIT_S)
        start = time.perf_counter()
        try:
            rows = run_scenario(scenario)["outputs"]["rows"]
        except NonConvergenceError:
            return "nonconvergence"
        except TimeoutError:
            return f"over {LIMIT_S} s"
        except Exception as exc:
            return f"{type(exc).__name__}: {exc}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        bad = [column for row in rows for column in _bad_cells(doc, row)]
        if bad:
            return f"non-finite {', '.join(sorted(set(bad)))}"
        return "ran" if time.perf_counter() - start <= LIMIT_S else f"over {LIMIT_S} s"


@given(st.sampled_from(CASES),
       st.one_of(st.sampled_from(EDGE_VALUES),
                 st.floats(allow_nan=False, allow_infinity=False)))
@settings(max_examples=150, deadline=None)
def test_validate_and_run_agree_at_any_leaf(case, value):
    name, path = case
    assert outcome(with_leaf(name, path, value)) in KEPT


# Several leaves at once at the ends of the input range, where an outer
# k-node of a Drude rate rounded onto the threshold omega / |beta|: the
# Doppler frequency was 0, where the free-carrier chi is singular, so
# validate passed and run raised. The second has k_max one ulp beyond the
# threshold, so that every node rounds onto it.
DRUDE_AT_THRESHOLD = [
    {"kind": "rate-surface", "model_file": "bundled:drude_metal",
     "frame": {"beta": 0.5},
     "detector": {"kappa": [SCALE, 0.3, SCALE], "omega": SCALE / 4,
                  "z0": 1.0 / SCALE},
     "quad": {"rel_tol": 1e-4, "abs_tol": 1e-18, "k_max": SCALE}},
    {"kind": "rate-surface", "model_file": "bundled:drude_metal",
     "frame": {"beta": 0.5},
     "detector": {"kappa": [0.8, 0.3, 1.1], "omega": 1.0, "z0": 1.0},
     "quad": {"rel_tol": 1e-4, "abs_tol": 1e-18,
              "k_max": math.nextafter(2.0, math.inf)}},
]


@pytest.mark.parametrize("doc", DRUDE_AT_THRESHOLD, ids=["range-ends", "one-ulp"])
def test_no_rate_node_meets_the_drude_pole(doc):
    assert outcome(doc) == "ran"


def main() -> int:
    counts, broken = Counter(), []
    with tempfile.TemporaryDirectory() as tmp:
        model_file = Path(tmp) / "model.json"
        cases = [(name, path, lambda v, n=name, p=path: with_leaf(n, p, v))
                 for name, path in CASES]
        cases += [(name, ("model_file",) + path,
                   lambda v, n=name, p=path: with_model_leaf(n, p, v, model_file))
                  for name, path in MODEL_CASES]
        for name, path, make in cases:
            for value in EDGE_VALUES:
                result = outcome(make(value))
                counts[result if result in KEPT else "broken"] += 1
                if result not in KEPT:
                    broken.append(f"{name} {'.'.join(map(str, path))} = {value!r}: "
                                  f"{result}")
    print("\n".join(broken))
    print(dict(counts), f"{len(cases)} leaves x {len(EDGE_VALUES)} values")
    return bool(broken)


if __name__ == "__main__":
    raise SystemExit(main())
