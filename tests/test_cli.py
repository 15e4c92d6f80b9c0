"""Scenario runner and CLI: validation, emission, caching, determinism."""

import dataclasses
import importlib
import inspect
import json
import math
import os
import pickle
import shutil
import subprocess
import sys
import tempfile
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from vacdrag import cli, specs
from vacdrag.cli import (
    ScenarioValidationError,
    emit_results,
    main,
    run_scenario,
    scenario_from_dict,
)
from vacdrag.specs import (SCALE, DetectorSpec, LorentzOscillator, MotionFrame,
                           QuadratureSpec, check_scale, load_model)

BASE_RATE = {
    "kind": "rate-surface",
    "model_file": "bundled:lorentz_dielectric",
    "frame": {"beta": 0.5},
    "detector": {"kappa": [0.8, 0.3, 1.1], "omega": 0.1, "z0": 1.0},
    "quad": {"rel_tol": 1e-5, "abs_tol": 1e-18, "k_max": 12.0},
}


def write_scenario(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def run_cli(args):
    return main([str(a) for a in args])


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_validate_accepts_wellformed(tmp_path):
    path = write_scenario(tmp_path, BASE_RATE)
    assert run_cli(["validate", "--scenario", path]) == 0


def test_validate_rejects_missing_field(tmp_path, capsys):
    doc = dict(BASE_RATE)
    del doc["kind"]
    path = write_scenario(tmp_path, doc)
    assert run_cli(["validate", "--scenario", path]) == 1
    assert "kind" in capsys.readouterr().err


def test_validate_rejects_bad_values(tmp_path, capsys):
    doc = json.loads(json.dumps(BASE_RATE))
    doc["frame"]["beta"] = 1.5
    doc["detector"]["omega"] = -2.0
    path = write_scenario(tmp_path, doc)
    assert run_cli(["validate", "--scenario", path]) == 1
    err = capsys.readouterr().err
    assert "beta" in err and "omega" in err


def test_validate_rejects_non_numeric_shift(tmp_path, capsys):
    doc = {"kind": "identity-check", "model_file": "bundled:lorentz_dielectric",
           "pairs": [[0.7, 1.3]], "shift": "abc", "quad": {}}
    path = write_scenario(tmp_path, doc)
    assert run_cli(["validate", "--scenario", path]) == 1
    assert "shift" in capsys.readouterr().err
    doc["shift"] = 0.5
    path = write_scenario(tmp_path, doc)
    assert run_cli(["validate", "--scenario", path]) == 0


def test_validate_rejects_malformed_model_file(tmp_path, capsys):
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"electric_terms": [{"strength": 1.0}]}))
    doc = dict(BASE_RATE, model_file=str(model))
    path = write_scenario(tmp_path, doc)
    assert run_cli(["validate", "--scenario", path]) == 1


def test_scenario_from_dict_reports_fields():
    with pytest.raises(ScenarioValidationError) as exc:
        scenario_from_dict({"kind": "no-such-kind"})
    assert "kind" in str(exc.value)


# Bundled scenarios with one field changed (None deletes it) so that the
# rate computations' own input checks reject them.
RUN_REJECTS = [
    ("rate_surface.json", "detector", "z0", None),
    ("rate_surface.json", "quad", "k_max", None),
    ("rate_surface.json", "quad", "k_max", 0.15),
    ("finite_time.json", "quad", "k_max", 0.3),
    ("finite_time.json", "detector", "z0", None),
    ("sweep_beta.json", "quad", "k_max", 0.4),     # the beta = 0.2 row needs > 0.5
]


def bundled_with(scenarios_dir, name, section, key, value):
    doc = json.loads((scenarios_dir / name).read_text())
    if value is None:
        del doc[section][key]
    else:
        doc[section][key] = value
    return doc


def bundled_updated(tmp_path, scenarios_dir, name, update):
    """A bundled scenario whose top-level fields update replaces, ... deleting
    one; a model_file given as a dict is written to a file and named by its
    path."""
    doc = json.loads((scenarios_dir / name).read_text())
    for key, value in update.items():
        if value is ...:
            del doc[key]
        elif key == "model_file" and isinstance(value, dict):
            doc[key] = str(write_scenario(tmp_path, value, name="model.json"))
        else:
            doc[key] = value
    return doc


def parsed_unchecked(monkeypatch, doc):
    """The Scenario of doc, parsed with its row predicates skipped."""
    with monkeypatch.context() as patch:
        patch.setattr(cli, "_rows", lambda *args, **kwargs: [])
        return scenario_from_dict(doc)


@pytest.mark.parametrize("name, section, key, value", RUN_REJECTS)
def test_validate_rejects_what_run_rejects(tmp_path, capsys, monkeypatch,
                                           scenarios_dir, name, section, key, value):
    doc = bundled_with(scenarios_dir, name, section, key, value)
    path = write_scenario(tmp_path, doc)
    assert run_cli(["validate", "--scenario", path]) == 1
    message = capsys.readouterr().err
    assert run_cli(["run", "--scenario", path]) == 1
    assert capsys.readouterr().err == message
    # the computation itself, handed inputs whose rows were not checked,
    # fails alike
    with pytest.raises(ValueError) as exc:
        run_scenario(parsed_unchecked(monkeypatch, doc))
    assert message == f"invalid scenario: {exc.value}\n"


def test_validate_rejects_grazing_reciprocity_check(tmp_path, capsys, monkeypatch,
                                                   scenarios_dir):
    doc = json.loads((scenarios_dir / "reciprocity_check.json").read_text())
    doc["kx"] = doc["omega"]
    path = write_scenario(tmp_path, doc)
    assert run_cli(["validate", "--scenario", path]) == 1
    message = capsys.readouterr().err
    assert message == ("invalid scenario: grazing mode kx^2 = omega^2 "
                       "is not integrable\n")
    assert run_cli(["run", "--scenario", path]) == 1
    assert capsys.readouterr().err == message
    # the computation itself rejects it before any integrand is evaluated
    with pytest.raises(ValueError) as exc:
        run_scenario(parsed_unchecked(monkeypatch, doc))
    assert message == f"invalid scenario: {exc.value}\n"


# The specs predicate that each kind and sweep axis with a row check names,
# which its computation calls first; finite-time names two, in the order
# finite_time_probability calls them.
ROW_PREDICATES = {
    ("rate-surface", None): ("check_rate_inputs",),
    ("finite-time", None): ("convolution_panels", "check_rate_inputs"),
    **{("sweep", axis): ("check_rate_inputs",) for axis in ("beta", "z0", "omega")},
    ("sweep", "kx"): ("check_reflection",),
    ("fresnel", None): ("check_reflection",),
    ("kk-check", "omega"): ("check_kk_frequency",),
    ("identity-check", None): ("check_identity",),
    ("dissipation-check", None): ("check_dissipation",),
    ("reciprocity-check", None): ("check_reciprocity",),
}


def test_every_row_check_names_its_predicate():
    entries = {(kind, axis) for kind, entry in cli._KINDS.items()
               for axis, rules in (entry.axes or {None: entry}).items()
               if rules.check is not None}
    assert entries == set(ROW_PREDICATES)


@pytest.mark.parametrize("kind, axis, predicate", [
    (kind, axis, predicate) for (kind, axis), names in ROW_PREDICATES.items()
    for predicate in names])
def test_validate_and_run_share_one_predicate(monkeypatch, scenarios_dir, kind,
                                              axis, predicate):
    """With the predicate replaced, wherever a module binds it, by one that
    raises a sentinel naming its arguments, validate and the computation
    handed rows that were not checked report the same sentinel: both call
    the one predicate, with the same arguments."""
    rates = importlib.import_module("vacdrag.rates")   # load every numeric module
    original = getattr(specs, predicate)
    signature = inspect.signature(original)

    def sentinel(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        raise ValueError(f"sentinel {predicate}{tuple(bound.arguments.values())!r}")

    bound_in = set()
    for name, module in list(sys.modules.items()):
        if name.startswith("vacdrag") and getattr(module, predicate, None) is original:
            monkeypatch.setattr(module, predicate, sentinel)
            bound_in.add(name)
    assert {"vacdrag.specs", "vacdrag.cli"} < bound_in
    doc = bundled_docs(scenarios_dir)[kind, axis]
    with pytest.raises(ScenarioValidationError) as validated:
        scenario_from_dict(doc)
    assert str(validated.value).startswith(f"sentinel {predicate}(")
    # finite_time_probability checks its rate inputs where it builds the
    # rate spline, so an earlier test's cached spline would skip the check
    rates._rate_spline.cache_clear()
    with pytest.raises(ValueError) as ran:
        run_scenario(parsed_unchecked(monkeypatch, doc))
    assert str(ran.value) == str(validated.value)


@pytest.mark.parametrize("name", ["rate_surface.json", "kk_check.json",
                                  "reciprocity_check.json"])
def test_budget_beyond_intp_is_unlimited(tmp_path, scenarios_dir, name):
    """A max_subdivisions of 2^63, beyond numpy's intp, validates and runs
    as an unlimited budget: the bundled scenario's bits."""
    doc = json.loads((scenarios_dir / name).read_text())
    expected, out = tmp_path / "expected.csv", tmp_path / "out.csv"
    assert run_cli(["run", "--scenario", write_scenario(tmp_path, doc),
                    "--output", expected]) == 0
    doc["quad"]["max_subdivisions"] = 2 ** 63
    path = write_scenario(tmp_path, doc)
    assert run_cli(["validate", "--scenario", path]) == 0
    assert run_cli(["run", "--scenario", path, "--output", out]) == 0
    assert out.read_bytes() == expected.read_bytes()


# A log kx axis whose middle row, kx = 0.3, lies on the light cone: unlike a
# rate axis, it cannot be validated at its ends alone.
LOG_KX_MIDDLE = ("sweep_kx.json",
                 {"ky": 0.4, "omega": 0.5,
                  "sweep_axis": {"name": "kx", "min": 0.1, "max": 0.9, "count": 3,
                                 "spacing": "log"}},
                 "mode lies on the light cone (xi = 0)")

KK_LOW_POLE = ("kk_check.json",
               {"sweep_axis": {"name": "omega", "min": 1e-13, "max": 3.0,
                               "count": 5, "spacing": "log"}},
               "pole 1e-13 lies within 1e-12 of an end of its principal-value "
               "window [0, 4]")

# The input range of every dimensionful number, as its messages state it.
RANGE = "finite, of magnitude 0 or within [7.88861e-31, 1.26765e+30]"

# A k-point out of range: ky = 1e200.
DISSIPATION_OVERFLOW = (
    "dissipation_check.json", {"points": [[0.8, 1e200, 0.5, 1.1]]},
    f"k-point (0.8, 1e+200, 0.5, 1.1): kx, ky, kz and omega must be {RANGE}")

# The rate kinds' numbers enter through the detector and the quadrature:
# omega = 1e-300, whose square the p coefficients divide by, underflows.
RATE_OMEGA_TINY = ("rate_surface.json",
                   {"detector": {"kappa": [0.8, 0.3, 1.1], "omega": 1e-300,
                                 "z0": 1.0}},
                   f"detector: omega must be {RANGE}")

# kappa^2 overflows the rate's folds.
RATE_KAPPA_HUGE = ("rate_surface.json",
                   {"detector": {"kappa": [1e155, 0.3, 1.1], "omega": 0.1,
                                 "z0": 1.0}},
                   f"detector: kappa components must be {RANGE}")

# Bundled scenarios of the other kinds, changed (by update) to an input that
# the computation rejects, with the message it rejects it with.
KIND_REJECTS = [
    ("fresnel.json", {"kx": 0.3, "ky": 0.4, "omega": 0.5},
     "mode lies on the light cone (xi = 0)"),
    ("kk_check.json", {"sweep_axis": {"name": "omega", "min": -1.0, "max": 1.0,
                                      "count": 5}},
     "reconstruction frequency must be > 0"),
    ("identity_check.json", {"pairs": [[0.7, 1.3], [0.7, 0.7]]},
     "pole frequencies are degenerate"),
    ("dissipation_check.json", {"frame": {"beta": 0.5},
                                "points": [[0.8, 0.3, 0.5, 1.1],
                                           [0.8, 0.3, 0.5, 0.4]]},
     "comoving resonance: omega - V kx must be nonzero"),
    ("sweep_kx.json", {"ky": 0.0, "omega": 3.0},    # the last row, kx = 3
     "mode lies on the light cone (xi = 0)"),
    # a log axis, whose rows validate takes from numpy: the last, kx = 0.3
    ("sweep_kx.json", {"ky": 0.4, "omega": 0.5,
                       "sweep_axis": {"name": "kx", "min": 0.1, "max": 0.3,
                                      "count": 3, "spacing": "log"}},
     "mode lies on the light cone (xi = 0)"),
    LOG_KX_MIDDLE,
    ("reciprocity_check.json", {"omega": 0.0},
     "omega must be nonzero: the reflected p dyad divides by omega^2"),
    ("identity_check.json", {"shift": 1e308}, f"shift 1e+308 must be {RANGE}"),
    ("identity_check.json", {"model_file": "bundled:drude_metal",
                             "pairs": [[0.7, 1.3], [0.0, 1.3]]},
     "free-carrier term is singular at zero frequency"),
    ("identity_check.json", {"pairs": [[1e200, 2e200]]},
     f"pole frequencies (1e+200, 2e+200) must be {RANGE}"),
    # the principal-value windows [0, mid] and [mid, cut] of the two poles
    ("identity_check.json", {"pairs": [[0.7, 1.3], [0.7, 1e13]]},
     "pole 0.7 lies within 1e-12 of an end of its principal-value window "
     "[0, 5e+12]"),
    ("identity_check.json", {"pairs": [[0.0, 1.3]]},
     "pole 0 lies within 1e-12 of an end of its principal-value window [0, 0.65]"),
    ("identity_check.json", {"pairs": [[0.7, -1.3]]},
     "omega_plus must be > 0, got -1.3"),
    # a Drude term at a zero Doppler frequency, omega = beta kx
    ("fresnel.json", {"model_file": "bundled:drude_metal", "kx": 0.8},
     "free-carrier term is singular at zero frequency"),
    ("sweep_kx.json", {"model_file": "bundled:drude_metal", "ky": 0.7, "omega": 0.4,
                       "sweep_axis": {"name": "kx", "min": 0.0, "max": 1.6,
                                      "count": 3}},
     "free-carrier term is singular at zero frequency"),
    ("reciprocity_check.json", {"model_file": "bundled:drude_metal", "kx": 0.8},
     "free-carrier term is singular at zero frequency"),
    # through the third Green function, at (-kx, beta)
    ("reciprocity_check.json", {"model_file": "bundled:drude_metal", "kx": -0.8},
     "free-carrier term is singular at zero frequency"),
    # k_max = 0.5 inside the light circle ky = sqrt(1 - 0.3^2)
    ("reciprocity_check.json", {"kx": 0.3, "omega": 1.0, "quad": {"k_max": 0.5}},
     "quad.k_max truncates inside the light circle"),
    # more than 2^14 convolution panels of 16 kernel cycles
    ("finite_time.json", {"T": [50.0, 1e9]},
     "T must be <= 1.02944e+07 at omega = 0.1: the finite-time convolution "
     "takes at most 16384 panels"),
    # kk-check divides by the electric chi, which vanishes without an
    # absorbing electric term
    ("kk_check.json", {"model_file": {"label": "vacuum"}},
     "model_file: kk-check needs an electric term with plasma_strength > 0"),
    ("kk_check.json", {"model_file": {
        "electric_terms": [{"plasma_strength": 0.0, "resonance": 1.0, "damping": 0.1}],
        "magnetic_terms": [{"plasma_strength": 1.0, "resonance": 1.0, "damping": 0.1}]}},
     "model_file: kk-check needs an electric term with plasma_strength > 0"),
    # the identity's pole rule: the first row of a log axis, 1e-13, inside
    # 1e-12 of the end 0 of its principal-value window
    KK_LOW_POLE,
    # its last rows out of range: validate checks the ends, run meets 1e100
    # first, so the message names no frequency
    ("kk_check.json", {"sweep_axis": {"name": "omega", "min": 0.3, "max": 1e200,
                                      "count": 5, "spacing": "log"}},
     f"reconstruction frequency must be {RANGE}"),
    DISSIPATION_OVERFLOW,
    ("dissipation_check.json", {"points": [[0.8, 0.3, 0.5, 1.1],
                                           [0.8, 0.3, 0.5, 1e155]]},
     f"k-point (0.8, 0.3, 0.5, 1e+155): kx, ky, kz and omega must be {RANGE}"),
    # the rate kinds, through their detector and quadrature numbers
    RATE_OMEGA_TINY,
    # the inner ky tolerance 0.1 abs_tol rounds to 0
    ("rate_surface.json", {"quad": {"rel_tol": 1e-5, "abs_tol": 5e-324,
                                    "k_max": 12.0}},
     "quad: abs_tol must be >= 2.22507e-308, the smallest normal float"),
    ("rate_surface.json", {"quad": {"rel_tol": 1e-5, "abs_tol": 1e-18,
                                    "k_max": 1e155}},
     f"quad: k_max must be {RANGE}"),
    RATE_KAPPA_HUGE,
    # ky_cut = 25 / z0 overflows
    ("rate_surface.json", {"detector": {"kappa": [0.8, 0.3, 1.1], "omega": 0.1,
                                        "z0": 1e-300}},
     f"detector: z0 must be {RANGE}"),
    ("sweep_z0.json", {"sweep_axis": {"name": "z0", "min": 1e-300, "max": 2.0,
                                      "count": 3, "spacing": "log"}},
     f"z0 must be {RANGE}"),
    # an omega in range whose finite-time window [0.2 omega, 1.8 omega] is not
    ("finite_time.json", {"detector": {"kappa": [0.8, 0.3, 1.1], "omega": 2.0 / SCALE,
                                       "z0": 1.0}},
     "omega must be >= 3.9443e-30, so that the finite-time window [0.2 omega, "
     "1.8 omega] lies within [7.88861e-31, 1.26765e+30]"),
    # a k-point whose lhs and rhs both underflow to a "perfect" 0, and a Drude
    # term near its zero Doppler frequency at gamma^2 ~ 5e11, whose wave
    # operator overflows to nan
    ("dissipation_check.json", {"points": [[0.8, 0.3, 0.5, 1e140]]},
     f"k-point (0.8, 0.3, 0.5, 1e+140): kx, ky, kz and omega must be {RANGE}"),
    ("dissipation_check.json", {"model_file": "bundled:drude_metal",
                                "frame": {"beta": 1.0 - 1e-12},
                                "points": [[1.0, 1e147, 1.0, 1.0]]},
     f"k-point (1, 1e+147, 1, 1): kx, ky, kz and omega must be {RANGE}"),
]


@pytest.mark.parametrize("name, update, reason", KIND_REJECTS)
def test_validate_rejects_what_each_kind_rejects(tmp_path, capsys, scenarios_dir,
                                                 name, update, reason):
    doc = bundled_updated(tmp_path, scenarios_dir, name, update)
    path = write_scenario(tmp_path, doc)
    assert run_cli(["validate", "--scenario", path]) == 1
    message = capsys.readouterr().err
    assert message == f"invalid scenario: {reason}\n"
    assert run_cli(["run", "--scenario", path]) == 1
    assert capsys.readouterr().err == message


def test_identity_check_takes_the_largest_admitted_shift(tmp_path, capsys,
                                                        scenarios_dir):
    """Shifts at both ends of the range, of either sign, run on the bundled
    pole pairs to finite cells that satisfy the identity; the next float
    beyond either end is rejected by validate and run alike."""
    doc = json.loads((scenarios_dir / "identity_check.json").read_text())
    out = tmp_path / "out.csv"
    for shift in (SCALE, -SCALE, 1.0 / SCALE, -1.0 / SCALE):
        doc["shift"] = shift
        path = write_scenario(tmp_path, doc)
        assert run_cli(["validate", "--scenario", path]) == 0
        assert run_cli(["run", "--scenario", path, "--output", out]) == 0
        header, *rows = (line.split(",") for line in out.read_text().splitlines())
        residual = header.index("relative_residual")
        for row in rows:
            assert all(math.isfinite(float(cell)) for cell in row[:-1])
            assert float(row[residual]) < 1e-12
    for shift in (math.nextafter(SCALE, math.inf), math.nextafter(1.0 / SCALE, 0.0)):
        doc["shift"] = shift
        assert_rejected(tmp_path, capsys, doc, f"shift {shift:g} must be {RANGE}")


def test_identity_check_takes_the_largest_admitted_pole(tmp_path, capsys,
                                                       scenarios_dir):
    """Poles at SCALE run to finite cells that satisfy the identity; the next
    float up is rejected by validate and run alike."""
    doc = json.loads((scenarios_dir / "identity_check.json").read_text())
    top = SCALE
    doc["pairs"] = [[0.5 * top, top], [-top, 0.7 * top]]
    path = write_scenario(tmp_path, doc)
    out = tmp_path / "out.csv"
    assert run_cli(["validate", "--scenario", path]) == 0
    assert run_cli(["run", "--scenario", path, "--output", out]) == 0
    header, *rows = (line.split(",") for line in out.read_text().splitlines())
    residual = header.index("relative_residual")
    for row in rows:
        assert all(math.isfinite(float(cell)) for cell in row[:-1])
        assert float(row[residual]) < 1e-6
    doc["pairs"] = [[0.7, 1.3], [0.5 * top, math.nextafter(top, math.inf)]]
    assert_rejected(tmp_path, capsys, doc,
                    f"pole frequencies ({0.5 * top:g}, "
                    f"{math.nextafter(top, math.inf):g}) must be {RANGE}")


def test_validate_checks_every_sweep_row(tmp_path, capsys, scenarios_dir):
    # rows -0.5, -1/6, 1/6, 0.5: the end points pass k_max = 0.5, the inner
    # rows need k_max > 0.6
    doc = bundled_with(scenarios_dir, "sweep_beta.json", "quad", "k_max", 0.5)
    doc["sweep_axis"].update(min=-0.5, max=0.5, count=4)
    assert run_cli(["validate", "--scenario", write_scenario(tmp_path, doc)]) == 1
    assert "omega / |beta|" in capsys.readouterr().err
    doc["sweep_axis"].update(count=3)          # rows -0.5, 0 (exact zero), 0.5
    assert run_cli(["validate", "--scenario", write_scenario(tmp_path, doc)]) == 0


def test_axis_values_match_numpy_spacing():
    rng = np.random.default_rng(7)
    for _ in range(200):
        lo, hi = sorted(rng.uniform(-3.0, 3.0, size=2))
        count = int(rng.integers(1, 40))
        axis = {"min": float(lo), "max": float(hi), "count": count}
        # bit for bit, not within a tolerance: the CSV rows depend on it
        expected = [float(v) for v in np.linspace(lo, hi, count)]
        assert cli._axis_values(axis) == expected
        # a log sweep is validated at its ends, which bound every row
        log_axis = dict(axis, min=abs(float(lo)) + 1e-3,
                        max=abs(float(lo)) + 1e-3 + abs(float(hi)), spacing="log")
        values = cli._axis_values(log_axis)
        assert values[0] == log_axis["min"]
        assert values[-1] == (log_axis["max"] if count > 1 else log_axis["min"])
        assert min(values) == values[0] and max(values) == values[-1]


def test_rate_at_rest_needs_no_k_max(tmp_path, scenarios_dir):
    doc = bundled_with(scenarios_dir, "rate_surface.json", "quad", "k_max", None)
    doc["frame"]["beta"] = 0.0
    path = write_scenario(tmp_path, doc)
    assert run_cli(["validate", "--scenario", path]) == 0
    out = tmp_path / "out.csv"
    assert run_cli(["run", "--scenario", path, "--output", out]) == 0
    row = out.read_text().splitlines()[1].split(",")
    assert row[0] == "0" and row[3] == "inf" and row[4] == "inf"


def test_validate_rejects_quad_eta(tmp_path, capsys):
    doc = json.loads(json.dumps(BASE_RATE))
    doc["quad"]["eta"] = 0.0
    assert run_cli(["validate", "--scenario", write_scenario(tmp_path, doc)]) == 1
    assert "'eta'" in capsys.readouterr().err


def bundled_docs(scenarios_dir):
    """A valid document of every kind and sweep axis, keyed (kind, axis),
    each field its rules name present: the bundled scenarios, a shift for
    identity-check and an omega sweep."""
    docs = {}
    for path in sorted(scenarios_dir.glob("*.json")):
        doc = json.loads(path.read_text())
        docs[doc["kind"], doc.get("sweep_axis", {}).get("name")] = doc
    docs["identity-check", None]["shift"] = 0.25
    docs["sweep", "omega"] = dict(docs["sweep", "beta"], sweep_axis={
        "name": "omega", "min": 0.1, "max": 0.2, "count": 2})
    return docs


def test_every_field_rule_survives_into_the_scenario(scenarios_dir):
    """A valid document of every kind and sweep axis is kept whole in
    Scenario.doc, and every rule's value is in Scenario.inputs, where run
    reads it."""
    docs = bundled_docs(scenarios_dir)
    for kind, entry in cli._KINDS.items():
        for axis, rules in (entry.axes or {None: entry}).items():
            doc = docs[kind, axis]
            names = {name for name, _ in rules.fields}
            assert names <= set(doc)
            scenario = scenario_from_dict(doc)
            assert scenario.doc == doc
            assert set(scenario.inputs) == names | ({"sweep_axis"} if axis else set())


def test_run_reads_the_model_file_once(tmp_path, monkeypatch, scenarios_dir):
    """run computes with the model that validation loaded, and the cache key
    is made from it too: one read per run, without a cache, and with one on
    a miss and on a hit."""
    monkeypatch.delenv("VACDRAG_CACHE_DIR", raising=False)
    reads = []
    monkeypatch.setattr(cli, "load_model",
                        lambda source: reads.append(source) or load_model(source))
    path = scenarios_dir / "rate_surface.json"
    cache = ["--cache-dir", tmp_path / "cache"]
    for extra in ([], cache, cache):
        reads.clear()
        assert run_cli(["run", "--scenario", path, "--output", tmp_path / "o.csv",
                        *extra]) == 0
        assert reads == ["bundled:lorentz_dielectric"]


def test_scenario_is_independent_of_the_callers_document():
    """A change to the caller's document after validation changes neither
    the rows that run computes nor the scenario that its record carries."""
    kk = {"kind": "kk-check", "model_file": "bundled:lorentz_dielectric",
          "sweep_axis": {"name": "omega", "min": 0.5, "max": 1.5, "count": 2},
          "quad": {"rel_tol": 1e-6}}
    changes = {"quad": {"rel_tol": 0.5}, "frame": {"beta": 0.9},
               "detector": {"z0": 2.0}, "sweep_axis": {"count": 5}}
    for original in (BASE_RATE, kk):
        doc = json.loads(json.dumps(original))
        scenario = scenario_from_dict(doc)
        for section, change in changes.items():
            if section in doc:
                doc[section].update(change)
        record = run_scenario(scenario)
        assert record["scenario"] == original
        assert record["outputs"] == run_scenario(scenario_from_dict(original))["outputs"]


def test_provenance_has_quad_only_for_kinds_that_take_it(monkeypatch,
                                                         scenarios_dir):
    """A record's provenance holds the quadrature settings its computation
    was handed, and none for a kind that takes no quad (fresnel, a kx
    sweep, dissipation-check)."""
    monkeypatch.setattr(cli, "_run_rows", lambda *args: ([], [], {}))
    without = set()
    for path in sorted(scenarios_dir.glob("*.json")):
        doc = json.loads(path.read_text())
        scenario = scenario_from_dict(doc)
        provenance = run_scenario(scenario)["provenance"]
        if "quad" in ACCEPTED_KEYS[doc["kind"], doc.get("sweep_axis", {}).get("name")]:
            assert provenance["quad"] == asdict(scenario.inputs["quad"]) \
                == asdict(QuadratureSpec(**doc.get("quad", {}))), path.name
        else:
            assert "quad" not in provenance, path.name
            without.add(path.name)
    assert without == {"dissipation_check.json", "fresnel.json", "sweep_kx.json"}


def accepted_keys(kind, axis):
    """The top-level keys _KINDS accepts in a document of this kind (and
    sweep axis): kind, sweep_axis for a kind run along one, and the names of
    the entry's field rules."""
    entry = cli._KINDS[kind]
    if entry.axes is None:
        return {"kind"} | {name for name, _ in entry.fields}
    return {"kind", "sweep_axis"} | {name for name, _ in entry.axes[axis].fields}


# Each kind's keys besides kind: frame, quad and model_file only where its
# computation reads them. The beta axis keeps frame, as the three rate
# axes share one rule set.
ACCEPTED_KEYS = {
    ("rate-free", None): {"frame", "quad", "detector"},
    ("rate-surface", None): {"model_file", "frame", "quad", "detector"},
    ("finite-time", None): {"model_file", "frame", "quad", "detector", "T"},
    **{("sweep", axis): {"model_file", "frame", "quad", "detector", "sweep_axis"}
       for axis in ("beta", "z0", "omega")},
    ("sweep", "kx"): {"model_file", "frame", "ky", "omega", "sweep_axis"},
    ("fresnel", None): {"model_file", "frame", "kx", "ky", "omega"},
    ("kk-check", "omega"): {"model_file", "quad", "sweep_axis"},
    ("identity-check", None): {"model_file", "quad", "pairs", "shift"},
    ("dissipation-check", None): {"model_file", "frame", "points"},
    ("reciprocity-check", None): {"model_file", "frame", "quad", "kx", "omega",
                                  "point_a", "point_b"},
}


def test_each_kind_accepts_its_own_keys():
    entries = {(kind, axis) for kind, entry in cli._KINDS.items()
               for axis in (entry.axes or {None: entry})}
    assert entries == set(ACCEPTED_KEYS)
    for (kind, axis), keys in ACCEPTED_KEYS.items():
        assert accepted_keys(kind, axis) == {"kind"} | keys, (kind, axis)


def test_bundled_scenarios_carry_only_accepted_keys(scenarios_dir):
    """Every key of every bundled scenario is one its kind accepts, so that
    a table edit that would reject a bundled file fails here first."""
    for path in sorted(scenarios_dir.glob("*.json")):
        doc = json.loads(path.read_text())
        axis = doc.get("sweep_axis", {}).get("name")
        assert set(doc) <= accepted_keys(doc["kind"], axis), path.name


# A misspelled optional key, which would otherwise run with frame.beta's
# default: rejected by name like every key no field rule reads.
UNKNOWN_KEY = ("rate_surface.json", {"frme": {"beta": 0.9}}, "frme: unknown field")

# A key of another kind, rejected by name like a misspelled one; and
# quad.k_max, where the integrals run to infinity.
OTHER_KINDS_KEY = ("fresnel.json", {"shift": 0.5}, "shift: unknown field")
UNTRUNCATED_K_MAX = ("kk_check.json", {"quad": {"k_max": 5.0}},
                     "quad.k_max: unknown field")

# A model file with an infinite term, and one with a misspelled channel:
# models take finite numbers and known keys only.
NON_FINITE_MODEL = ("rate_surface.json", {"model_file": {"electric_terms": [
    {"plasma_strength": math.inf, "resonance": 1.0, "damping": 0.1}]}},
    "model_file: plasma_strength must be finite")
# A resonance whose square overflows in chi (the rate's crossing search
# raised OverflowError after validate passed), and a plasma strength whose
# dispersion integral underflows to a division by zero: a model's terms
# take the input range.
MODEL_TERM_HUGE = ("rate_surface.json", {"model_file": {"electric_terms": [
    {"plasma_strength": 1.0, "resonance": 1.4e154, "damping": 0.1}]}},
    f"model_file: resonance must be {RANGE}")
MODEL_TERM_TINY = ("kk_check.json", {"model_file": {"electric_terms": [
    {"plasma_strength": 5e-324, "resonance": 1.0, "damping": 0.1}]}},
    f"model_file: plasma_strength must be {RANGE}")
MODEL_UNKNOWN_KEY = ("fresnel.json", {"model_file": {
    "electric_terms": [{"plasma_strength": 1.0, "resonance": 1.0, "damping": 0.1}],
    "magentic_terms": []}}, "model_file: magentic_terms: unknown field")

# A rel_tol one ulp below QUADPACK's floor of 50 eps: every panel's error
# estimate is at least 50 eps of its integral of |f|, so only abs_tol could
# stop the rate's loop, and it ran out of max_subdivisions after seconds.
REL_TOL_BELOW_FLOOR = ("rate_surface.json", {"quad": {
    "rel_tol": math.nextafter(50.0 * sys.float_info.epsilon, 0.0),
    "abs_tol": 1e-18, "k_max": 12.0}},
    "quad: rel_tol must be >= 1.11022e-14, 50 eps, the floor of QUADPACK's dqagse")

# One malformed document per field rule, as (bundled scenario, update,
# message), made into a document by bundled_updated. The message is the whole of what validate and run write to stderr, so the
# wording and the "; " join order of several bad fields are pinned.
FIELD_MESSAGES = [
    ("rate_surface.json", {"frame": {"beta": 1.5}},
     "frame.beta: |beta| must be < 1"),
    ("rate_surface.json", {"frame": {}}, "frame.beta: required finite number"),
    ("rate_surface.json", {"quad": [1.0]}, "quad: must be an object"),
    ("rate_surface.json", {"quad": {"rel_tol": 0.0}}, "quad: rel_tol must be > 0"),
    ("rate_surface.json", {"quad": {"k_max": -1.0}},
     "quad: k_max must be > 0 when set"),
    ("rate_surface.json", {"model_file": ...}, "model_file: required"),
    ("fresnel.json", {"model_file": "no/such/model.json"},
     "model_file: [Errno 2] No such file or directory: 'no/such/model.json'"),
    ("sweep_beta.json", {"sweep_axis": [0.2, 0.6]},
     "sweep_axis: required object with name/min/max/count"),
    ("sweep_beta.json", {"sweep_axis": {"name": "T", "min": 1.0, "max": 2.0,
                                        "count": 2}},
     "sweep_axis.name: must be one of beta, z0, omega, kx"),
    ("kk_check.json", {"sweep_axis": {"name": "kx", "min": 1.0, "max": 2.0,
                                      "count": 2}},
     "sweep_axis.name: must be one of omega"),
    ("sweep_beta.json", {"sweep_axis": {"name": "beta", "min": 0.6, "max": 0.2,
                                        "count": 3}},
     "sweep_axis.min/max: need finite numbers with min <= max"),
    ("sweep_z0.json", {"sweep_axis": {"name": "z0", "min": 0.5, "max": 2.0,
                                      "count": 2.0}},
     "sweep_axis.count: must be a positive integer"),
    ("sweep_z0.json", {"sweep_axis": {"name": "z0", "min": 0.5, "max": 2.0,
                                      "count": 3, "spacing": "cubic"}},
     "sweep_axis.spacing: must be 'lin' or 'log'"),
    ("kk_check.json", {"sweep_axis": {"name": "omega", "min": 0.0, "max": 2.0,
                                      "count": 3, "spacing": "log"}},
     "sweep_axis.min: must be > 0 for log spacing"),
    ("sweep_beta.json", {"sweep_axis": {"name": "beta", "min": 0.2, "max": 1.0,
                                        "count": 3}},
     "sweep_axis: beta values must satisfy |beta| < 1"),
    ("rate_surface.json", {"detector": ...},
     "detector: required object with kappa/omega/z0"),
    ("sweep_z0.json", {"detector": {"omega": 0.1, "z0": 1.0}}, "detector.kappa: required"),
    ("finite_time.json", {"detector": {"kappa": [1.0, 0.0, 0.0], "omega": -0.1}},
     "detector: omega must be > 0"),
    ("rate_free.json", {"detector": {"kappa": [0.0, 0.0, 0.0], "omega": 1.0}},
     "detector: kappa must be nonzero"),
    ("fresnel.json", {"kx": ...}, "kx: required"),
    ("fresnel.json", {"ky": "0.7"}, "ky: must be a finite number"),
    ("fresnel.json", {"omega": 0.0}, "omega: must be nonzero"),
    ("sweep_kx.json", {"ky": ...}, "ky: required"),
    ("sweep_kx.json", {"omega": 0}, "omega: must be nonzero"),
    ("identity_check.json", {"pairs": []},
     "pairs: required nonempty list of [omega, omega'] pairs"),
    ("identity_check.json", {"shift": None}, "shift: must be a finite number"),
    ("dissipation_check.json", {"points": [[0.8, 0.3, 1.1]]},
     "points: required nonempty list of [kx, ky, kz, omega]"),
    ("reciprocity_check.json", {"omega": ...}, "omega: required"),
    ("reciprocity_check.json", {"point_a": [0.0, 0.0]},
     "point_a: height must be > 0"),
    ("reciprocity_check.json", {"point_b": [0.4]},
     "point_b: must be a list of 2 numbers"),
    ("finite_time.json", {"T": [50.0, 0.0]},
     "T: required positive number or nonempty list of positive numbers"),
    ("rate_surface.json", {"kind": ...}, "kind: required"),
    ("rate_surface.json", {"kind": "rate"},
     "kind: 'rate' is not one of rate-free, rate-surface, fresnel, kk-check, "
     "identity-check, dissipation-check, reciprocity-check, sweep, finite-time"),
    ("rate_surface.json", {"kind": ["sweep"]},
     "kind: '['sweep']' is not one of rate-free, rate-surface, fresnel, kk-check, "
     "identity-check, dissipation-check, reciprocity-check, sweep, finite-time"),
    # several bad fields: every message, in a fixed order
    ("finite_time.json", {"frame": {"beta": -1.0}, "quad": None, "model_file": ...,
                          "detector": {"kappa": [1.0], "omega": 0.1}, "T": True},
     "frame.beta: |beta| must be < 1; quad: must be an object; model_file: "
     "required; detector: kappa must have three components; T: required "
     "positive number or nonempty list of positive numbers"),
    ("reciprocity_check.json", {"frame": {"beta": "0.5"}, "kx": None,
                                "point_a": [0.0, -0.8], "point_b": ...},
     "frame.beta: required finite number; kx: required; point_a: height must "
     "be > 0; point_b: must be a list of 2 numbers"),
    ("sweep_kx.json", {"quad": {"max_subdivisions": 0}, "ky": "x", "omega": 0.0},
     "ky: must be a finite number; omega: must be nonzero; quad: unknown field"),
    ("reciprocity_check.json", {"omega": 0},
     "omega must be nonzero: the reflected p dyad divides by omega^2"),
    # squares that overflow: the degeneracy test alone would compare nan
    ("identity_check.json", {"pairs": [[0.7, 1.3], [-1e155, 2e155]]},
     f"pole frequencies (-1e+155, 2e+155) must be {RANGE}"),
    # the semi-infinite tail switch is a constant of the quadrature, and an
    # unknown quad key like any other
    ("rate_surface.json", {"quad": {"tail_switch": 10.0}},
     "quad: QuadratureSpec.__init__() got an unexpected keyword argument "
     "'tail_switch'"),
    # keys that no field rule reads, at the top level and in each object
    UNKNOWN_KEY,
    ("identity_check.json", {"shfit": 0.5}, "shfit: unknown field"),
    ("sweep_z0.json", {"sweep_axis": {"name": "z0", "min": 0.5, "max": 2.0,
                                      "count": 3, "spacng": "log"}},
     "sweep_axis.spacng: unknown field"),
    ("rate_surface.json", {"frame": {"beta": 0.5, "bta": 0.9}},
     "frame.bta: unknown field"),
    ("rate_surface.json", {"detector": {"kappa": [0.8, 0.3, 1.1], "omega": 0.1,
                                        "z": 1.0}},
     "detector.z: unknown field"),
    # after every other message, in sorted order
    ("sweep_kx.json", {"ky": "x", "zeta": 1, "alpha": 2,
                       "frame": {"betta": 0.5}},
     "frame.beta: required finite number; frame.betta: unknown field; ky: must "
     "be a finite number; alpha: unknown field; zeta: unknown field"),
    # detector numbers are real numbers, not strings or booleans
    ("rate_surface.json", {"detector": {"kappa": [0.8, 0.3, 1.1], "omega": "0.1",
                                        "z0": 1.0}},
     "detector: omega must be a real number"),
    ("rate_surface.json", {"detector": {"kappa": [0.8, 0.3, 1.1], "omega": 0.1,
                                        "z0": "1.0"}},
     "detector: z0 must be a real number"),
    ("rate_surface.json", {"detector": {"kappa": [True, 0, 0], "omega": 0.1,
                                        "z0": 1.0}},
     "detector: kappa components must be real numbers"),
    ("rate_surface.json", {"detector": {"kappa": [0.8, 0.3, 1.1], "omega": True,
                                        "z0": 1.0}},
     "detector: omega must be a real number"),
    # quad numbers: an integer count, real tolerances and k_max
    ("rate_surface.json", {"quad": {"max_subdivisions": 2.5, "k_max": 12.0}},
     "quad: max_subdivisions must be an integer"),
    ("rate_surface.json", {"quad": {"max_subdivisions": True, "k_max": 12.0}},
     "quad: max_subdivisions must be an integer"),
    ("rate_surface.json", {"quad": {"k_max": True}}, "quad: k_max must be a real number"),
    ("rate_surface.json", {"quad": {"rel_tol": "x", "k_max": 12.0}},
     "quad: rel_tol must be a real number"),
    ("rate_surface.json", {"quad": {"abs_tol": False, "k_max": 12.0}},
     "quad: abs_tol must be a real number"),
    # keys of another kind, or read by no computation of this one
    OTHER_KINDS_KEY,
    ("fresnel.json", {"quad": {}}, "quad: unknown field"),
    ("kk_check.json", {"frame": {"beta": 0.5}}, "frame: unknown field"),
    ("kk_check.json", {"detector": {"kappa": [1.0, 0.0, 0.0], "omega": 0.1}},
     "detector: unknown field"),
    UNTRUNCATED_K_MAX,
    ("rate_free.json", {"model_file": "bundled:lorentz_dielectric"},
     "model_file: unknown field"),
    ("sweep_kx.json", {"detector": {"kappa": [1.0, 0.0, 0.0], "omega": 0.1}},
     "detector: unknown field"),
    ("identity_check.json", {"quad": {"k_max": 5.0}}, "quad.k_max: unknown field"),
    # non-finite model terms and tolerances, and unknown model keys
    NON_FINITE_MODEL,
    ("fresnel.json", {"model_file": {"electric_terms": [
        {"plasma_strength": 1.0, "resonance": math.nan, "damping": 0.1}]}},
     "model_file: resonance must be finite"),
    ("kk_check.json", {"model_file": {"electric_terms": [
        {"plasma_strength": 1.0, "resonance": 1.0, "damping": math.inf}]}},
     "model_file: damping must be finite"),
    ("rate_surface.json", {"quad": {"rel_tol": math.inf, "k_max": 12.0}},
     "quad: rel_tol must be finite"),
    ("identity_check.json", {"quad": {"abs_tol": math.inf}},
     "quad: abs_tol must be finite"),
    # a JSON integer beyond float range, which the finiteness check cannot take
    ("rate_surface.json", {"quad": {"rel_tol": 10 ** 400, "k_max": 12.0}},
     "quad: int too large to convert to float"),
    MODEL_UNKNOWN_KEY,
    ("reciprocity_check.json", {"model_file": {"electric_terms": [
        {"plasma_strength": 1.0, "resonance": 1.0, "damping": 0.1},
        {"plasma_strength": 1.0, "resonance": 2.0, "dampng": 0.1}]}},
     "model_file: electric_terms[1].dampng: unknown field"),
    # in sorted order, the model's own keys first
    ("sweep_z0.json", {"model_file": {"labl": "x", "Electric_terms": [],
                                      "magnetic_terms": [{"strength": 1.0}]}},
     "model_file: Electric_terms: unknown field; labl: unknown field; "
     "magnetic_terms[0].strength: unknown field"),
    # JSON integers beyond float range, outside quad
    ("fresnel.json", {"kx": 10 ** 400}, "kx: must be a finite number"),
    ("finite_time.json", {"detector": {"kappa": [0.8, 0.3, 1.1], "omega": 10 ** 400,
                                       "z0": 1.0}},
     f"detector: omega must be {RANGE}"),
    ("sweep_beta.json", {"sweep_axis": {"name": "beta", "min": -10 ** 400,
                                        "max": 0.6, "count": 3}},
     "sweep_axis.min/max: need finite numbers with min <= max"),
    ("rate_surface.json", {"detector": {"kappa": [0.8, 10 ** 400, 1.1],
                                        "omega": 0.1, "z0": 1.0}},
     f"detector: kappa components must be {RANGE}"),
    ("finite_time.json", {"detector": {"kappa": [1.0, 0.0, 0.0], "z0": 1.0}},
     "detector.omega: required"),
    # the dissipation identity is algebraic and reads no quad
    ("dissipation_check.json", {"quad": {}}, "quad: unknown field"),
    REL_TOL_BELOW_FLOOR,
    # model terms out of the input range
    MODEL_TERM_HUGE,
    MODEL_TERM_TINY,
]


def assert_rejected(tmp_path, capsys, doc, message):
    """validate and run both exit 1, writing exactly this message."""
    path = write_scenario(tmp_path, doc)
    for command in ("validate", "run"):
        assert run_cli([command, "--scenario", path]) == 1
        assert capsys.readouterr().err == f"invalid scenario: {message}\n"


@pytest.mark.parametrize("name, update, message", FIELD_MESSAGES)
def test_validation_messages_are_pinned(tmp_path, capsys, scenarios_dir,
                                        name, update, message):
    doc = bundled_updated(tmp_path, scenarios_dir, name, update)
    assert_rejected(tmp_path, capsys, doc, message)


# JSON NaN and Infinity parse; fields the computations need finite are
# rejected by name, by validate and by the spec constructors alike.
NON_FINITE = [
    ({"detector": {"kappa": [0.8, math.nan, 1.1], "omega": 0.1, "z0": 1.0}},
     f"detector: kappa components must be {RANGE}"),
    ({"detector": {"kappa": [-math.inf, 0.3, 1.1], "omega": 0.1, "z0": 1.0}},
     f"detector: kappa components must be {RANGE}"),
    ({"quad": {"rel_tol": 1e-5, "abs_tol": 1e-18, "k_max": math.inf}},
     f"quad: k_max must be {RANGE}"),
    ({"detector": {"kappa": [0.8, 0.3, 1.1], "omega": math.inf, "z0": 1.0}},
     f"detector: omega must be {RANGE}"),
]


@pytest.mark.parametrize("update, message", NON_FINITE)
def test_validate_rejects_non_finite_inputs(tmp_path, capsys, scenarios_dir,
                                            update, message):
    doc = dict(json.loads((scenarios_dir / "rate_surface.json").read_text()),
               **update)
    assert "NaN" in json.dumps(doc) or "Infinity" in json.dumps(doc)
    assert_rejected(tmp_path, capsys, doc, message)


def test_specs_reject_non_finite_inputs():
    for kappa in ((0.8, math.nan, 1.1), (math.inf, 0.3, 1.1), (10 ** 400, 0, 1)):
        with pytest.raises(ValueError, match="kappa components must be finite, of"):
            DetectorSpec(kappa=kappa, omega=0.1, z0=1.0)
    for name in ("omega", "z0"):
        for value in (math.inf, math.nan, 10 ** 400):
            with pytest.raises(ValueError, match=f"{name} must be finite, of"):
                DetectorSpec(**dict({"kappa": (1.0, 0.0, 0.0), "omega": 0.1,
                                     "z0": 1.0}, **{name: value}))
    for k_max in (math.inf, math.nan):
        with pytest.raises(ValueError, match="k_max must be"):
            QuadratureSpec(k_max=k_max)
    assert QuadratureSpec(k_max=None).k_max is None
    for name in ("rel_tol", "abs_tol"):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            QuadratureSpec(**{name: math.inf})
    term = {"plasma_strength": 1.0, "resonance": 1.0, "damping": 0.1}
    for name in term:
        for value in (math.inf, math.nan):
            with pytest.raises(ValueError, match=f"{name} must be"):
                LorentzOscillator(**dict(term, **{name: value}))


def test_model_terms_take_the_input_range():
    """Each term of a model is 0 (damping excepted) or within [1/SCALE,
    SCALE], like every dimensionful input."""
    term = {"plasma_strength": 1.0, "resonance": 1.0, "damping": 0.1}
    for name in term:
        for value in (SCALE, 1.0 / SCALE):
            assert getattr(LorentzOscillator(**dict(term, **{name: value})),
                           name) == value
        for value in (math.nextafter(SCALE, math.inf),
                      math.nextafter(1.0 / SCALE, 0.0), 1.4e154):
            with pytest.raises(ValueError) as exc:
                LorentzOscillator(**dict(term, **{name: value}))
            assert str(exc.value) == f"{name} must be {RANGE}"
    for name in ("plasma_strength", "resonance"):
        assert getattr(LorentzOscillator(**dict(term, **{name: 0.0})), name) == 0.0


def test_scale_admits_zero_and_its_two_ends():
    """The range of every dimensionful input is 0 and [1/SCALE, SCALE] in
    magnitude: the next floats beyond its ends, NaN, inf and an int beyond
    float range fail, named by the caller."""
    check_scale("x", 0.0, -0.0, SCALE, -SCALE, 1.0 / SCALE, -1.0 / SCALE, 1)
    for value in (math.nextafter(SCALE, math.inf), -math.nextafter(1.0 / SCALE, 0.0),
                  5e-324, math.nan, -math.inf, 10 ** 400):
        with pytest.raises(ValueError) as exc:
            check_scale("x", 1.0, value)
        assert str(exc.value) == f"x must be {RANGE}"
    quad = QuadratureSpec(abs_tol=sys.float_info.min, k_max=SCALE)
    assert quad.abs_tol == sys.float_info.min and quad.k_max == SCALE
    with pytest.raises(ValueError, match="abs_tol must be >= 2.22507e-308"):
        QuadratureSpec(abs_tol=math.nextafter(sys.float_info.min, 0.0))


def test_specs_keep_their_field_hash_across_pickling():
    """Each spec hashes as the tuple of its fields, as dataclass would, and
    a pickled spec is hashed again when loaded, since its kept hash may come
    from a process with other str hashes."""
    model = load_model("bundled:lorentz_dielectric")
    specs = (model, model.electric_terms[0], MotionFrame(beta=0.5),
             DetectorSpec(kappa=(0.8, 0.3, 1.1), omega=0.1),
             QuadratureSpec(k_max=12.0))
    for spec in specs:
        fields = tuple(getattr(spec, f.name) for f in dataclasses.fields(spec))
        assert hash(spec) == hash(fields)
        assert hash(dataclasses.replace(spec)) == hash(spec)
        object.__setattr__(spec, "_hash", 0)    # a stale kept hash
        loaded = pickle.loads(pickle.dumps(spec))
        assert loaded == spec and hash(loaded) == hash(fields)


def test_specs_take_numpy_numbers_and_store_floats():
    """numpy scalars are real numbers to the specs, as the benchmark passes
    them; a detector keeps its numbers as Python floats."""
    det = DetectorSpec(kappa=tuple(np.array([0.8, 0.3, 1.1])), omega=np.float64(0.1),
                       z0=1)
    assert det == DetectorSpec(kappa=(0.8, 0.3, 1.1), omega=0.1, z0=1.0)
    assert all(type(v) is float for v in (*det.kappa, det.omega, det.z0))
    quad = QuadratureSpec(rel_tol=np.float64(1e-6), max_subdivisions=np.int64(50),
                          k_max=np.float32(12.0))
    assert quad.max_subdivisions == 50 and quad.k_max == 12.0


# ---------------------------------------------------------------------------
# single-evaluation kinds
# ---------------------------------------------------------------------------

def test_run_rate_free_exact_zero(tmp_path):
    doc = {
        "kind": "rate-free",
        "frame": {"beta": 0.5},
        "detector": {"kappa": [1.0, 0.0, 0.0], "omega": 1.0},
        "quad": {},
    }
    out = tmp_path / "out.csv"
    path = write_scenario(tmp_path, doc)
    assert run_cli(["run", "--scenario", path, "--output", out]) == 0
    header, row = out.read_text().strip().splitlines()
    assert header == "gamma,error_estimate,exact"
    assert row.split(",")[0] == "0" and row.split(",")[2] == "True"


def test_run_rate_surface_row(tmp_path):
    path = write_scenario(tmp_path, BASE_RATE)
    out = tmp_path / "out.csv"
    assert run_cli(["run", "--scenario", path, "--output", out]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "gamma,error_estimate,converged,k_lower,k_max,s,p"
    assert len(lines) == 2
    cells = lines[1].split(",")
    assert float(cells[0]) > 0.0
    assert cells[2] == "True"


def test_run_fresnel_and_check_kinds(tmp_path):
    docs = {
        "fresnel": {
            "kind": "fresnel",
            "model_file": "bundled:lorentz_dielectric",
            "frame": {"beta": 0.5},
            "kx": 1.1, "ky": 0.7, "omega": 0.4,
        },
        "identity": {
            "kind": "identity-check",
            "model_file": "bundled:lorentz_dielectric",
            "pairs": [[0.7, 1.3], [-0.6, 1.4]],
            "quad": {},
        },
        "dissipation": {
            "kind": "dissipation-check",
            "model_file": "bundled:lorentz_dielectric",
            "frame": {"beta": 0.3},
            "points": [[0.8, 0.3, 0.5, 1.1]],
        },
        "reciprocity": {
            "kind": "reciprocity-check",
            "model_file": "bundled:lorentz_dielectric",
            "frame": {"beta": 0.5},
            "kx": 2.0, "omega": 0.4,
            "point_a": [0.0, 0.8], "point_b": [0.4, 1.1],
            "quad": {},
        },
    }
    for name, doc in docs.items():
        path = write_scenario(tmp_path, doc, name=f"{name}.json")
        out = tmp_path / f"{name}.csv"
        assert run_cli(["run", "--scenario", path, "--output", out]) == 0, name
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1 + max(1, len(doc.get("pairs", doc.get("points", [0]))))
    rec = run_scenario(scenario_from_dict(docs["identity"]))
    assert all(row["relative_residual"] < 1e-6 for row in rec["outputs"]["rows"])


def test_run_kk_check_reports_residuals(tmp_path):
    doc = {
        "kind": "kk-check",
        "model_file": "bundled:drude_metal",
        "sweep_axis": {"name": "omega", "min": 0.3, "max": 3.0, "count": 5,
                       "spacing": "log"},
        "quad": {},
    }
    rec = run_scenario(scenario_from_dict(doc))
    assert rec["outputs"]["max_rel_error"] < 1e-5
    assert len(rec["outputs"]["rows"]) == 5


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def sweep_doc():
    doc = json.loads(json.dumps(BASE_RATE))
    doc["kind"] = "sweep"
    doc["sweep_axis"] = {"name": "beta", "min": 0.2, "max": 0.6, "count": 3,
                         "spacing": "lin"}
    return doc


def test_sweep_rows_sorted_by_axis(tmp_path):
    path = write_scenario(tmp_path, sweep_doc())
    out = tmp_path / "sweep.csv"
    assert run_cli(["run", "--scenario", path, "--output", out]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "beta,gamma,error_estimate,converged"
    axis = [float(l.split(",")[0]) for l in lines[1:]]
    assert axis == sorted(axis) and len(axis) == 3
    gammas = [float(l.split(",")[1]) for l in lines[1:]]
    assert gammas == sorted(gammas)


def test_sweep_over_kx_emits_fresnel_rows(tmp_path):
    doc = {
        "kind": "sweep",
        "model_file": "bundled:lorentz_dielectric",
        "frame": {"beta": 0.5},
        "ky": 0.4, "omega": 0.3,
        "sweep_axis": {"name": "kx", "min": 1.0, "max": 3.0, "count": 4,
                       "spacing": "lin"},
    }
    path = write_scenario(tmp_path, doc)
    out = tmp_path / "fres.csv"
    assert run_cli(["run", "--scenario", path, "--output", out]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("kx,re_r11,im_r11,re_r22,im_r22")
    assert len(lines) == 5


def test_sweep_workers_do_not_change_bytes(tmp_path):
    path = write_scenario(tmp_path, sweep_doc())
    outs = []
    for n, workers in (("a", "1"), ("b", "2")):
        out = tmp_path / f"{n}.csv"
        assert run_cli(["run", "--scenario", path, "--output", out,
                        "--workers", workers]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


# ---------------------------------------------------------------------------
# finite-time T lists
# ---------------------------------------------------------------------------

FINITE_TIME = {
    "kind": "finite-time",
    "model_file": "bundled:lorentz_dielectric",
    "frame": {"beta": 0.5},
    "detector": {"kappa": [0.8, 0.3, 1.1], "omega": 0.1, "z0": 1.0},
    "quad": {"rel_tol": 0.1, "abs_tol": 1e-12, "k_max": 1.0},
    "T": [0.5, 50.0, 1600.0, 50.0],
}


def test_finite_time_list_builds_one_spline():
    from vacdrag import rates

    scenario = scenario_from_dict(FINITE_TIME)
    rates._rate_spline.cache_clear()
    record = run_scenario(scenario)
    assert rates._rate_spline.cache_info().misses == 1
    assert record["outputs"]["columns"] == ["T", "probability"]
    assert [r["T"] for r in record["outputs"]["rows"]] == FINITE_TIME["T"]
    rates._rate_spline.cache_clear()
    for t, row in zip(FINITE_TIME["T"], record["outputs"]["rows"]):
        alone = run_scenario(scenario_from_dict(dict(FINITE_TIME, T=t)))
        assert alone["outputs"]["rows"] == [row]
        rates._rate_spline.cache_clear()


def test_validate_rejects_bad_finite_time_lists(tmp_path, capsys):
    for bad in ([], [0], ["a"], [50.0, -1.0], True, None):
        doc = dict(FINITE_TIME, T=bad)
        if bad is None:
            del doc["T"]
        path = write_scenario(tmp_path, doc)
        assert run_cli(["validate", "--scenario", path]) == 1
        assert "T:" in capsys.readouterr().err
    for good in (50, 2.5, [50], [0.5, 50.0]):
        path = write_scenario(tmp_path, dict(FINITE_TIME, T=good))
        assert run_cli(["validate", "--scenario", path]) == 0


# ---------------------------------------------------------------------------
# emission and determinism
# ---------------------------------------------------------------------------

def test_csv_byte_determinism(tmp_path):
    path = write_scenario(tmp_path, BASE_RATE)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(["run", "--scenario", path, "--output", a]) == 0
    assert run_cli(["run", "--scenario", path, "--output", b]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_csv_floats_round_trip_17_digits(tmp_path):
    rec = run_scenario(scenario_from_dict(BASE_RATE))
    out = tmp_path / "o.csv"
    emit_results(rec, "csv", str(out))
    row = out.read_text().strip().splitlines()[1].split(",")
    assert float(row[0]) == rec["outputs"]["rows"][0]["gamma"]
    assert float(row[1]) == rec["outputs"]["rows"][0]["error_estimate"]


def test_json_round_trip(tmp_path):
    rec = run_scenario(scenario_from_dict(BASE_RATE))
    out = tmp_path / "o.json"
    emit_results(rec, "json", str(out))
    parsed = json.loads(out.read_text())
    assert parsed == rec
    assert "version" in parsed["provenance"] and "timestamp" in parsed["provenance"]


def test_stdout_emission(tmp_path, capsys):
    path = write_scenario(tmp_path, BASE_RATE)
    assert run_cli(["run", "--scenario", path]) == 0
    out = capsys.readouterr().out
    assert out.startswith("gamma,")


# ---------------------------------------------------------------------------
# caching
# ---------------------------------------------------------------------------

def test_cache_hit_and_key_sensitivity(tmp_path):
    cache = tmp_path / "cache"
    path = write_scenario(tmp_path, BASE_RATE)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli(["run", "--scenario", path, "--output", a, "--format", "json",
                    "--cache-dir", cache]) == 0
    files_once = sorted(cache.glob("*.json"))
    assert len(files_once) == 1
    assert run_cli(["run", "--scenario", path, "--output", b, "--format", "json",
                    "--cache-dir", cache]) == 0
    # cached record carries the original timestamp: bytes identical
    assert a.read_bytes() == b.read_bytes()
    assert sorted(cache.glob("*.json")) == files_once

    looser = json.loads(json.dumps(BASE_RATE))
    looser["quad"]["rel_tol"] = 1e-4
    path2 = write_scenario(tmp_path, looser, name="s2.json")
    assert run_cli(["run", "--scenario", path2, "--output", tmp_path / "c.json",
                    "--format", "json", "--cache-dir", cache]) == 0
    assert len(list(cache.glob("*.json"))) == 2


def test_cache_key_and_provenance_carry_library_versions(tmp_path, monkeypatch):
    scenario = scenario_from_dict(BASE_RATE)
    record = run_scenario(scenario_from_dict(dict(BASE_RATE, quad={
        "rel_tol": 1e-3, "abs_tol": 1e-18, "k_max": 12.0})))
    assert record["provenance"]["numpy"] == np.__version__
    key = cli._cache_key(scenario)
    libraries = cli._libraries()
    monkeypatch.setattr(cli, "_libraries", lambda: dict(libraries, numpy="0.0.0"))
    assert cli._cache_key(scenario) != key
    monkeypatch.undo()
    assert cli._cache_key(scenario) == key


def test_cache_key_covers_the_package_code(tmp_path, scenarios_dir):
    """A cached record is served to the same package bytes, here copied to
    another path, and not to a copy with one comment changed."""
    # a fresh directory per call: the mutation table calls this test twice
    # with one tmp_path
    work = Path(tempfile.mkdtemp(dir=tmp_path))
    cache = work / "cache"
    scenario = scenarios_dir / "rate_surface.json"
    assert run_cli(["run", "--scenario", scenario, "--output", work / "a.csv",
                    "--cache-dir", cache]) == 0
    package = Path(cli.__file__).parent
    comment = "# 15-point Kronrod abscissae (positive half)"
    for name, entries in (("same", 1), ("edited", 2)):
        copy = work / name / "vacdrag"
        shutil.copytree(package, copy, ignore=shutil.ignore_patterns("__pycache__"))
        if name == "edited":
            source = (copy / "quadrature.py").read_text()
            assert source.count(comment) == 1
            (copy / "quadrature.py").write_text(
                source.replace(comment, "# The 15-point Kronrod abscissae (positive half)"))
        subprocess.run([sys.executable, "-m", "vacdrag", "run", "--scenario",
                        str(scenario), "--output", str(work / f"{name}.csv"),
                        "--cache-dir", str(cache)],
                       cwd=work, env=dict(os.environ, PYTHONPATH=str(copy.parent)),
                       check=True)
        assert len(list(cache.glob("*.json"))) == entries
        assert (work / f"{name}.csv").read_bytes() == (work / "a.csv").read_bytes()


def test_cache_corruption_recovers(tmp_path, capsys):
    cache = tmp_path / "cache"
    path = write_scenario(tmp_path, BASE_RATE)
    out1 = tmp_path / "a.csv"
    assert run_cli(["run", "--scenario", path, "--output", out1,
                    "--cache-dir", cache]) == 0
    (cache_file,) = cache.glob("*.json")
    cache_file.write_text("{ not json")
    out2 = tmp_path / "b.csv"
    assert run_cli(["run", "--scenario", path, "--output", out2,
                    "--cache-dir", cache]) == 0
    assert "cache" in capsys.readouterr().err.lower()
    assert out1.read_bytes() == out2.read_bytes()
    json.loads(cache_file.read_text())


def test_cache_entry_that_is_not_a_record_is_recomputed(tmp_path, capsys):
    """Valid JSON without the four record keys is warned about, recomputed
    and rewritten as a whole record."""
    cache = tmp_path / "cache"
    path = write_scenario(tmp_path, BASE_RATE)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(["run", "--scenario", path, "--output", out1,
                    "--cache-dir", cache]) == 0
    (cache_file,) = cache.glob("*.json")
    record = json.loads(cache_file.read_text())
    for entry in ([], {"outputs": record["outputs"]}, dict(record, extra=None)):
        cache_file.write_text(json.dumps(entry))
        assert run_cli(["run", "--scenario", path, "--output", out2,
                        "--cache-dir", cache]) == 0
        assert capsys.readouterr().err == (
            f"warning: unreadable cache entry {cache_file.name}; recomputing\n")
        assert out1.read_bytes() == out2.read_bytes()
        assert json.loads(cache_file.read_text()).keys() == record.keys()


def test_cache_env_var_default(tmp_path, monkeypatch):
    cache = tmp_path / "envcache"
    monkeypatch.setenv("VACDRAG_CACHE_DIR", str(cache))
    path = write_scenario(tmp_path, BASE_RATE)
    assert run_cli(["run", "--scenario", path, "--output", tmp_path / "o.csv"]) == 0
    assert len(list(cache.glob("*.json"))) == 1


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def test_exit_two_on_non_convergence(tmp_path):
    doc = {
        "kind": "kk-check",
        "model_file": "bundled:lorentz_dielectric",
        "sweep_axis": {"name": "omega", "min": 0.3, "max": 1.0, "count": 2,
                       "spacing": "lin"},
        "quad": {"max_subdivisions": 1},
    }
    path = write_scenario(tmp_path, doc)
    out = tmp_path / "o.csv"
    assert run_cli(["run", "--scenario", path, "--output", out]) == 2
    # partial results still written
    assert out.exists() and len(out.read_text().strip().splitlines()) >= 2


def test_exit_two_on_unconverged_finite_time_node(tmp_path, monkeypatch, capsys):
    from test_rates import unconverged_above
    from vacdrag import rates

    unconverged_above(monkeypatch, 0.151)
    path = write_scenario(tmp_path, FINITE_TIME)
    assert run_cli(["run", "--scenario", path, "--output", tmp_path / "o.csv"]) == 2
    assert "gap frequency 0.15305 did not converge" in capsys.readouterr().err
    rates._rate_spline.cache_clear()


def test_exit_three_on_unwritable_output(tmp_path, capsys):
    path = write_scenario(tmp_path, BASE_RATE)
    assert run_cli(["run", "--scenario", path, "--output", tmp_path]) == 3
    assert capsys.readouterr().err != ""


def test_exit_one_on_missing_scenario_file(tmp_path, capsys):
    assert run_cli(["run", "--scenario", tmp_path / "absent.json"]) == 1


# ---------------------------------------------------------------------------
# module entry point
# ---------------------------------------------------------------------------

IMPORT_GUARD = """
import glob, sys
import vacdrag, vacdrag.cli
assert "numpy" not in sys.modules, "import vacdrag loaded numpy"
assert set(vacdrag.__all__) <= set(dir(vacdrag)), set(vacdrag.__all__) - set(dir(vacdrag))
assert {"rates", "quadrature", "specs"} <= set(dir(vacdrag))
assert "numpy" not in sys.modules, "dir(vacdrag) loaded numpy"
paths = sorted(glob.glob(sys.argv[1] + "/*.json"))
assert len(paths) >= 10, paths
for p in paths:
    assert vacdrag.cli.main(["validate", "--scenario", p]) == 0, p
assert "numpy" not in sys.modules, "validation loaded numpy"
assert vacdrag.quadrature.QuadratureSpec is vacdrag.QuadratureSpec
assert "numpy" in sys.modules
vacdrag.rates._rate_spline.cache_clear()
assert vacdrag.rate_surface is vacdrag.rates.rate_surface
names = {}
exec("from vacdrag import *", names)
assert set(vacdrag.__all__) <= set(names), set(vacdrag.__all__) - set(names)
print("ok")
"""


def package_env():
    """The environment with the package under test first on PYTHONPATH, for
    a fresh interpreter (pytest's own pythonpath reaches this one only)."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))


def test_validate_loads_no_numpy(scenarios_dir):
    # a fresh interpreter: this one has numpy loaded already
    proc = subprocess.run([sys.executable, "-c", IMPORT_GUARD, str(scenarios_dir)],
                          capture_output=True, text=True, env=package_env(),
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


def test_python_dash_m_invocation(tmp_path):
    path = write_scenario(tmp_path, BASE_RATE)
    proc = subprocess.run([sys.executable, "-m", "vacdrag", "validate",
                           "--scenario", str(path)], capture_output=True,
                          env=package_env())
    assert proc.returncode == 0
