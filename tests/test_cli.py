"""Scenario runner and CLI: validation, emission, caching, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from vacdrag import cli
from vacdrag.cli import (
    ScenarioValidationError,
    emit_results,
    main,
    record_from_dict,
    record_to_dict,
    run_scenario,
    scenario_from_dict,
)

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


@pytest.mark.parametrize("name, section, key, value", RUN_REJECTS)
def test_validate_rejects_what_run_rejects(tmp_path, capsys, scenarios_dir,
                                           name, section, key, value):
    doc = bundled_with(scenarios_dir, name, section, key, value)
    path = write_scenario(tmp_path, doc)
    assert run_cli(["validate", "--scenario", path]) == 1
    message = capsys.readouterr().err
    assert run_cli(["run", "--scenario", path]) == 1
    assert capsys.readouterr().err == message
    # the computation itself, handed the unvalidated document, fails alike
    with pytest.raises(ValueError) as exc:
        run_scenario(cli.Scenario(kind=doc["kind"], doc=doc))
    assert message == f"invalid scenario: {exc.value}\n"


def test_validate_rejects_grazing_reciprocity_check(tmp_path, capsys,
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
        run_scenario(cli.Scenario(kind=doc["kind"], doc=doc))
    assert message == f"invalid scenario: {exc.value}\n"


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
]


@pytest.mark.parametrize("name, update, reason", KIND_REJECTS)
def test_validate_rejects_what_each_kind_rejects(tmp_path, capsys, scenarios_dir,
                                                 name, update, reason):
    doc = dict(json.loads((scenarios_dir / name).read_text()), **update)
    path = write_scenario(tmp_path, doc)
    assert run_cli(["validate", "--scenario", path]) == 1
    message = capsys.readouterr().err
    assert message == f"invalid scenario: {reason}\n"
    assert run_cli(["run", "--scenario", path]) == 1
    assert capsys.readouterr().err == message


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
            "quad": {},
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
    assert all(row["relative_residual"] < 1e-6 for row in rec.outputs["rows"])


def test_run_kk_check_reports_residuals(tmp_path):
    doc = {
        "kind": "kk-check",
        "model_file": "bundled:drude_metal",
        "sweep_axis": {"name": "omega", "min": 0.3, "max": 3.0, "count": 5,
                       "spacing": "log"},
        "quad": {},
    }
    rec = run_scenario(scenario_from_dict(doc))
    assert rec.outputs["max_rel_error"] < 1e-5
    assert len(rec.outputs["rows"]) == 5


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
    assert record.outputs["columns"] == ["T", "probability"]
    assert [r["T"] for r in record.outputs["rows"]] == FINITE_TIME["T"]
    rates._rate_spline.cache_clear()
    for t, row in zip(FINITE_TIME["T"], record.outputs["rows"]):
        alone = run_scenario(scenario_from_dict(dict(FINITE_TIME, T=t)))
        assert alone.outputs["rows"] == [row]
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
    assert float(row[0]) == rec.outputs["rows"][0]["gamma"]
    assert float(row[1]) == rec.outputs["rows"][0]["error_estimate"]


def test_json_round_trip(tmp_path):
    rec = run_scenario(scenario_from_dict(BASE_RATE))
    out = tmp_path / "o.json"
    emit_results(rec, "json", str(out))
    parsed = record_from_dict(json.loads(out.read_text()))
    assert parsed == rec
    assert record_to_dict(parsed) == record_to_dict(rec)
    assert "version" in parsed.provenance and "timestamp" in parsed.provenance


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
    assert record.provenance["numpy"] == np.__version__
    key = cli._cache_key(scenario)
    libraries = cli._libraries()
    monkeypatch.setattr(cli, "_libraries", lambda: dict(libraries, numpy="0.0.0"))
    assert cli._cache_key(scenario) != key
    monkeypatch.undo()
    assert cli._cache_key(scenario) == key


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


def test_validate_loads_no_numpy(scenarios_dir):
    # a fresh interpreter: this one has numpy loaded already
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", IMPORT_GUARD, str(scenarios_dir)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


def test_python_dash_m_invocation(tmp_path):
    path = write_scenario(tmp_path, BASE_RATE)
    proc = subprocess.run([sys.executable, "-m", "vacdrag", "validate",
                           "--scenario", str(path)], capture_output=True)
    assert proc.returncode == 0
