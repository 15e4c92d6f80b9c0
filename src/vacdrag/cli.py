"""Scenario runner: JSON descriptions of computations, CSV/JSON emission,
content-addressed caching, and a small command-line front end.

One table, `_KINDS`, drives validation and runs alike. Each kind's entry
declares its field rules, its rows, the check and computation of one row,
its columns and the cells of a row that does not converge; a kind run
along a `sweep_axis` has one entry per axis. Besides `kind` and
`sweep_axis`, a scenario may carry only the names of its entry's rules,
which list `frame`, `quad` and `model_file` only where the computation
reads them. The rules are the only parser: a run reads only
`Scenario.inputs`, the values they validated. A row check calls the one
`specs` predicate that the row's computation calls first, with the same
arguments, and validation applies it to the rows that `run` computes, so
it rejects every input that `run` would, with the same message; a log
axis whose predicate holds between its end points (rate, kk-check) is
checked at those ends, so that validation loads no numpy. Only a log kx
sweep, whose light cone may fall on any row, loads numpy to validate.

A result record is the JSON dict of `scenario`, `outputs`, `provenance` and
`wall_time` that `--format json` writes, with `quad` in `provenance` only
for a kind that takes it. Runs are deterministic: CSV cells are printed with
%.17g so values round-trip bit exactly, rows never carry timestamps, and
sweep rows are computed serially in input order. Records cache under a
sha256 of the scenario, the resolved model, the package and numpy versions
and a digest of the package's source and bundled models; a cache entry that
is not such a record is recomputed and rewritten.

Exit codes: 0 success, 1 validation failure, 2 numerical non-convergence
(partial rows are still emitted), 3 output I/O failure.
"""

from __future__ import annotations

import argparse
import copy
import functools
import json
import math
import os
import sys
import time
from collections.abc import Callable
from dataclasses import asdict, dataclass, replace
from pathlib import Path

from . import __version__
from .specs import (DetectorSpec, MotionFrame, NonConvergenceError,
                    QuadratureSpec, check_dissipation, check_identity,
                    check_kk_frequency, check_rate_inputs, check_reciprocity,
                    check_reflection, convolution_panels, is_finite,
                    load_model, model_to_dict, unknown_fields)

__all__ = [
    "Scenario",
    "ScenarioValidationError",
    "cache_lookup_or_compute",
    "emit_results",
    "main",
    "run_scenario",
    "scenario_from_dict",
]

# The package imports its numeric modules on first access (PEP 562): the
# run path reaches them through it, at call time, and validation never does.
_pkg = sys.modules[__package__]


class ScenarioValidationError(ValueError):
    """A scenario document that cannot be run; the message names the fields."""


@dataclass(frozen=True)
class Scenario:
    """A validated scenario: a copy of its document and the inputs parsed from it."""

    kind: str
    doc: dict
    inputs: dict


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) \
        and is_finite(v)


# Field rules: rule(errors, doc, name) returns the value of doc[name] it
# validated, or None after appending a message for each thing wrong with it.

def _number(errors, doc, name):
    """A required finite number, as a float."""
    v = doc.get(name)
    if v is None:
        errors.append(f"{name}: required")
    elif not _is_number(v):
        errors.append(f"{name}: must be a finite number")
    return float(v) if _is_number(v) else None


def _nonzero(errors, doc, name):
    v = _number(errors, doc, name)
    if v == 0.0:
        errors.append(f"{name}: must be nonzero")
    return v


def _optional_number(errors, doc, name):
    """An optional finite number, as a float; 0 when absent."""
    v = doc.get(name, 0.0)
    if _is_number(v):
        return float(v)
    errors.append(f"{name}: must be a finite number")


def _frame(errors, doc, name):
    """An optional {"beta": ...} with |beta| < 1; at rest when absent."""
    if name not in doc:
        return MotionFrame(beta=0.0)
    frame = doc[name] if isinstance(doc[name], dict) else {}
    try:
        if _is_number(frame.get("beta")):
            return MotionFrame(beta=float(frame["beta"]))
        errors.append(f"{name}.beta: required finite number")
    except ValueError as exc:
        errors.append(f"{name}.beta: {exc}")
    finally:
        errors.extend(unknown_fields(frame, ("beta",), f"{name}."))


def _quad(errors, doc, name, truncated=True):
    """An optional object of QuadratureSpec fields; k_max is an unknown field
    where the integrals run to infinity (not `truncated`)."""
    quad = doc.get(name, {})
    if not isinstance(quad, dict):
        errors.append(f"{name}: must be an object")
        return
    try:
        return QuadratureSpec(**(quad if truncated else dict(quad, k_max=None)))
    except (TypeError, ValueError, OverflowError) as exc:
        errors.append(f"{name}: {exc}")
    finally:
        if not truncated and "k_max" in quad:
            errors.append(f"{name}.k_max: unknown field")


def _model(errors, doc, name):
    """A required model file: the model it holds."""
    if name not in doc:
        errors.append(f"{name}: required")
        return None
    try:
        return load_model(doc[name])
    except Exception as exc:
        errors.append(f"{name}: {exc}")


def _absorbing_model(errors, doc, name):
    """A model file with an electric term that absorbs: kk-check divides by
    the electric chi, which vanishes without one."""
    model = _model(errors, doc, name)
    if model is not None and not any(t.plasma_strength > 0.0
                                     for t in model.electric_terms):
        errors.append(f"{name}: kk-check needs an electric term with "
                      "plasma_strength > 0")
    return model


def _point(errors, doc, name):
    """A point (y, z) above the surface."""
    v = doc.get(name)
    if not (isinstance(v, (list, tuple)) and len(v) == 2
            and all(_is_number(c) for c in v)):
        errors.append(f"{name}: must be a list of 2 numbers")
    elif not v[1] > 0.0:
        errors.append(f"{name}: height must be > 0")
    else:
        return tuple(v)


def _number_lists(length, what):
    """A nonempty list of lists of `length` finite numbers, as float tuples."""
    def rule(errors, doc, name):
        v = doc.get(name)
        if (isinstance(v, list) and v
                and all(isinstance(p, (list, tuple)) and len(p) == length
                        and all(_is_number(c) for c in p) for p in v)):
            return [tuple(map(float, p)) for p in v]
        errors.append(f"{name}: required nonempty list of {what}")
    return rule


def _detector(errors, doc, name):
    d = doc.get(name)
    if not isinstance(d, dict):
        errors.append(f"{name}: required object with kappa/omega/z0")
        return
    try:
        return DetectorSpec(kappa=d["kappa"], omega=d["omega"], z0=d.get("z0"))
    except KeyError as exc:
        errors.append(f"{name}.{exc.args[0]}: required")
    except (TypeError, ValueError) as exc:
        errors.append(f"{name}: {exc}")
    finally:
        errors.extend(unknown_fields(d, ("kappa", "omega", "z0"), f"{name}."))


def _times(errors, doc, name):
    T = doc.get(name)
    times = T if isinstance(T, list) else [T]
    if times and all(_is_number(t) and t > 0.0 for t in times):
        return [float(t) for t in times]
    errors.append(f"{name}: required positive number or nonempty list of "
                  "positive numbers")


def _axis_entry(errors, doc, axes):
    """The entry of doc's sweep axis, or None after the first thing wrong with it."""
    axis = doc.get("sweep_axis")
    if not isinstance(axis, dict):
        errors.append("sweep_axis: required object with name/min/max/count")
        return None
    unknown = unknown_fields(axis, ("name", "min", "max", "count", "spacing"),
                             "sweep_axis.")
    if unknown:
        errors.extend(unknown)
        return None
    lo, hi, count = axis.get("min"), axis.get("max"), axis.get("count")
    spacing = axis.get("spacing", "lin")
    if axis.get("name") not in axes:
        errors.append(f"sweep_axis.name: must be one of {', '.join(axes)}")
    elif not (_is_number(lo) and _is_number(hi) and lo <= hi):
        errors.append("sweep_axis.min/max: need finite numbers with min <= max")
    elif not (isinstance(count, int) and not isinstance(count, bool) and count >= 1):
        errors.append("sweep_axis.count: must be a positive integer")
    elif spacing not in ("lin", "log"):
        errors.append("sweep_axis.spacing: must be 'lin' or 'log'")
    elif spacing == "log" and lo <= 0.0:
        errors.append("sweep_axis.min: must be > 0 for log spacing")
    elif axis["name"] == "beta" and not (-1.0 < lo and hi < 1.0):
        errors.append("sweep_axis: beta values must satisfy |beta| < 1")
    else:
        return axes[axis["name"]]


# Rows: each row is a dict of the cells known before computing it. A
# predicate check(inputs, row) raises ValueError as the row's computation
# would; compute(inputs, row) fills in its other cells, from Scenario.inputs.

def _axis_values(axis: dict) -> list:
    """Row values of a sweep axis. Lin spacing is numpy.linspace's own
    formula, i * step + min with the last row set to max, so only log
    spacing needs numpy."""
    lo, hi, count = float(axis["min"]), float(axis["max"]), int(axis["count"])
    if count == 1:
        return [lo]
    if axis.get("spacing", "lin") == "log":
        import numpy as np

        return [float(v) for v in np.geomspace(lo, hi, count)]
    step = (hi - lo) / (count - 1)
    return [i * step + lo for i in range(count - 1)] + [hi]


def _rate_inputs(inputs: dict, row: dict):
    """Detector and frame of a rate row: the scenario's own, with the row's
    beta, z0 or omega in place of the scenario's."""
    det = replace(inputs["detector"],
                  **{k: row[k] for k in ("z0", "omega") if k in row})
    frame = MotionFrame(beta=row["beta"]) if "beta" in row else inputs["frame"]
    return det, frame


def _check_rate(inputs, row, finite_time=False):
    check_rate_inputs(*_rate_inputs(inputs, row), inputs["model_file"],
                      inputs["quad"], finite_time=finite_time)


def _check_time(inputs, row):
    """finite_time_probability's checks, in its order: T, then the rate inputs."""
    convolution_panels(row["T"], inputs["detector"].omega)
    _check_rate(inputs, row, finite_time=True)


def _rate_free(inputs, row):
    r = _pkg.rates.rate_free_space(inputs["detector"], inputs["frame"], inputs["quad"])
    row.update(gamma=r.gamma, error_estimate=r.error_estimate,
               exact=bool(r.exact))


def _rate(inputs, row):
    r = _pkg.rates.rate_surface(*_rate_inputs(inputs, row), inputs["model_file"],
                                inputs["quad"])
    row.update(gamma=r.gamma, error_estimate=r.error_estimate,
               converged=bool(r.converged), k_lower=r.k_lower, k_max=r.k_max,
               s=r.breakdown["s"], p=r.breakdown["p"])


def _probability(inputs, row):
    row["probability"] = _pkg.rates.finite_time_probability(
        *_rate_inputs(inputs, row), inputs["model_file"], inputs["quad"], row["T"])


def _check_mode(inputs, row):
    check_reflection(inputs["model_file"], inputs["frame"].beta, row["kx"],
                     inputs["ky"], inputs["omega"])


def _fresnel(inputs, row):
    rc = _pkg.greens.reflection_coefficients(inputs["model_file"], inputs["frame"],
                                             row["kx"], inputs["ky"], inputs["omega"])
    row.update(re_r11=rc.r11.real, im_r11=rc.r11.imag,
               re_r22=rc.r22.real, im_r22=rc.r22.imag)


def _kk(inputs, row):
    """chi at the row's frequency, once kk_reconstruct's predicate holds
    there; then the reconstruction, which may not converge."""
    model = inputs["model_file"]
    check_kk_frequency(model.electric_terms, row["omega"])
    exact = _pkg.medium.chi(model, "electric", row["omega"])
    row.update(re_chi=exact.real, im_chi=exact.imag)
    rec = _pkg.medium.kk_reconstruct(model, "electric", row["omega"], inputs["quad"])
    row.update(re_reconstructed=rec.real, rel_error=abs(rec - exact) / abs(exact),
               converged=True)


def _identity(inputs, row):
    lhs, rhs, resid = _pkg.medium.verify_identity_1(
        inputs["model_file"], row["omega_minus"], row["omega_plus"], inputs["quad"],
        numerator_shift=inputs["shift"])
    scale = max(abs(lhs), abs(rhs), 1e-300)
    row.update(re_lhs=lhs.real, im_lhs=lhs.imag, re_rhs=rhs.real,
               im_rhs=rhs.imag, relative_residual=resid / scale, converged=True)


def _dissipation(inputs, row):
    rep = _pkg.greens.green_dissipation_identity(
        inputs["model_file"], inputs["frame"], row["kx"], (row["ky"], row["kz"]),
        row["omega"])
    row.update(residual=rep.residual, relative_residual=rep.relative_residual)


def _reciprocity(inputs, row):
    rep = _pkg.greens.reciprocity_check(
        inputs["model_file"], inputs["frame"], row["kx"], row["omega"],
        inputs["point_a"], inputs["point_b"], inputs["quad"])
    row.update(transpose_residual=rep.transpose_residual,
               naive_residual=rep.naive_residual)


def _all_converged(rows) -> dict:
    return {"all_converged": all(r.get("converged", True) for r in rows)}


@dataclass(frozen=True)
class _Kind:
    """One kind of scenario, or one axis of a kind run along a sweep axis."""

    columns: tuple = ()
    compute: Callable | None = None     # fills in one row's cells
    fields: tuple = ()              # (name, rule) pairs, checked in order
    rows: Callable | None = None    # rows(inputs); None: one per sweep-axis value
    check: Callable | None = None   # calls the computation's specs predicate
    failed: dict | None = None      # cells of an unconverged row; None: raise
    summary: Callable | None = None     # summary(rows): fields of the outputs
    log_ends: bool = False          # its predicate holds between a log axis's ends
    axes: dict | None = None        # run along sweep_axis: its entry per name


_RATE = ("gamma", "error_estimate", "converged")
_REFLECTION = ("re_r11", "im_r11", "re_r22", "im_r22")
_FRAME = ("frame", _frame)
_QUAD = ("quad", _quad)
_MODEL = ("model_file", _model)
_DETECTOR = ("detector", _detector)
_RATE_FIELDS = (_FRAME, _QUAD, _MODEL, _DETECTOR)
_MODE = (("kx", _number), ("ky", _number), ("omega", _nonzero))
_UNTRUNCATED_QUAD = ("quad", functools.partial(_quad, truncated=False))


def _rate_axis(name: str) -> _Kind:
    """A beta, z0 or omega axis: one rate per row, unconverged rows kept."""
    return _Kind(columns=(name,) + _RATE, compute=_rate, fields=_RATE_FIELDS,
                 check=_check_rate, summary=_all_converged, log_ends=True,
                 failed={"gamma": math.nan, "error_estimate": math.inf,
                         "converged": False})


_KINDS = {
    "rate-free": _Kind(
        columns=("gamma", "error_estimate", "exact"), compute=_rate_free,
        fields=(_FRAME, _QUAD, _DETECTOR), rows=lambda inputs: [{}]),
    "rate-surface": _Kind(
        columns=_RATE + ("k_lower", "k_max", "s", "p"), compute=_rate,
        fields=_RATE_FIELDS, rows=lambda inputs: [{}], check=_check_rate,
        summary=_all_converged),
    "fresnel": _Kind(
        columns=_REFLECTION, compute=_fresnel, fields=(_FRAME, _MODEL) + _MODE,
        rows=lambda inputs: [{"kx": inputs["kx"]}], check=_check_mode),
    "kk-check": _Kind(axes={"omega": _Kind(
        columns=("omega", "re_chi", "im_chi", "re_reconstructed", "rel_error",
                 "converged"),
        compute=_kk, fields=(_UNTRUNCATED_QUAD, ("model_file", _absorbing_model)),
        log_ends=True,
        check=lambda inputs, row: check_kk_frequency(
            inputs["model_file"].electric_terms, row["omega"]),
        summary=lambda rows: {"max_rel_error": max(r["rel_error"] for r in rows),
                              **_all_converged(rows)},
        failed={"re_reconstructed": math.nan, "rel_error": math.inf,
                "converged": False})}),
    "identity-check": _Kind(
        columns=("omega_minus", "omega_plus", "re_lhs", "im_lhs", "re_rhs",
                 "im_rhs", "relative_residual", "converged"),
        compute=_identity,
        fields=(_UNTRUNCATED_QUAD, _MODEL,
                ("pairs", _number_lists(2, "[omega, omega'] pairs")),
                ("shift", _optional_number)),
        rows=lambda inputs: [{"omega_minus": om, "omega_plus": op}
                             for om, op in inputs["pairs"]],
        check=lambda inputs, row: check_identity(
            inputs["model_file"], row["omega_minus"], row["omega_plus"],
            inputs["shift"]),
        summary=_all_converged,
        failed={"re_lhs": math.nan, "im_lhs": math.nan, "re_rhs": math.nan,
                "im_rhs": math.nan, "relative_residual": math.inf,
                "converged": False}),
    "dissipation-check": _Kind(
        columns=("kx", "ky", "kz", "omega", "residual", "relative_residual"),
        compute=_dissipation,
        fields=(_FRAME, _MODEL,
                ("points", _number_lists(4, "[kx, ky, kz, omega]"))),
        rows=lambda inputs: [dict(zip(("kx", "ky", "kz", "omega"), p))
                             for p in inputs["points"]],
        check=lambda inputs, row: check_dissipation(
            inputs["frame"].beta, row["kx"], row["ky"], row["kz"], row["omega"])),
    "reciprocity-check": _Kind(
        columns=("kx", "omega", "transpose_residual", "naive_residual"),
        compute=_reciprocity,
        fields=(_FRAME, _QUAD, _MODEL, ("kx", _number), ("omega", _number),
                ("point_a", _point), ("point_b", _point)),
        rows=lambda inputs: [{"kx": inputs["kx"], "omega": inputs["omega"]}],
        check=lambda inputs, row: check_reciprocity(
            inputs["model_file"], inputs["frame"].beta, row["kx"], row["omega"],
            inputs["quad"].k_max)),
    "sweep": _Kind(axes={
        **{name: _rate_axis(name) for name in ("beta", "z0", "omega")},
        # not log_ends: the light cone may fall between the ends of a log axis
        "kx": _Kind(columns=("kx",) + _REFLECTION, compute=_fresnel,
                    fields=(_FRAME, _MODEL) + _MODE[1:], check=_check_mode,
                    summary=_all_converged)}),
    "finite-time": _Kind(
        columns=("T", "probability"), compute=_probability,
        fields=_RATE_FIELDS + (("T", _times),),
        rows=lambda inputs: [{"T": t} for t in inputs["T"]],
        check=_check_time),
}


def _rows(inputs: dict, entry: _Kind, ends: bool = False) -> list:
    """The rows of a validated scenario: the entry's own, or one per value of
    the sweep axis. With `ends`, a log axis of an entry whose predicate holds
    between its end points gives just those two, which geomspace returns
    exactly, so that validation loads no numpy."""
    if entry.rows is not None:
        return entry.rows(inputs)
    axis = inputs["sweep_axis"]
    if ends and entry.log_ends and axis.get("spacing", "lin") == "log":
        values = [float(axis["min"]), float(axis["max"])][:axis["count"]]
    else:
        values = _axis_values(axis)
    return [{axis["name"]: v} for v in values]


def scenario_from_dict(doc: dict) -> Scenario:
    """Validate a deep copy of a scenario document and parse it into a
    Scenario: its sweep axis, if any, which selects the entry; then every bad
    field, in the entry's order, and every key it has no rule for, in one
    message; then the entry's predicate on every row the run computes, in
    order, so the first failure is the one run reports."""
    if not isinstance(doc, dict):
        raise ScenarioValidationError("scenario must be a JSON object")
    kind = doc.get("kind")
    if kind is None:
        raise ScenarioValidationError("kind: required")
    if not isinstance(kind, str) or kind not in _KINDS:
        raise ScenarioValidationError(
            f"kind: '{kind}' is not one of {', '.join(_KINDS)}")

    doc = copy.deepcopy(doc)
    errors = []
    inputs = {}
    entry = _KINDS[kind]
    if entry.axes is not None:
        entry = _axis_entry(errors, doc, entry.axes)
        if entry is None:
            raise ScenarioValidationError("; ".join(errors))
        inputs["sweep_axis"] = doc["sweep_axis"]
    inputs.update((name, rule(errors, doc, name)) for name, rule in entry.fields)
    errors.extend(unknown_fields(doc, {"kind", *inputs}))
    if errors:
        raise ScenarioValidationError("; ".join(errors))

    try:
        for row in _rows(inputs, entry, ends=True):
            if entry.check is not None:
                entry.check(inputs, row)
    except ValueError as exc:
        raise ScenarioValidationError(str(exc)) from None
    return Scenario(kind=kind, doc=doc, inputs=inputs)


def _run_rows(inputs: dict, entry: _Kind):
    """Columns, rows and summary of an entry's rows, computed serially in
    order. A row whose computation does not converge gets the entry's
    failed cells, or, if it has none, stops the run."""
    rows = []
    for row in _rows(inputs, entry):
        try:
            entry.compute(inputs, row)
        except NonConvergenceError:
            if entry.failed is None:
                raise
            row.update(entry.failed)
        rows.append({c: row[c] for c in entry.columns})
    return list(entry.columns), rows, entry.summary(rows) if entry.summary else {}


def _run_sweep(scenario: Scenario, workers: int):
    """Rows along the sweep axis, in axis order. `workers` is accepted for
    compatibility and has no effect: rows are computed serially."""
    del workers
    axes = _KINDS[scenario.kind].axes
    return _run_rows(scenario.inputs, axes[scenario.inputs["sweep_axis"]["name"]])


def run_scenario(scenario: Scenario, workers: int = 1) -> dict:
    """Execute a validated scenario and return its result record."""
    from datetime import datetime, timezone

    t0 = time.perf_counter()
    if _KINDS[scenario.kind].axes is None:
        columns, rows, summary = _run_rows(scenario.inputs, _KINDS[scenario.kind])
    else:
        columns, rows, summary = _run_sweep(scenario, workers)
    outputs = {"columns": columns, "rows": rows, **summary}
    provenance = {"version": __version__, **_libraries(),
                  "timestamp": datetime.now(timezone.utc).isoformat()}
    if "quad" in scenario.inputs:
        provenance["quad"] = asdict(scenario.inputs["quad"])
    return {"scenario": scenario.doc, "outputs": outputs,
            "provenance": provenance, "wall_time": time.perf_counter() - t0}


def _csv_cell(value) -> str:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return "%.17g" % value
    return str(value)       # True, False


def emit_results(record: dict, fmt: str, path=None) -> None:
    """Write a record as CSV (bare column names, %.17g cells) or full JSON."""
    if fmt == "csv":
        columns = record["outputs"]["columns"]
        lines = [",".join(columns)]
        for row in record["outputs"]["rows"]:
            lines.append(",".join(_csv_cell(row[c]) for c in columns))
        text = "\n".join(lines) + "\n"
    elif fmt == "json":
        text = json.dumps(record, indent=2, sort_keys=True) + "\n"
    else:
        raise ValueError(f"unknown format '{fmt}'")
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _libraries() -> dict:
    """Versions of the libraries that can change result bits, as imported;
    part of the provenance and of the cache key."""
    import numpy

    return {"numpy": numpy.__version__}


@functools.cache
def _code_digest() -> str:
    """sha256 of the package's own *.py and models/*.json files, names and
    bytes in sorted name order: part of the cache key, so that a change of
    the code or of a bundled model is never served a record of the old."""
    import hashlib

    root = Path(__file__).parent
    digest = hashlib.sha256()
    for path in sorted((*root.glob("*.py"), *root.glob("models/*.json"))):
        digest.update(path.relative_to(root).as_posix().encode("utf-8") + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _cache_key(scenario: Scenario) -> str:
    import hashlib

    key_doc = {"scenario": scenario.doc, "version": __version__,
               "code": _code_digest(), **_libraries()}
    if "model_file" in scenario.inputs:
        key_doc["model"] = model_to_dict(scenario.inputs["model_file"])
    canonical = json.dumps(key_doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:32]


def cache_lookup_or_compute(scenario: Scenario, cache_dir,
                            workers: int = 1) -> dict:
    """Return the cached record for this scenario, or compute and cache it.

    An entry that is not a JSON object with exactly the four record keys is
    reported to stderr and recomputed; records with non-converged rows are
    never cached.
    """
    cache_dir = Path(cache_dir)
    path = cache_dir / f"{_cache_key(scenario)}.json"
    if path.exists():
        try:
            record = json.loads(path.read_text(encoding="utf-8"))
        except ValueError:      # not UTF-8, or not JSON
            record = None
        if isinstance(record, dict) and \
                record.keys() == {"scenario", "outputs", "provenance", "wall_time"}:
            return record
        print(f"warning: unreadable cache entry {path.name}; recomputing",
              file=sys.stderr)
    record = run_scenario(scenario, workers=workers)
    if record["outputs"].get("all_converged", True):
        cache_dir.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f"{path.stem}.{os.getpid()}.tmp")
        tmp.write_text(json.dumps(record, sort_keys=True), encoding="utf-8")
        os.replace(tmp, path)
    return record


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vacdrag",
        description="excitation rates and Green-function checks for a "
                    "detector above a moving dissipative half-space")
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="execute a scenario file")
    run_p.add_argument("--scenario", required=True)
    run_p.add_argument("--output", default=None)
    run_p.add_argument("--format", choices=("csv", "json"), default="csv")
    run_p.add_argument("--workers", type=int, default=1,
                       help="accepted for compatibility; has no effect")
    run_p.add_argument("--cache-dir", default=None)
    val_p = sub.add_parser("validate", help="check a scenario file")
    val_p.add_argument("--scenario", required=True)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        doc = json.loads(Path(args.scenario).read_text(encoding="utf-8"))
    except OSError as exc:
        print(f"cannot read scenario: {exc}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as exc:
        print(f"scenario is not valid JSON: {exc}", file=sys.stderr)
        return 1
    try:
        scenario = scenario_from_dict(doc)
    except ScenarioValidationError as exc:
        print(f"invalid scenario: {exc}", file=sys.stderr)
        return 1
    if args.command == "validate":
        return 0

    cache_dir = args.cache_dir or os.environ.get("VACDRAG_CACHE_DIR")
    try:
        if cache_dir:
            record = cache_lookup_or_compute(scenario, cache_dir,
                                             workers=args.workers)
        else:
            record = run_scenario(scenario, workers=args.workers)
    except NonConvergenceError as exc:
        print(f"computation did not converge: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError) as exc:
        print(f"invalid scenario: {exc}", file=sys.stderr)
        return 1
    try:
        emit_results(record, args.format, args.output)
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return 3
    if not record["outputs"].get("all_converged", True):
        print("warning: some rows did not converge", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
