"""Scenario runner: JSON descriptions of computations, CSV/JSON emission,
content-addressed caching, and a small command-line front end.

A scenario is a JSON object with a `kind` selecting the computation and
kind-specific fields. Runs are deterministic: CSV cells are printed with
%.17g so values round-trip bit exactly, rows never carry timestamps, and
sweep rows are computed serially in input order. Records cache under a
sha256 of the normalized scenario, the resolved model content, and the
package and numpy versions; unreadable cache entries are recomputed and
rewritten, never trusted.

Validation needs no numerics: at top level this module imports only the
standard library and `specs`, and the functions of the run path import what
only they use (the numeric modules, hashlib, datetime) and look the numeric
functions up through their modules at call time. Validation applies the
computations' own input checks, the numpy-free predicates in `specs`, to
every input a scenario computes, each sweep row included, so it rejects
every input that `run` would reject: `check_rate_inputs` to every rate,
`check_not_grazing` to a reciprocity check, `check_reflected_mode` to a
Fresnel mode and every kx sweep row, `check_kk_frequency` to every kk-check
frequency, `check_pole_pair` to every identity-check pair and
`check_not_comoving` to every dissipation-check point. So `vacdrag
validate` loads no numpy, except for the rows of a log-spaced kx sweep.

Exit codes: 0 success, 1 validation failure, 2 numerical non-convergence
(partial rows are still emitted), 3 output I/O failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path

from . import __version__
from .specs import (DetectorSpec, MotionFrame, NonConvergenceError,
                    QuadratureSpec, check_kk_frequency, check_not_comoving,
                    check_not_grazing, check_pole_pair, check_rate_inputs,
                    check_reflected_mode, load_model, model_to_dict)

__all__ = [
    "ResultRecord",
    "Scenario",
    "ScenarioValidationError",
    "cache_lookup_or_compute",
    "emit_results",
    "main",
    "record_from_dict",
    "record_to_dict",
    "run_scenario",
    "scenario_from_dict",
]

_KINDS = ("rate-free", "rate-surface", "fresnel", "kk-check", "identity-check",
          "dissipation-check", "reciprocity-check", "sweep", "finite-time")

_RATE_AXES = ("beta", "z0", "omega")


class ScenarioValidationError(ValueError):
    """A scenario document that cannot be run; the message names the fields."""


@dataclass(frozen=True)
class Scenario:
    kind: str
    doc: dict

    def model(self):
        return load_model(self.doc["model_file"])

    def frame(self) -> MotionFrame:
        return MotionFrame(beta=float(self.doc.get("frame", {}).get("beta", 0.0)))

    def detector(self) -> DetectorSpec:
        d = self.doc["detector"]
        z0 = d.get("z0")
        return DetectorSpec(kappa=tuple(d["kappa"]), omega=float(d["omega"]),
                            z0=None if z0 is None else float(z0))

    def quad(self) -> QuadratureSpec:
        return QuadratureSpec(**self.doc.get("quad", {}))


@dataclass(frozen=True)
class ResultRecord:
    scenario: dict
    outputs: dict
    provenance: dict
    wall_time: float


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) \
        and math.isfinite(v)


def _check_vector(errors, doc, name, length):
    v = doc.get(name)
    if not (isinstance(v, (list, tuple)) and len(v) == length
            and all(_is_number(c) for c in v)):
        errors.append(f"{name}: must be a list of {length} numbers")
        return None
    return v


def _check_number(errors, doc, name, required=True):
    v = doc.get(name)
    if v is None:
        if required:
            errors.append(f"{name}: required")
        return None
    if not _is_number(v):
        errors.append(f"{name}: must be a finite number")
        return None
    return v


def _validate_sweep_axis(errors, doc, allowed):
    axis = doc.get("sweep_axis")
    if not isinstance(axis, dict):
        errors.append("sweep_axis: required object with name/min/max/count")
        return None
    name = axis.get("name")
    if name not in allowed:
        errors.append(f"sweep_axis.name: must be one of {', '.join(allowed)}")
        return None
    lo, hi = axis.get("min"), axis.get("max")
    if not (_is_number(lo) and _is_number(hi) and lo <= hi):
        errors.append("sweep_axis.min/max: need finite numbers with min <= max")
        return None
    count = axis.get("count")
    if not (isinstance(count, int) and not isinstance(count, bool) and count >= 1):
        errors.append("sweep_axis.count: must be a positive integer")
        return None
    spacing = axis.get("spacing", "lin")
    if spacing not in ("lin", "log"):
        errors.append("sweep_axis.spacing: must be 'lin' or 'log'")
        return None
    if spacing == "log" and lo <= 0.0:
        errors.append("sweep_axis.min: must be > 0 for log spacing")
        return None
    if name == "beta" and not (-1.0 < lo and hi < 1.0):
        errors.append("sweep_axis: beta values must satisfy |beta| < 1")
        return None
    return axis


def scenario_from_dict(doc: dict) -> Scenario:
    """Validate a scenario document; the error message names every bad field."""
    if not isinstance(doc, dict):
        raise ScenarioValidationError("scenario must be a JSON object")
    kind = doc.get("kind")
    if kind is None:
        raise ScenarioValidationError("kind: required")
    if kind not in _KINDS:
        raise ScenarioValidationError(
            f"kind: '{kind}' is not one of {', '.join(_KINDS)}")

    errors = []
    if "frame" in doc:
        frame_doc = doc["frame"]
        if not (isinstance(frame_doc, dict) and _is_number(frame_doc.get("beta"))):
            errors.append("frame.beta: required finite number")
        else:
            try:
                MotionFrame(beta=float(frame_doc["beta"]))
            except ValueError as exc:
                errors.append(f"frame.beta: {exc}")
    if "quad" in doc:
        if not isinstance(doc["quad"], dict):
            errors.append("quad: must be an object")
        else:
            try:
                QuadratureSpec(**doc["quad"])
            except (TypeError, ValueError) as exc:
                errors.append(f"quad: {exc}")

    model = None
    if kind != "rate-free":
        if "model_file" not in doc:
            errors.append("model_file: required")
        else:
            try:
                model = load_model(doc["model_file"])
            except Exception as exc:
                errors.append(f"model_file: {exc}")

    axis = None
    if kind == "sweep":
        axis = _validate_sweep_axis(errors, doc, _RATE_AXES + ("kx",))
    elif kind == "kk-check":
        axis = _validate_sweep_axis(errors, doc, ("omega",))

    needs_detector = kind in ("rate-free", "rate-surface", "finite-time") \
        or (kind == "sweep" and axis is not None and axis["name"] in _RATE_AXES)
    if needs_detector:
        det_doc = doc.get("detector")
        if not isinstance(det_doc, dict):
            errors.append("detector: required object with kappa/omega/z0")
        else:
            try:
                Scenario(kind=kind, doc={"detector": det_doc}).detector()
            except (KeyError, TypeError, ValueError) as exc:
                errors.append(f"detector: {exc}")

    if kind == "fresnel" or (kind == "sweep" and axis is not None
                             and axis["name"] == "kx"):
        if kind == "fresnel":
            _check_number(errors, doc, "kx")
        _check_number(errors, doc, "ky")
        omega = _check_number(errors, doc, "omega")
        if omega is not None and omega == 0.0:
            errors.append("omega: must be nonzero")
    if kind == "identity-check":
        pairs = doc.get("pairs")
        if not (isinstance(pairs, list) and pairs
                and all(isinstance(p, (list, tuple)) and len(p) == 2
                        and all(_is_number(c) for c in p) for p in pairs)):
            errors.append("pairs: required nonempty list of [omega, omega'] pairs")
        if "shift" in doc and not _is_number(doc["shift"]):
            errors.append("shift: must be a finite number")
    if kind == "dissipation-check":
        points = doc.get("points")
        if not (isinstance(points, list) and points
                and all(isinstance(p, (list, tuple)) and len(p) == 4
                        and all(_is_number(c) for c in p) for p in points)):
            errors.append("points: required nonempty list of [kx, ky, kz, omega]")
    if kind == "reciprocity-check":
        _check_number(errors, doc, "kx")
        _check_number(errors, doc, "omega")
        for name in ("point_a", "point_b"):
            pt = _check_vector(errors, doc, name, 2)
            if pt is not None and not pt[1] > 0.0:
                errors.append(f"{name}: height must be > 0")
    if kind == "finite-time":
        T = doc.get("T")
        times = T if isinstance(T, list) else [T]
        if not (times and all(_is_number(t) and t > 0.0 for t in times)):
            errors.append("T: required positive number or nonempty list of "
                          "positive numbers")

    if errors:
        raise ScenarioValidationError("; ".join(errors))
    known = ("kind", "model_file", "frame", "detector", "quad", "sweep_axis",
             "kx", "ky", "omega", "pairs", "points", "point_a", "point_b",
             "shift", "T")
    norm = {k: doc[k] for k in known if k in doc}
    scenario = Scenario(kind=kind, doc=norm)
    try:
        _check_inputs(scenario, model)
    except ValueError as exc:
        raise ScenarioValidationError(str(exc)) from None
    return scenario


def _check_inputs(scenario: Scenario, model) -> None:
    """The computations' own input checks, on every input the run computes
    and in the order it computes them, so the first failure is the one run
    reports."""
    kind, doc = scenario.kind, scenario.doc
    for det, frame in _rate_inputs(scenario):
        check_rate_inputs(det, frame, model, scenario.quad(),
                          finite_time=kind == "finite-time")
    if kind == "fresnel":
        check_reflected_mode(float(doc["kx"]), float(doc["ky"]), float(doc["omega"]))
    elif kind == "sweep" and doc["sweep_axis"]["name"] == "kx":
        # a log kx axis needs numpy's rows: the light cone may fall on one
        for kx in _axis_values(doc["sweep_axis"]):
            check_reflected_mode(kx, float(doc["ky"]), float(doc["omega"]))
    elif kind == "kk-check" and doc["sweep_axis"].get("spacing", "lin") == "lin":
        # (log rows are positive: a log axis needs min > 0)
        for omega in _axis_values(doc["sweep_axis"]):
            check_kk_frequency(omega)
    elif kind == "identity-check":
        for om, op in doc["pairs"]:
            check_pole_pair(float(om), float(op))
    elif kind == "dissipation-check":
        beta = scenario.frame().beta
        for kx, _, _, omega in doc["points"]:
            check_not_comoving(beta, float(kx), float(omega))
    elif kind == "reciprocity-check":
        check_not_grazing(float(doc["kx"]), float(doc["omega"]))


def _rate_inputs(scenario: Scenario) -> list:
    """(detector, frame) of every rate a validated scenario computes: one
    for rate-surface and finite-time, one per row of a lin rate sweep, and
    for a log rate sweep one per end point, which geomspace returns exactly
    and between which every other (positive) row lies; none otherwise."""
    if scenario.kind in ("rate-surface", "finite-time"):
        return [(scenario.detector(), scenario.frame())]
    if scenario.kind == "sweep":
        axis = scenario.doc["sweep_axis"]
        if axis["name"] in _RATE_AXES:
            if axis.get("spacing", "lin") == "log":
                values = [float(axis["min"]), float(axis["max"])][:axis["count"]]
            else:
                values = _axis_values(axis)
            return [_row_inputs(scenario, axis["name"], v) for v in values]
    return []


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


def _row_inputs(scenario: Scenario, axis_name: str, value: float):
    """Detector and frame of one row of a beta, z0 or omega sweep."""
    frame = scenario.frame()
    det = scenario.detector()
    if axis_name == "beta":
        frame = MotionFrame(beta=value)
    elif axis_name == "z0":
        det = replace(det, z0=value)
    else:
        det = replace(det, omega=value)
    return det, frame


def _rate_surface_row(scenario: Scenario, axis_name: str, value: float) -> dict:
    from . import rates

    det, frame = _row_inputs(scenario, axis_name, value)
    row = {axis_name: value}
    try:
        r = rates.rate_surface(det, frame, scenario.model(), scenario.quad())
        row.update(gamma=r.gamma, error_estimate=r.error_estimate,
                   converged=bool(r.converged))
    except NonConvergenceError:
        row.update(gamma=math.nan, error_estimate=math.inf, converged=False)
    return row


def _fresnel_row_values(model, frame, kx, ky, omega) -> dict:
    from . import greens

    rc = greens.reflection_coefficients(model, frame, kx, ky, omega)
    return {"re_r11": rc.r11.real, "im_r11": rc.r11.imag,
            "re_r22": rc.r22.real, "im_r22": rc.r22.imag}


def _sweep_row(scenario: Scenario, value: float) -> dict:
    axis_name = scenario.doc["sweep_axis"]["name"]
    if axis_name in _RATE_AXES:
        return _rate_surface_row(scenario, axis_name, value)
    row = {"kx": value}
    row.update(_fresnel_row_values(scenario.model(), scenario.frame(), value,
                                   float(scenario.doc["ky"]),
                                   float(scenario.doc["omega"])))
    return row


def _run_sweep(scenario: Scenario, workers: int):
    """Sweep rows in axis order. `workers` is accepted for compatibility and
    has no effect: rows are computed serially."""
    del workers
    axis = scenario.doc["sweep_axis"]
    rows = [_sweep_row(scenario, v) for v in _axis_values(axis)]
    if axis["name"] in _RATE_AXES:
        columns = [axis["name"], "gamma", "error_estimate", "converged"]
        summary = {"all_converged": all(r["converged"] for r in rows)}
    else:
        columns = ["kx", "re_r11", "im_r11", "re_r22", "im_r22"]
        summary = {"all_converged": True}
    return columns, rows, summary


def _run_kk_check(scenario: Scenario):
    from . import medium

    model = scenario.model()
    quad = scenario.quad()
    rows = []
    for omega in _axis_values(scenario.doc["sweep_axis"]):
        exact = medium.chi(model, "electric", omega)
        row = {"omega": omega, "re_chi": exact.real, "im_chi": exact.imag}
        try:
            rec = medium.kk_reconstruct(model, "electric", omega, quad)
            row.update(re_reconstructed=rec.real,
                       rel_error=abs(rec - exact) / abs(exact), converged=True)
        except NonConvergenceError:
            row.update(re_reconstructed=math.nan, rel_error=math.inf,
                       converged=False)
        rows.append(row)
    columns = ["omega", "re_chi", "im_chi", "re_reconstructed", "rel_error",
               "converged"]
    summary = {"max_rel_error": max(r["rel_error"] for r in rows),
               "all_converged": all(r["converged"] for r in rows)}
    return columns, rows, summary


def _run_identity_check(scenario: Scenario):
    from . import medium

    model = scenario.model()
    quad = scenario.quad()
    shift = float(scenario.doc.get("shift", 0.0))
    rows = []
    for om, op in scenario.doc["pairs"]:
        row = {"omega_minus": float(om), "omega_plus": float(op)}
        try:
            lhs, rhs, resid = medium.verify_identity_1(
                model, float(om), float(op), quad, numerator_shift=shift)
            scale = max(abs(lhs), abs(rhs), 1e-300)
            row.update(re_lhs=lhs.real, im_lhs=lhs.imag, re_rhs=rhs.real,
                       im_rhs=rhs.imag, relative_residual=resid / scale,
                       converged=True)
        except NonConvergenceError:
            row.update(re_lhs=math.nan, im_lhs=math.nan, re_rhs=math.nan,
                       im_rhs=math.nan, relative_residual=math.inf,
                       converged=False)
        rows.append(row)
    columns = ["omega_minus", "omega_plus", "re_lhs", "im_lhs", "re_rhs",
               "im_rhs", "relative_residual", "converged"]
    summary = {"all_converged": all(r["converged"] for r in rows)}
    return columns, rows, summary


def run_scenario(scenario: Scenario, workers: int = 1) -> ResultRecord:
    """Execute a validated scenario and return the full result record."""
    from datetime import datetime, timezone

    from . import greens, rates

    t0 = time.perf_counter()
    kind = scenario.kind
    summary = {}
    if kind == "rate-free":
        r = rates.rate_free_space(scenario.detector(), scenario.frame(),
                                  scenario.quad())
        columns = ["gamma", "error_estimate", "exact"]
        rows = [{"gamma": r.gamma, "error_estimate": r.error_estimate,
                 "exact": bool(r.exact)}]
    elif kind == "rate-surface":
        r = rates.rate_surface(scenario.detector(), scenario.frame(),
                               scenario.model(), scenario.quad())
        columns = ["gamma", "error_estimate", "converged", "k_lower", "k_max",
                   "s", "p"]
        rows = [{"gamma": r.gamma, "error_estimate": r.error_estimate,
                 "converged": bool(r.converged), "k_lower": r.k_lower,
                 "k_max": r.k_max, "s": r.breakdown["s"],
                 "p": r.breakdown["p"]}]
        summary = {"all_converged": bool(r.converged)}
    elif kind == "fresnel":
        vals = _fresnel_row_values(scenario.model(), scenario.frame(),
                                   float(scenario.doc["kx"]),
                                   float(scenario.doc["ky"]),
                                   float(scenario.doc["omega"]))
        columns = list(vals)
        rows = [vals]
    elif kind == "kk-check":
        columns, rows, summary = _run_kk_check(scenario)
    elif kind == "identity-check":
        columns, rows, summary = _run_identity_check(scenario)
    elif kind == "dissipation-check":
        model, frame, quad = scenario.model(), scenario.frame(), scenario.quad()
        rows = []
        for kx, ky, kz, omega in scenario.doc["points"]:
            rep = greens.green_dissipation_identity(model, frame, float(kx),
                                                    (float(ky), float(kz)),
                                                    float(omega), quad)
            rows.append({"kx": float(kx), "ky": float(ky), "kz": float(kz),
                         "omega": float(omega), "residual": rep.residual,
                         "relative_residual": rep.relative_residual})
        columns = ["kx", "ky", "kz", "omega", "residual", "relative_residual"]
    elif kind == "reciprocity-check":
        rep = greens.reciprocity_check(scenario.model(), scenario.frame(),
                                       float(scenario.doc["kx"]),
                                       float(scenario.doc["omega"]),
                                       tuple(scenario.doc["point_a"]),
                                       tuple(scenario.doc["point_b"]),
                                       scenario.quad())
        columns = ["kx", "omega", "transpose_residual", "naive_residual"]
        rows = [{"kx": float(scenario.doc["kx"]),
                 "omega": float(scenario.doc["omega"]),
                 "transpose_residual": rep.transpose_residual,
                 "naive_residual": rep.naive_residual}]
    elif kind == "sweep":
        columns, rows, summary = _run_sweep(scenario, workers)
    else:
        # one rate-spline build serves every T of the list
        det, frame = scenario.detector(), scenario.frame()
        model, quad = scenario.model(), scenario.quad()
        T = scenario.doc["T"]
        columns = ["T", "probability"]
        rows = [{"T": float(t),
                 "probability": rates.finite_time_probability(
                     det, frame, model, quad, float(t))}
                for t in (T if isinstance(T, list) else [T])]

    outputs = {"columns": columns, "rows": rows}
    outputs.update(summary)
    provenance = {"version": __version__, **_libraries(),
                  "timestamp": datetime.now(timezone.utc).isoformat(),
                  "quad": asdict(scenario.quad())}
    return ResultRecord(scenario=scenario.doc, outputs=outputs,
                        provenance=provenance,
                        wall_time=time.perf_counter() - t0)


def record_to_dict(record: ResultRecord) -> dict:
    return {"scenario": record.scenario, "outputs": record.outputs,
            "provenance": record.provenance, "wall_time": record.wall_time}


def record_from_dict(doc: dict) -> ResultRecord:
    return ResultRecord(scenario=doc["scenario"], outputs=doc["outputs"],
                        provenance=doc["provenance"],
                        wall_time=doc["wall_time"])


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "True" if value else "False"
    if isinstance(value, (int, float)):
        return "%.17g" % value
    return str(value)


def emit_results(record: ResultRecord, fmt: str, path=None) -> None:
    """Write a record as CSV (bare column names, %.17g cells) or full JSON."""
    if fmt == "csv":
        lines = [",".join(record.outputs["columns"])]
        for row in record.outputs["rows"]:
            lines.append(",".join(_csv_cell(row[c])
                                  for c in record.outputs["columns"]))
        text = "\n".join(lines) + "\n"
    elif fmt == "json":
        text = json.dumps(record_to_dict(record), indent=2, sort_keys=True) + "\n"
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


def _cache_key(scenario: Scenario) -> str:
    import hashlib

    key_doc = {"scenario": scenario.doc, "version": __version__,
               **_libraries()}
    if "model_file" in scenario.doc:
        key_doc["model"] = model_to_dict(scenario.model())
    canonical = json.dumps(key_doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:32]


def cache_lookup_or_compute(scenario: Scenario, cache_dir,
                            workers: int = 1) -> ResultRecord:
    """Return the cached record for this scenario, or compute and cache it.

    Unreadable entries are reported to stderr and recomputed; records with
    non-converged rows are never cached.
    """
    cache_dir = Path(cache_dir)
    path = cache_dir / f"{_cache_key(scenario)}.json"
    if path.exists():
        try:
            return record_from_dict(json.loads(path.read_text(encoding="utf-8")))
        except (json.JSONDecodeError, KeyError, TypeError, ValueError):
            print(f"warning: unreadable cache entry {path.name}; recomputing",
                  file=sys.stderr)
    record = run_scenario(scenario, workers=workers)
    if record.outputs.get("all_converged", True):
        cache_dir.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f"{path.stem}.{os.getpid()}.tmp")
        tmp.write_text(json.dumps(record_to_dict(record), sort_keys=True),
                       encoding="utf-8")
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
    if not record.outputs.get("all_converged", True):
        print("warning: some rows did not converge", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
