"""One run of one workload in a fresh interpreter; started by run.py.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --workload NAME --seed N --setup-only

The set-up phase (imports, model loading, input generation) ends at the
`ready_clock` reading printed in the result; run.py turns it into `setup_s`,
leaving out the `ready_paused` seconds the host-speed meter spent sampling
and scaling by `ready_scale`, the meter's reference seconds per second over
set-up (see hostspeed.py). With --trace 0 the worker starts whole rounds of
the workload's operations until --seconds have passed (at least one round),
checks the outputs and reports its times in the meter's reference seconds.
With --trace 1 it runs one untraced round and one traced round, checks that
both gave bit-identical outputs and reports the per-layer metrics and the
tracing overhead. The last line of standard output is one
JSON object.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import hostspeed
import tracer as tracing
from workloads import OUT, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


def fingerprint(value):
    """A hashable, bit-exact rendering of an output for comparisons."""
    if isinstance(value, float):
        return ("f", value.hex())
    if isinstance(value, complex):
        return ("c", value.real.hex(), value.imag.hex())
    if isinstance(value, (bool, int, str, bytes)) or value is None:
        return value
    if isinstance(value, np.generic):
        return fingerprint(value.item())
    if isinstance(value, dict):
        return tuple((k, fingerprint(v)) for k, v in sorted(value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(fingerprint(v) for v in value)
    if dataclasses.is_dataclass(value):
        return tuple((f.name, fingerprint(getattr(value, f.name)))
                     for f in dataclasses.fields(value))
    if isinstance(value, Exception):
        return ("error", repr(value))
    arr = np.asarray(value)
    return (arr.dtype.str, arr.shape, arr.tobytes())


def run_round(workload, clock=time.perf_counter):
    """Run every operation once; returns (outputs, the `clock` reading at the
    start and end of each operation, the readings at the start and end of
    the round)."""
    workload.before_round()
    ops = workload.operations()
    outputs, spans = [], []
    t_round = clock()
    for label, op in ops:
        t0 = clock()
        try:
            out = op()
        except Exception as exc:          # counted as a failed operation
            out = exc
            print(f"{workload.name}: {label} failed: {exc!r}", file=sys.stderr)
        spans.append((t0, clock()))
        outputs.append(out)
    return outputs, spans, (t_round, clock())


def check_outputs(workload, outputs):
    """Indexes of operations that failed their check; `correct` is False if
    the checks themselves could not run."""
    try:
        errors = workload.check(outputs)
    except Exception:
        traceback.print_exc()
        return set(range(len(outputs))), False
    for i, msg in sorted(errors.items()):
        label = workload.operations()[i][0]
        print(f"{workload.name}: check failed for {label}: {msg}", file=sys.stderr)
    return set(errors), not errors


def peak_rss_mib(workload) -> float:
    who = resource.RUSAGE_CHILDREN if workload.name == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def timed_run(workload, seconds, meter):
    rounds = []
    start = time.perf_counter()
    repeat = workload.can_repeat()
    while True:
        rounds.append(run_round(workload, meter.wall))
        if not repeat or time.perf_counter() - start >= seconds:
            break
    rss = peak_rss_mib(workload)
    labels = [label for label, _ in workload.operations()]
    first = [fingerprint(o) for o in rounds[0][0]]
    raised = [i for outs, _, _ in rounds for i, o in enumerate(outs)
              if isinstance(o, Exception)]
    bad, correct = check_outputs(workload, rounds[0][0])
    for outs, _, _ in rounds[1:]:
        # every round repeats the same operations on the same inputs
        changed = {i for i, o in enumerate(outs) if fingerprint(o) != first[i]}
        if changed:
            print(f"{workload.name}: outputs changed between rounds: "
                  f"{sorted(changed)}", file=sys.stderr)
        bad |= changed
    failed = len(raised) + sum(
        1 for outs, _, _ in rounds for i in bad if not isinstance(outs[i], Exception))
    # Times are in reference seconds (see hostspeed.py); repeated
    # measurements keep their median.
    meter.stop()
    spans = np.array([r[1] + [r[2]] for r in rounds])   # rounds x (ops + 1) x 2
    times = meter.reference(spans[..., 0], spans[..., 1])
    typical = np.median(times[:, :-1], axis=0).tolist()
    metrics = {
        "wall_s": float(np.median(times[:, -1])),
        # a mean, not a median: operations of one workload differ in cost up
        # to tenfold, so which one sits in the middle changes with the seed
        "op_s": workload.op_s(labels, typical),
        "peak_rss_mib": rss,
    }
    if workload.name == "cli":
        metrics["setup_s"] = statistics.median(
            t for label, t in zip(labels, typical) if label.startswith("validate"))
    print(f"{workload.name}: {len(meter.samples)} host-speed samples, kernel median "
          f"{statistics.median(meter.samples) * 1e3:.4f} ms", file=sys.stderr)
    units = {"wall_s": "s", "op_s": "s", "peak_rss_mib": "MiB", "setup_s": "s"}
    return {"correct": correct, "attempted": sum(len(r[0]) for r in rounds),
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}


def _merge_cli_spans(invocations):
    """Span table and counters summed over the traced CLI processes, given
    (wall time, span file) for each."""
    table, counts, absent, mains = {}, {}, set(), []
    for wall, path in invocations:
        if not path.exists():
            continue
        data = np.load(path)
        part = tracing.span_table(data["names"], data["name"], data["parent"],
                                  data["start"], data["end"])
        for k, v in part.items():
            old = table.get(k, (0, 0.0, 0.0))
            table[k] = tuple(a + b for a, b in zip(old, v))
        for k, v in zip(data["count_keys"], data["count_values"]):
            k = str(k)
            counts[k] = max(counts.get(k, 0), v) if k == "quadrature.max_panels" \
                else counts.get(k, 0) + v
        absent |= {str(a) for a in data["absent"]}
        inside = part.get("cli.main", (0, 0.0, 0.0))[1]
        mains.append((wall, inside))
    counts = {k: int(v) if float(v).is_integer() else v for k, v in counts.items()}
    return table, counts, absent, mains


def traced_run(workload, seed):
    OUT.mkdir(exist_ok=True)
    plain, _, (t0, t1) = run_round(workload)
    plain_wall = t1 - t0
    tracer = None
    stem = OUT / f"trace-{workload.name}-seed{seed}"
    if workload.name == "cli":
        workload.trace_dir = stem
        stem.mkdir(exist_ok=True)
        for old in stem.glob("*.npz"):
            old.unlink()
    else:
        tracer = tracing.Tracer().install()
    try:
        traced, _, (t0, t1) = run_round(workload)
        traced_wall = t1 - t0
    finally:
        if tracer is not None:
            tracer.uninstall()
    same = [fingerprint(a) == fingerprint(b) for a, b in zip(plain, traced)]
    if not all(same):
        print(f"{workload.name}: traced outputs differ at "
              f"{[i for i, s in enumerate(same) if not s]}", file=sys.stderr)
    bad, correct = check_outputs(workload, plain)
    bad |= {i for i, s in enumerate(same) if not s}
    failed = sum(isinstance(o, Exception) for o in plain + traced) + sum(
        1 for outs in (plain, traced) for i in bad if not isinstance(outs[i], Exception))
    if tracer is not None:
        data = tracer.arrays()
        table = tracing.span_table(data["names"], data["name"], data["parent"],
                                   data["start"], data["end"])
        counts = dict(tracer.counts, **{"quadrature.max_panels": tracer.max_panels})
        absent, mains = tracer.absent, ()
        tracer.dump(f"{stem}.npz")
        spans = len(tracer.start)
    else:
        table, counts, absent, mains = _merge_cli_spans(workload.invocations)
        spans = sum(v[0] for v in table.values())
    metrics = tracing.layer_metrics(table, counts, absent, mains)
    metrics["trace.overhead_s"] = {"value": traced_wall - plain_wall, "unit": "s"}
    metrics["trace.spans"] = {"value": spans, "unit": "count"}
    summary = {"workload": workload.name, "seed": seed, "untraced_wall_s": plain_wall,
               "traced_wall_s": traced_wall, "absent": sorted(absent),
               "spans": {k: {"count": n, "total_s": d, "self_s": s}
                         for k, (n, d, s) in sorted(table.items())},
               "metrics": metrics}
    Path(f"{stem}.json").write_text(json.dumps(summary, indent=1))
    return {"correct": correct and all(same), "attempted": len(plain) + len(traced),
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    # the meter samples the host's speed from before set-up to the end; the
    # traced run reads plain wall time
    meter = None if args.trace else hostspeed.Meter().start()
    try:
        workload = WORKLOADS[args.workload](args.seed, ROOT)
        ready = time.perf_counter()
        if meter is not None:
            ready_paused, ready_scale = meter.paused(), meter.median_scale()
        try:
            if workload.vd is not None and \
                    ROOT / "src" not in Path(workload.vd.__file__).resolve().parents:
                print(f"vacdrag was imported from {workload.vd.__file__}, not from "
                      f"this checkout", file=sys.stderr)
                return 2
            if args.setup_only:
                result = {}
            elif args.trace:
                result = traced_run(workload, args.seed)
            else:
                result = timed_run(workload, args.seconds, meter)
        finally:
            workload.close()
    finally:
        if meter is not None:
            meter.stop()
    result["ready_clock"] = ready
    if meter is not None:
        result["ready_paused"], result["ready_scale"] = ready_paused, ready_scale
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
