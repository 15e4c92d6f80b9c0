"""Steadiness check: two sets of benchmark runs of the same commit.

    python3 perfbench/steady.py [--runs 10]

Runs `perfbench/run.py` --runs times on every workload of BENCHMARK.json in
each of two sets, each run with its own seed (the second set continues the
seeds of the first), at the `run_seconds` of BENCHMARK.json. For every
end-to-end metric on every workload it reports each set's median, the spread
(distance between the first and third quartile as a share of the median,
from statistics.quantiles(n=4)) and the change of the second median against
the first. A pairing passes when both spreads are within the metric's bound
and the change, either way, is within the bound; each workload must also
fail the same share of its operations in both sets. Writes the table to
perfbench/out/steady.json and exits 1 if any pairing fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def one_set(bench, workloads, seeds):
    runs = {w: [] for w in workloads}
    for w in workloads:
        for seed in seeds:
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", w,
                 "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                 "--trace", "0"], cwd=ROOT, capture_output=True, text=True)
            took = time.perf_counter() - t0
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                raise SystemExit(f"{w} seed {seed}: exit code {proc.returncode}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["run_s"] = took
            runs[w].append(result)
            values = " ".join(f"{k}={v['value']:.4g}"
                              for k, v in result["metrics"].items())
            print(f"  {w} seed {seed}: {took:5.1f} s  failed "
                  f"{result['failed']}/{result['attempted']}  {values}", flush=True)
    return runs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    sets = []
    for s in range(2):
        first = 1 + s * args.runs
        print(f"set {s + 1}: seeds {first}..{first + args.runs - 1}", flush=True)
        sets.append(one_set(bench, workloads, range(first, first + args.runs)))

    ok = True
    report = {}
    print(f"\n{'workload':13} {'metric':13} {'median 1':>11} {'median 2':>11} "
          f"{'spread 1':>9} {'spread 2':>9} {'change':>8} {'bound':>6}  verdict")
    for w in workloads:
        shares = [sum(r["failed"] for r in runs[w]) / sum(r["attempted"] for r in runs[w])
                  for runs in sets]
        report[w] = {"failed_share": shares, "run_s": [
            statistics.median(r["run_s"] for r in runs[w]) for runs in sets]}
        if shares[0] != shares[1]:
            ok = False
            print(f"{w}: failed share differs between the sets: {shares}")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            vals = [[r["metrics"][name]["value"] for r in runs[w]] for runs in sets]
            med = [statistics.median(v) for v in vals]
            spr = [spread(v) for v in vals]
            sign = 1.0 if metric["better"] == "lower" else -1.0
            change = sign * (med[1] - med[0]) / med[0]
            good = abs(change) <= bound and max(spr) <= bound
            ok &= good
            report[w][name] = {"medians": med, "spreads": spr, "change": change,
                               "bound": bound, "values": vals, "pass": good}
            print(f"{w:13} {name:13} {med[0]:11.5g} {med[1]:11.5g} {spr[0]:9.4f} "
                  f"{spr[1]:9.4f} {change:+8.4f} {bound:6.3f}  "
                  f"{'ok' if good else 'FAIL'}")
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / "steady.json").write_text(json.dumps(report, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
