"""vacdrag benchmark: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Workloads: rate-points, golden-rule,
green-checks, cli (see perfbench/README.md). The program is the checkout's
own `src/`, put first on PYTHONPATH; VACDRAG_CACHE_DIR is removed from the
environment. Each run starts fresh interpreters: for the in-process
workloads, SETUP_PROBES set-up-only processes and then the measured worker,
all on one fixed CPU, and `setup_s` is the median over all of them of the
time from starting the process to the end of its set-up. Every time is in
reference seconds: wall time corrected for the host's speed, which each
process samples while it runs (see hostspeed.py). The last line of
standard output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1.
Exits non-zero without a result if the checkout has no program or a run
fails to finish.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("rate-points", "golden-rule", "green-checks", "cli")
SETUP_PROBES = 2
DEADLINE_S = 170.0


class RunFailed(Exception):
    pass


def _environment():
    env = dict(os.environ)
    env.pop("VACDRAG_CACHE_DIR", None)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + old if old else "")
    return env


def _pin():
    # In-process workers run on one fixed CPU. On a shared 2-vCPU host the
    # second vCPU was slow for whole process lifetimes: placed there, a
    # worker's cache-hit P(T) calls took 1.6 times as long as on the first.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _worker(args, env, deadline, pin):
    """Run worker.py with `args`; returns (start clock, parsed last line)."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            start_new_session=True, preexec_fn=_pin if pin else None)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RunFailed(f"worker {' '.join(args)} ran past the deadline")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)    # pool workers left behind
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        raise RunFailed(f"worker {' '.join(args)} exited {proc.returncode}")
    lines = out.decode().strip().splitlines()
    if not lines:
        raise RunFailed("worker printed no result")
    return start, json.loads(lines[-1])


def _setup_s(start, result):
    """Set-up time of one worker in reference seconds (see hostspeed.py)."""
    return (result["ready_clock"] - start - result["ready_paused"]) * \
        result["ready_scale"]


def run(workload, seed, seconds, trace):
    deadline = time.perf_counter() + DEADLINE_S
    if not (ROOT / "src" / "vacdrag" / "__init__.py").is_file() or \
            not (ROOT / "scenarios").is_dir():
        raise RunFailed(f"{ROOT} holds no vacdrag checkout (src/vacdrag, scenarios)")
    env = _environment()
    base = ["--workload", workload, "--seed", str(seed)]
    setups = []
    # cli stays unpinned: its `--workers 2` sweep runs on both CPUs
    pin = workload != "cli"
    if pin and not trace:
        for _ in range(SETUP_PROBES):
            setups.append(_setup_s(*_worker(base + ["--setup-only"], env, deadline,
                                            pin)))
    start, result = _worker(base + ["--seconds", str(seconds), "--trace", str(trace)],
                            env, deadline, pin)
    if pin and not trace:
        setups.append(_setup_s(start, result))
        result["metrics"]["setup_s"] = {"value": statistics.median(setups),
                                        "unit": "s"}
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace)
    except RunFailed as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    metrics = result["metrics"]
    result["metrics"] = {k: metrics[k] for k in sorted(metrics)}
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed",
                                             "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
