"""The statements of the package that the benchmark's traffic never runs.

Run from the repository root (it is not a tier-1 test):

    PYTHONPATH=src python tests/traffic_lines.py [--seeds 1 2] [--errors]

Under sys.settrace it builds each in-process workload of
perfbench/workloads.py (rate-points, golden-rule, green-checks) for each
seed and runs one round of its operations, then runs every bundled scenario
through cli.main in process, as the cli workload does in its processes:
validate and run each one, one JSON run and a cache miss and hit. It prints
each statement of src/vacdrag that none of that ran, as path:line and its
first source line. A statement on an error path (an except clause, a block
that ends in a raise or records a validation message) is left out of the
list and counted, unless --errors is given.
perfbench/ is imported, never written.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "vacdrag"
IN_PROCESS = ("rate-points", "golden-rule", "green-checks")


def _reports_error(body):
    """Whether a block raises at its end or records a validation message
    (errors.append or errors.extend)."""
    return bool(body) and isinstance(body[-1], ast.Raise) or any(
        isinstance(node, ast.Expr) and isinstance(node.value, ast.Call)
        and isinstance(node.value.func, ast.Attribute)
        and isinstance(node.value.func.value, ast.Name)
        and node.value.func.value.id == "errors" for node in body)


def statements(path):
    """(first line, last line, on an error path) of each statement of the
    file that compiles to code: a compound statement by its header, and
    docstrings and global/nonlocal declarations left out. An except clause
    and a block that _reports_error are error paths."""
    tree = ast.parse(path.read_text())
    found = []

    def visit(body, error):
        error = error or _reports_error(body)
        for node in body:
            if isinstance(node, (ast.Global, ast.Nonlocal)) or \
                    isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
                continue
            blocks = [getattr(node, name) for name in ("body", "orelse", "finalbody")
                      if getattr(node, name, None)]
            blocks += [[handler] for handler in getattr(node, "handlers", ())]
            if isinstance(node, ast.ExceptHandler):
                blocks, error = [node.body], True
            last = blocks[0][0].lineno - 1 if blocks else node.end_lineno
            first = min([node.lineno] + [decorator.lineno for decorator
                                         in getattr(node, "decorator_list", ())])
            if not isinstance(node, ast.Try):    # no code of its own
                found.append((first, max(last, node.lineno),
                              error or isinstance(node, ast.Raise)))
            for block in blocks:
                visit(block, error)

    visit(tree.body, False)
    return found


def traced(run):
    """The (file, line) pairs of the package that run() executes."""
    seen = set()
    prefix = str(PACKAGE)

    def local(frame, event, arg):
        if event == "line":
            seen.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        if frame.f_code.co_filename.startswith(prefix):
            return local
        return None

    sys.settrace(tracer)
    try:
        run()
    finally:
        sys.settrace(None)
    return seen


def traffic(seeds):
    """One round of each in-process workload per seed, then the bundled
    scenarios through cli.main."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    sys.dont_write_bytecode = True      # no __pycache__ under perfbench/
    import workloads

    for name in IN_PROCESS:
        for seed in seeds:
            workload = workloads.WORKLOADS[name](seed, ROOT)
            workload.before_round()
            for _, op in workload.operations():
                op()
            workload.close()

    from vacdrag import cli
    scenarios = sorted((ROOT / "scenarios").glob("*.json"))
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(io.StringIO()):
        rate = str(ROOT / "scenarios" / "rate_surface.json")
        runs = [["run", "--scenario", rate, "--format", "json"]]
        runs += [["run", "--scenario", rate, "--cache-dir", tmp,
                  "--output", f"{tmp}/cached.csv"]] * 2
        for path in scenarios:
            runs += [["validate", "--scenario", str(path)],
                     ["run", "--scenario", str(path), "--output",
                      f"{tmp}/{path.stem}.csv"]]
        for argv in runs:
            if cli.main(argv) != 0:
                raise SystemExit(f"vacdrag {' '.join(argv)} failed")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    ap.add_argument("--errors", action="store_true",
                    help="list statements on error paths too")
    args = ap.parse_args(argv)
    if "vacdrag" in sys.modules:
        raise SystemExit("vacdrag must be imported under the trace")
    seen = traced(lambda: traffic(args.seeds))
    hidden = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        lines = path.read_text().splitlines()
        ran = {line for file, line in seen if file == str(path)}
        for first, last, error in statements(path):
            if ran.intersection(range(first, last + 1)):
                continue
            if error and not args.errors:
                hidden += 1
                continue
            print(f"{path.relative_to(ROOT)}:{first}: {lines[first - 1].strip()}")
    if hidden:
        print(f"({hidden} statements on error paths not run; --errors lists them)")


if __name__ == "__main__":
    main()
