"""`python -m vacdrag` with the benchmark's tracer installed.

    PERFBENCH_SPANS=spans.npz python3 perfbench/cli_shim.py run --scenario ...

Used for the traced CLI round only: it installs the tracer, runs
`vacdrag.cli.main` with the given arguments inside a `cli.main` span, writes
the spans to $PERFBENCH_SPANS and exits with main's exit code. Process-pool
workers inherit the wrappers, but only this process writes spans.
"""

import os
import sys

import tracer as tracing
import vacdrag.cli


def main() -> int:
    tr = tracing.Tracer().install()
    try:
        code = vacdrag.cli.main(sys.argv[1:])
    finally:
        tr.uninstall()
        tr.dump(os.environ["PERFBENCH_SPANS"])
    return code


if __name__ == "__main__":
    sys.exit(main())
