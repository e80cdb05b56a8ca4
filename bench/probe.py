"""One set-up of a benchmark run, in a fresh process.

    python3 bench/probe.py '<warm-up argv as a JSON list>'

Pins BLAS to one thread, imports numpy and dyadlab, runs the warm-up
operation and prints `ready <exit code>`: the point at which a run could
begin its first timed operation.  `run.py` times it from process spawn to
that line.
"""

import contextlib
import io
import json
import sys

from common import pin_threads, use_source_tree


def main() -> int:
    pin_threads()
    use_source_tree()
    import numpy  # noqa: F401  (part of the set-up being measured)
    from dyadlab.cli import main as cli_main

    argv = json.loads(sys.argv[1])
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli_main(argv)
    print(f"ready {code}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
