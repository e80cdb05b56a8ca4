"""Paths and process set-up shared by the benchmark entry points.

Importing this module imports no numpy, so `pin_threads` can run before the
first numpy import of the process.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
# generated inputs, CLI reports and result files; git-ignored
WORK = BENCH / "work"

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_threads() -> None:
    """One BLAS/OpenMP thread: without it the matrix products in
    `hilbert_exact` and `gram_matrix` spread over every core."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def use_source_tree() -> None:
    """Import dyadlab from this checkout's `src/`, never an installed copy."""
    if not (SRC / "dyadlab").is_dir():
        raise SystemExit(f"no dyadlab sources under {SRC}")
    sys.path.insert(0, str(SRC))
