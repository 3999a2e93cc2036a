"""Process set-up shared by the benchmark's entry points.

Imports no numpy: the BLAS thread count must be pinned before numpy loads,
because OpenBLAS reads it once, at load time.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"

# The phase-retrieval Hessian's bytes, and with them the whole trajectory
# (prox calls, inner iterations, M doublings), change with the BLAS thread
# count.  Pinning it is what makes the benchmark's counts repeat exactly.
BLAS_THREADS = min(2, os.cpu_count() or 1)
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_and_locate() -> None:
    """Pin BLAS threads, drop NHOTA_SEED, and put this checkout's src first.

    Exits with a message (code 1) when the checkout has no nhota sources, so
    the benchmark never measures some other installed copy of the package.
    """
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the BLAS thread count was pinned")
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    # The CLI lets NHOTA_SEED override the config seed; the benchmark's
    # inputs must come from its own arguments only.
    os.environ.pop("NHOTA_SEED", None)
    if not (SRC / "nhota" / "__init__.py").is_file():
        sys.exit(f"bench: no nhota sources under {SRC}")
    sys.path.insert(0, str(SRC))


def check_import(module) -> None:
    """Exit if ``module`` was not loaded from this checkout's src."""
    path = Path(module.__file__).resolve()
    if SRC.resolve() not in path.parents:
        sys.exit(f"bench: nhota imported from {path}, not from {SRC}")
