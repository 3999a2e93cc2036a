"""Time one fresh set-up of a workload: imports plus instance generation.

Prints the seconds from before ``import numpy`` to the end of the workload's
constructor.  ``bench/run.py`` runs it in several fresh interpreters and
reports the median as ``setup_s``.
"""

import time

start = time.perf_counter()

import argparse  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

from pin import OUT, check_import, pin_and_locate  # noqa: E402

ap = argparse.ArgumentParser()
ap.add_argument("--workload", required=True)
ap.add_argument("--seed", type=int, required=True)
ap.add_argument("--instance-seed", type=int, required=True)
args = ap.parse_args()
pin_and_locate()
import nhota  # noqa: E402

check_import(nhota)
from workloads import WORKLOADS  # noqa: E402

OUT.mkdir(parents=True, exist_ok=True)
with tempfile.TemporaryDirectory(dir=OUT) as tmp:
    WORKLOADS[args.workload](args.seed, args.instance_seed, Path(tmp))
    print(time.perf_counter() - start)
