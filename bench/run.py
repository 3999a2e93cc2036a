"""Run one benchmark workload and print its metrics as the last stdout line.

    python3 bench/run.py --workload phase-p2-sweep --seed 0 --seconds 30 --trace 0

Workloads: phase-p2-sweep, phase-p1, diag-convex (see bench/README.md).
A run repeats whole rounds of its workload's solves until ``--seconds``
would be exceeded (at least one round).  With ``--trace 0`` it prints the
end-to-end metrics; with ``--trace 1`` it alternates untraced and traced
rounds and prints the per-layer metrics and the tracing overhead.  The last
line is one JSON object with the keys correct, attempted, failed, metrics.
Exit code 0 after a result was printed, nonzero otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

from pin import BLAS_THREADS, OUT, ROOT, check_import, pin_and_locate

SETUP_PROBES = 7
WORKLOAD_NAMES = ("phase-p2-sweep", "phase-p1", "diag-convex")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0,
                    help="orders the solves of a round and the sweep's u_list")
    ap.add_argument("--instance-seed", type=int, default=0,
                    help="generator seed of the problem instances")
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def measure_setup(args) -> list[float]:
    """Import plus instance generation, timed in fresh interpreters."""
    cmd = [sys.executable, str(ROOT / "bench" / "setup_probe.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--instance-seed", str(args.instance_seed)]
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def steal_s() -> float:
    """CPU time the host took from this machine's CPUs so far (Linux), or NaN."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return float("nan")


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_THREADS,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_and_locate()
    import nhota

    check_import(nhota)
    from workloads import WORKLOADS

    out_dir = OUT / args.workload / f"seed{args.seed}-trace{args.trace}"
    out_dir.mkdir(parents=True, exist_ok=True)
    steal_start = steal_s()
    setup_times = measure_setup(args)
    workload = WORKLOADS[args.workload](args.seed, args.instance_seed, out_dir)

    kinds = (False, True) if args.trace else (False,)
    rounds = {kind: [] for kind in kinds}
    start = time.perf_counter()
    while True:
        for kind in kinds:
            rounds[kind].append(workload.run_round(traced=kind))
        elapsed = time.perf_counter() - start
        if elapsed * (1 + 1 / len(rounds[False])) > args.seconds:
            break

    every = [r for kind in kinds for r in rounds[kind]]
    errors = [e for r in every for e in r.errors]
    counts = {(r.outer_iters, r.oracle_calls) for r in every if not r.failed}
    if len(counts) > 1:
        errors.append(f"(outer_iters, oracle_calls) differ between rounds: {sorted(counts)}")
    plain = rounds[False]
    if args.trace:
        traced = rounds[True]
        names = traced[0].layers
        metrics = {name: statistics.median(r.layers[name] for r in traced) for name in names}
        # rounds alternate, so each traced round is paired with the untraced one before it
        metrics["trace.overhead_s"] = statistics.median(
            t.solve_s - u.solve_s for u, t in zip(plain, traced))
    else:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "solve_s": statistics.median(r.solve_s for r in plain),
            "outer_iters": plain[0].outer_iters,
            "oracle_calls": plain[0].oracle_calls,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    section = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in section}
    if set(units) != set(metrics):
        sys.exit(f"bench: metrics {sorted(set(metrics) ^ set(units))} do not match BENCHMARK.json")
    result = {
        "correct": not errors,
        "attempted": sum(r.attempted for r in every),
        "failed": sum(r.failed for r in every),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    record = {"workload": args.workload, "seed": args.seed,
              "instance_seed": args.instance_seed, "seconds": args.seconds,
              "trace": args.trace, "rounds": len(plain), "env": environment(),
              "setup_probe_s": setup_times, "steal_s": steal_s() - steal_start,
              "round_solve_s": {str(k): [r.solve_s for r in v] for k, v in rounds.items()},
              "errors": errors, "failures": [f for r in every for f in r.failures],
              "result": result}
    (out_dir / "result.json").write_text(json.dumps(record, indent=1) + "\n")
    for line in (errors + record["failures"])[:20]:
        print(f"bench: {line}", file=sys.stderr)
    print(json.dumps({"env": record["env"], "rounds": len(plain)}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
