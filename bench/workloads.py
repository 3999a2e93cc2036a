"""The benchmark's three workloads and one round of each.

A round is a fixed list of solves.  Every round of a run repeats the same
solves on the same inputs, so a run's counts are a whole number of rounds
and the per-round counts must repeat exactly.

Phase-retrieval instances are the pinned ``--instance-seed`` instances (0
by default, the instances ROADMAP's baseline table uses).  They are not
drawn from ``--seed``: p=2 solve cost across instance seeds is heavy-tailed
(see README), so a seed-drawn instance would make ``solve_s`` swing by an
order of magnitude between runs.  ``--seed`` sets the order of the library
solves in a round and the order of ``u_list`` in the sweep config, so the CLI
gets a different config per seed and must still map each u to its own
columns.  The two sweep calls keep a fixed order (100/1000 first): the
process's peak resident memory depends on which instance is solved first.
"""

from __future__ import annotations

import hashlib
import io
import random
import shutil
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from nhota import cli, driver
from nhota.core import OracleFailure
from nhota.driver import LineSearchFailure, RunConfig
from nhota.inner import InnerSolveFailure
from nhota.problems import (
    DiagQuadL1Data,
    PhaseRetrievalData,
    diag_quad_problem,
    phase_retrieval_problem,
)

import reference as ref
from tracer import (
    ORACLE_SPANS,
    Counter,
    LayerStats,
    Tracer,
    capture_patches,
    instrument,
    layer_metrics,
    layer_patches,
)

PHASE_SIZES = ((100, 1000), (400, 4000))
PHASE_LAM = 1e-5
SWEEP_U = (0.05, 0.25, 0.5, 0.75, 1.0)  # the CLI's default u_list
P1_U = (0.5, 1.0)
DIAG_N = (50, 500)
DIAG_P = (1, 2)
DIAG_INSTANCES = 4  # instance seeds instance_seed .. instance_seed + 3
DIAG_LAM = 0.1      # gen_diag_quad_l1's default
DIAG_U = 0.5
STOP_STAT = 1e-3
# RunConfig and CLI defaults that the reference-descent check needs
U_MIN = 1e-3
MTILDE = 1e-2
TRACE_HEADER = "k,f,R,M,step_norm,stationarity,inner_iters,backtracks,wall_millis"

SOLVER_FAILURES = (LineSearchFailure, InnerSolveFailure, OracleFailure)


@dataclass
class RoundResult:
    solve_s: float = 0.0
    outer_iters: int = 0
    oracle_calls: int = 0
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)    # wrong outputs
    failures: list[str] = field(default_factory=list)  # solves that raised or exited != 0
    layers: dict[str, float] | None = None


@dataclass
class Solve:
    label: str
    problem: object
    x0: np.ndarray
    config: RunConfig
    check: Callable


class LibraryWorkload:
    """Solves through ``nhota.driver.nhota_run``, as a library user calls it."""

    def __init__(self, solves: list[Solve]):
        self.solves = solves
        self.counter, self.tracer, self.stats = Counter(), Tracer(), LayerStats()
        # Wrapped once here, so constructor-time oracle calls are not counted.
        self.counted = [instrument(s.problem, self.counter) for s in solves]
        self.traced = [instrument(s.problem, self.tracer) for s in solves]

    def run_round(self, traced: bool) -> RoundResult:
        rec = self.tracer if traced else self.counter
        rec.reset()
        self.stats.reset()
        problems = self.traced if traced else self.counted
        res = RoundResult()
        with layer_patches(self.tracer, self.stats) if traced else nullcontext():
            for solve, problem in zip(self.solves, problems):
                res.attempted += 1
                t0 = time.perf_counter()
                try:
                    trace = driver.nhota_run(problem, solve.x0, solve.config)
                except SOLVER_FAILURES as exc:
                    res.failed += 1
                    res.failures.append(f"{solve.label}: {type(exc).__name__}: {exc}")
                    continue
                finally:
                    res.solve_s += time.perf_counter() - t0
                res.outer_iters += trace.iterations()
                res.errors += [f"{solve.label}: {e}" for e in solve.check(trace)]
        res.oracle_calls = sum(rec.calls[name] for name in ORACLE_SPANS)
        if traced:
            res.layers = layer_metrics(self.tracer, self.stats, res.outer_iters)
        return res


def _descent(trace, config) -> list[str]:
    return ref.check_reference_descent(trace, float(config.u), config.p,
                                       config.u_min, config.Mtilde)


def _phase_instances(instance_seed: int):
    """The pinned phase-retrieval arrays, one set per size."""
    out = []
    for n, m in PHASE_SIZES:
        A, y, z, noise, x0 = ref.phase_arrays(n, m, instance_seed)
        out.append((n, m, A, y, z, noise, x0))
    return out


def phase_p1(seed: int, instance_seed: int, out_dir: Path) -> LibraryWorkload:
    solves = []
    for n, m, A, y, z, noise, x0 in _phase_instances(instance_seed):
        data = PhaseRetrievalData(A=A, y=y, z=z, noise=noise, x0=x0, lam=PHASE_LAM,
                                  seed=instance_seed, noise_scale=1.0, gen_variance=0.5)
        problem = phase_retrieval_problem(data)
        for u in P1_U:
            config = RunConfig(p=1, u=u, stop_stat=STOP_STAT)

            def check(trace, A=A, y=y, x0=x0, config=config):
                return (ref.check_phase(trace, A, y, PHASE_LAM, x0, STOP_STAT)
                        + _descent(trace, config))

            solves.append(Solve(f"phase {n}/{m} p=1 u={u:g}", problem, x0, config, check))
    random.Random(seed).shuffle(solves)
    return LibraryWorkload(solves)


def diag_convex(seed: int, instance_seed: int, out_dir: Path) -> LibraryWorkload:
    solves = []
    for j in range(DIAG_INSTANCES):
        for n in DIAG_N:
            d, c, x0 = ref.diag_arrays(n, instance_seed + j)
            problem = diag_quad_problem(DiagQuadL1Data(d=d, c=c, lam=DIAG_LAM))
            for p in DIAG_P:
                config = RunConfig(p=p, u=DIAG_U, stop_stat=STOP_STAT)

                def check(trace, d=d, c=c, config=config):
                    return (ref.check_diag(trace, d, c, DIAG_LAM, STOP_STAT)
                            + _descent(trace, config))

                solves.append(Solve(f"diag n={n} p={p} seed={instance_seed + j}",
                                    problem, x0, config, check))
    random.Random(seed).shuffle(solves)
    return LibraryWorkload(solves)


class SweepWorkload:
    """``nhota sweep`` called in process through ``nhota.cli.main``."""

    def __init__(self, seed: int, instance_seed: int, out_dir: Path):
        self.u_list = list(SWEEP_U)
        random.Random(seed).shuffle(self.u_list)
        self.runs = []
        for n, m, A, y, z, noise, x0 in _phase_instances(instance_seed):
            run_dir = out_dir / f"sweep_{n}x{m}"
            run_dir.mkdir(parents=True, exist_ok=True)
            cfg = run_dir / "sweep.cfg"
            cfg.write_text(
                "problem = phase_retrieval\n"
                f"n = {n}\nm = {m}\nseed = {instance_seed}\n"
                f"lambda = {PHASE_LAM!r}\np = 2\nstop_stat = {STOP_STAT!r}\n"
                f"u_list = {', '.join(repr(u) for u in self.u_list)}\n"
                f"out_dir = {run_dir / 'out'}\n"
            )
            digest = hashlib.sha256(A)  # hashes the buffer; makes no copy of A
            digest.update(y)
            digest = digest.hexdigest()
            self.runs.append((f"sweep {n}/{m}", cfg, run_dir / "out", A, y, x0, digest))
        self.counter, self.tracer, self.stats = Counter(), Tracer(), LayerStats()

    def run_round(self, traced: bool) -> RoundResult:
        rec = self.tracer if traced else self.counter
        rec.reset()
        self.stats.reset()
        res = RoundResult()
        main = self.tracer.wrap("cli.main", cli.main) if traced else cli.main
        for label, cfg, out, A, y, x0, digest in self.runs:
            traces = {}

            def keep(config, trace):
                traces[float(config.u)] = trace

            patches = (layer_patches(self.tracer, self.stats, keep) if traced
                       else capture_patches(self.counter, keep))
            res.attempted += 1
            shutil.rmtree(out, ignore_errors=True)  # no file may survive from the last round
            stdout, stderr = io.StringIO(), io.StringIO()
            with patches, redirect_stdout(stdout), redirect_stderr(stderr):
                t0 = time.perf_counter()
                code = main(["sweep", str(cfg)])
                res.solve_s += time.perf_counter() - t0
            if code != 0:
                res.failed += 1
                res.failures.append(f"{label}: exit {code}: {stderr.getvalue().strip()}")
                continue
            res.outer_iters += sum(t.iterations() for t in traces.values())
            res.errors += [f"{label}: {e}" for e in
                           self._check(out, traces, A, y, x0, digest)]
            if traced:
                with open(out / "comparison.csv") as fh:
                    self.stats.rows += sum(1 for _ in fh) - 1
        res.oracle_calls = sum(rec.calls[name] for name in ORACLE_SPANS)
        if traced:
            res.layers = layer_metrics(self.tracer, self.stats, res.outer_iters)
        return res

    def _check(self, out: Path, traces, A, y, x0, digest) -> list[str]:
        """Files against the documented format, traces against the reference."""
        errors = []
        if sorted(traces) != sorted(self.u_list):
            return [f"solved u = {sorted(traces)}, expected {sorted(self.u_list)}"]
        for u in self.u_list:
            trace = traces[u]
            tag = f"u{u:g}"
            lines = (out / f"trace_{tag}.csv").read_text().splitlines()
            if lines[0] != TRACE_HEADER:
                errors.append(f"trace_{tag}.csv header {lines[0]!r}")
            rows = [line.split(",") for line in lines[1:]]
            summary = dict(line.split("=", 1) for line in
                           (out / f"summary_{tag}.txt").read_text().splitlines())
            if int(summary["iterations"]) != len(rows) or len(rows) != trace.iterations():
                errors.append(f"{tag}: {len(rows)} rows, summary says "
                              f"{summary['iterations']}, trace has {trace.iterations()}")
            elif any([float(r[1]), float(r[2]), float(r[4])] != [t.f, t.R, t.step_norm]
                     for r, t in zip(rows, trace.rows)):
                errors.append(f"trace_{tag}.csv f/R/step_norm differ from the returned trace")
            if summary.get("data_hash") != digest:
                errors.append(f"{tag}: data_hash is not the hash of the generated A, y")
            if float(summary["final_f"]) != trace.f_final:
                errors.append(f"{tag}: summary final_f {summary['final_f']}")
            errors += [f"{tag}: {e}" for e in
                       ref.check_phase(trace, A, y, PHASE_LAM, x0, STOP_STAT)
                       + ref.check_reference_descent(trace, u, 2, U_MIN, MTILDE)]
        lines = (out / "comparison.csv").read_text().splitlines()
        header = "k," + ",".join(f"f_u{u:g},stat_u{u:g}" for u in self.u_list)
        if lines[0] != header:
            errors.append(f"comparison.csv header {lines[0]!r}, expected {header!r}")
            return errors
        cells = [line.split(",") for line in lines[1:]]
        for i, u in enumerate(self.u_list):
            f_col = [float(c[1 + 2 * i]) for c in cells if c[1 + 2 * i] != ""]
            if f_col != list(traces[u].f_values()):
                errors.append(f"comparison.csv f_u{u:g} is not that run's f series")
        return errors


WORKLOADS = {
    "phase-p2-sweep": SweepWorkload,
    "phase-p1": phase_p1,
    "diag-convex": diag_convex,
}
