"""Benchmark CLI: run experiments from flat config files and audit the build.

Subcommands:
    run <config>       one solver run; writes trace.csv and summary.txt
    sweep <config>     one run per u in u_list on shared problem data
    check [--full]     named self-check suite; --full adds desk-scale runs
    gen-data <config>  write the problem data bundle for replay

Config files are flat ``key=value`` lines with ``#`` comments.  Unknown keys
are errors.  The environment variable NHOTA_SEED, when set, overrides the
config seed.  Exit codes: 0 success, 1 config error, 2 run failure,
3 check-suite failure, 4 a run stopped at the working-precision floor above
stop_stat (its files are written).
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Optional

import numpy as np

from .core import CompositeProblem, OracleFailure, Vector
from .driver import (
    STATUS_PRECISION_FLOOR,
    TRACE_HEADER,
    IterateTrace,
    LineSearchFailure,
    RunConfig,
    format_trace_row,
    nhota_run,
    shared_steps,
)
from .inner import InnerSolveFailure
from .metrics import min_prefix, rate_fit
from .problems import (
    DiagQuadL1Data,
    data_hash,
    diag_quad_problem,
    gen_diag_quad_l1,
    gen_phase_retrieval,
    save_phase_retrieval,
)

SEED_ENV_VAR = "NHOTA_SEED"

# Solver failures that end a run with exit code 2.
_RUN_FAILURES = (LineSearchFailure, InnerSolveFailure, OracleFailure)


class ConfigError(ValueError):
    """Bad config file: unknown key, unparsable value, or invalid combination."""


@dataclass
class ExperimentConfig:
    """Parsed experiment description; the solver keys are the fields of ``run``."""

    problem: str = ""
    n: int = 100
    m: int = 1000
    seed: int = 0
    lam: float = 1e-5
    noise_scale: float = 1.0
    gen_variance: float = 0.5
    d: Optional[list[float]] = None
    c: Optional[list[float]] = None
    u_list: list[float] = field(default_factory=lambda: [0.05, 0.25, 0.5, 0.75, 1.0])
    out_dir: str = "runs"
    run: RunConfig = field(default_factory=RunConfig)


def _float_list(value: str) -> list[float]:
    items = [float(v) for v in value.split(",") if v.strip()]
    if not items:
        raise ValueError("empty list")
    return items


# config key -> parser of its value, for the keys held by ExperimentConfig
_INSTANCE_KEYS = {
    "problem": str, "n": int, "m": int, "seed": int, "lambda": float,
    "noise_scale": float, "gen_variance": float, "d": _float_list,
    "c": _float_list, "u_list": _float_list, "out_dir": str,
}
# the solver keys are RunConfig's fields, each parsed with its default's type
_SOLVER_KEYS = {f.name: type(f.default) for f in fields(RunConfig)}
KNOWN_KEYS = _INSTANCE_KEYS.keys() | _SOLVER_KEYS.keys()

# config key -> dataclass attribute ("lambda" is a Python keyword)
_ATTR_FOR_KEY = {"lambda": "lam"}

_PROBLEMS = ("phase_retrieval", "diag_quad_l1")


def parse_config(path) -> ExperimentConfig:
    """Parse a flat key=value file; every malformed line or bad solver value is an error."""
    cfg = ExperimentConfig()
    solver: dict[str, object] = {}
    seen: set[str] = set()
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in KNOWN_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        seen.add(key)
        try:
            if key in _SOLVER_KEYS:
                solver[key] = _SOLVER_KEYS[key](value)
            else:
                setattr(cfg, _ATTR_FOR_KEY.get(key, key), _INSTANCE_KEYS[key](value))
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from exc
    _validate(cfg, solver, path)
    return cfg


def _u_tag(u: float) -> str:
    """The tag in a sweep's file and column names for the run at u."""
    return f"u{u:g}"


def _validate(cfg: ExperimentConfig, solver: dict[str, object], path) -> None:
    if cfg.problem not in _PROBLEMS:
        raise ConfigError(
            f"{path}: problem must be one of {', '.join(_PROBLEMS)}, got {cfg.problem!r}"
        )
    if (cfg.d is None) != (cfg.c is None):
        raise ConfigError(f"{path}: d and c must be given together")
    if cfg.d is not None and cfg.problem != "diag_quad_l1":
        raise ConfigError(f"{path}: d and c apply only to problem=diag_quad_l1")
    if cfg.d is not None and len(cfg.d) != len(cfg.c):
        raise ConfigError(f"{path}: d and c must have equal length")
    if not cfg.lam >= 0:
        raise ConfigError(f"{path}: lambda must be nonnegative, got {cfg.lam}")
    try:
        cfg.run = RunConfig(**solver)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    for u in cfg.u_list:
        try:
            replace(cfg.run, u=u)
        except ValueError as exc:
            raise ConfigError(f"{path}: bad u_list entry: {exc}") from exc
    tags = [_u_tag(u) for u in cfg.u_list]
    if len(set(tags)) < len(tags):
        raise ConfigError(f"{path}: u_list repeats a file tag ({', '.join(tags)}): "
                          "two runs would write one set of files")
    if SEED_ENV_VAR in os.environ:
        try:
            cfg.seed = int(os.environ[SEED_ENV_VAR])
        except ValueError as exc:
            raise ConfigError(f"{SEED_ENV_VAR} must be an integer: {exc}") from exc


def build_problem(cfg: ExperimentConfig) -> tuple[CompositeProblem, object, Vector]:
    """Instantiate the configured problem as (problem, data, x0); an instance
    value the generators reject, such as n = 0, raises ConfigError."""
    try:
        if cfg.problem == "phase_retrieval":
            return gen_phase_retrieval(
                cfg.n, cfg.m, cfg.seed, cfg.noise_scale, lam=cfg.lam,
                gen_variance=cfg.gen_variance,
            )
        if cfg.d is None:
            return gen_diag_quad_l1(cfg.n, cfg.seed, lam=cfg.lam)
        data = DiagQuadL1Data(np.asarray(cfg.d, float), np.asarray(cfg.c, float), cfg.lam)
        x0 = np.random.default_rng(cfg.seed).normal(0.0, 1.0, size=data.n)
        return diag_quad_problem(data), data, x0
    except OracleFailure:
        raise
    except ValueError as exc:
        raise ConfigError(f"bad instance: {exc}") from exc


def _fitted_slope(trace: IterateTrace) -> float:
    """Log-log slope of the running-minimum stationarity series, NaN if unfit."""
    series = trace.stationarity_values()
    if series.size < 8 or not np.all(np.isfinite(series)):
        return float("nan")
    try:
        return rate_fit(min_prefix(series)).slope
    except ValueError:
        return float("nan")


def _write_summary(path: Path, entries: dict) -> None:
    with open(path, "w") as fh:
        for key, value in entries.items():
            fh.write(f"{key}={float(value)!r}\n" if isinstance(value, float)
                     else f"{key}={value}\n")


def _run_to_files(cfg: ExperimentConfig, runcfg: RunConfig, problem: CompositeProblem,
                  x0, digest: str, trace_path: Path, summary_path: Path) -> IterateTrace:
    """Execute one run, streaming (and flushing) trace rows as they happen,
    then write its summary.  A run that ends in one of ``_RUN_FAILURES``
    still gets a summary, with status ``failed:<exception class>`` and the
    number of rows streamed; the exception is re-raised.
    """
    t0 = time.perf_counter()
    rows = 0
    ident = {"problem": cfg.problem, "p": runcfg.p, "u": runcfg.u, "seed": cfg.seed,
             "data_hash": digest}
    with open(trace_path, "w") as fh:
        fh.write(TRACE_HEADER + "\n")
        fh.flush()

        def sink(row):
            nonlocal rows
            fh.write(format_trace_row(row) + "\n")
            fh.flush()
            rows += 1

        try:
            trace = nhota_run(problem, x0, runcfg, row_sink=sink)
        except _RUN_FAILURES as exc:
            _write_summary(summary_path, {"status": f"failed:{type(exc).__name__}",
                                          "iterations": rows, **ident})
            raise
    wall = (time.perf_counter() - t0) * 1000.0
    entries = {
        "status": trace.status,
        "iterations": trace.iterations(),
        "final_f": trace.f_final,
        "final_stationarity": float("nan") if trace.stat_final is None else trace.stat_final,
        "stationarity_kind": trace.stationarity_kind,
        "fitted_slope": _fitted_slope(trace),
        **ident,
        "wall_millis_total": wall,
    }
    if trace.resolution is not None:
        entries["resolution"] = trace.resolution
    if problem.known_opt is not None:
        entries["final_f_gap"] = trace.f_final - problem.known_opt[1]
    _write_summary(summary_path, entries)
    return trace


def _out_dir(cfg: ExperimentConfig) -> Path:
    """``cfg.out_dir``, created if missing; a path that cannot be a
    directory (an existing file, or one under a file) raises ConfigError."""
    out = Path(cfg.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"out_dir {cfg.out_dir!r} is not a usable directory: {exc}") from exc
    return out


def run_experiment(cfg: ExperimentConfig) -> IterateTrace:
    """Single run: writes <out_dir>/trace.csv and <out_dir>/summary.txt."""
    problem, data, x0 = build_problem(cfg)
    out = _out_dir(cfg)
    return _run_to_files(cfg, cfg.run, problem, x0, data_hash(data),
                         out / "trace.csv", out / "summary.txt")


def sweep_u(cfg: ExperimentConfig) -> dict[float, IterateTrace]:
    """One run per u in u_list, all on bit-identical problem data.

    Writes trace_u<...>.csv and summary_u<...>.txt per run plus a wide
    comparison.csv (``write_comparison``).  A failed run writes its summary
    and ends the sweep.

    u is read only by the acceptance test, so the runs share their steps
    (``driver.shared_steps``): each step two runs have in common is solved
    once.  Every file equals that of a separate run for the same u, except
    the wall-clock fields ``wall_millis`` and ``wall_millis_total``.
    """
    problem, data, x0 = build_problem(cfg)
    out = _out_dir(cfg)
    digest = data_hash(data)
    traces: dict[float, IterateTrace] = {}
    with shared_steps(problem):
        for u in cfg.u_list:
            tag = _u_tag(u)
            traces[u] = _run_to_files(cfg, replace(cfg.run, u=u), problem, x0, digest,
                                      out / f"trace_{tag}.csv", out / f"summary_{tag}.txt")
    write_comparison(out / "comparison.csv", cfg.u_list, traces)
    return traces


def write_comparison(path: Path, u_list: list[float],
                     traces: dict[float, IterateTrace]) -> None:
    """The wide table k,f_u<...>,stat_u<...>,... holding, for each u in
    u_list, the objective and stationarity at every iterate of its run
    (blank after the run has stopped)."""
    columns = [(traces[u].f_values(), traces[u].stationarity_values()) for u in u_list]
    depth = max(len(f) for f, _ in columns)
    with open(path, "w") as fh:
        names = ",".join(f"f_{_u_tag(u)},stat_{_u_tag(u)}" for u in u_list)
        fh.write(f"k,{names}\n")
        for k in range(depth):
            cells = [f"{float(f_vals[k])!r},{float(s_vals[k])!r}" if k < len(f_vals) else ","
                     for f_vals, s_vals in columns]
            fh.write(f"{k},{','.join(cells)}\n")


def gen_data(cfg: ExperimentConfig) -> Path:
    """Write the replayable data bundle for a phase retrieval config."""
    if cfg.problem != "phase_retrieval":
        raise ConfigError(
            "gen-data supports only problem=phase_retrieval; diagonal instances "
            "are regenerated exactly from (n, seed, lambda)"
        )
    _, data, _ = build_problem(cfg)
    path = _out_dir(cfg) / "data.npz"
    save_phase_retrieval(data, path)
    return path


def _status(trace: IterateTrace) -> str:
    return f"status={trace.status} iterations={trace.iterations()} final_f={trace.f_final!r}"


def _report(traces: dict[str, IterateTrace]) -> tuple[str, list[IterateTrace]]:
    """One status line per run, after its label, and the runs' traces."""
    text = "\n".join(f"{label}{_status(trace)}" for label, trace in traces.items())
    return text, list(traces.values())


# subcommand -> action on its parsed config, returning the text to print and
# the traces of the runs it made
_CONFIG_COMMANDS = {
    "run": lambda cfg: _report({"": run_experiment(cfg)}),
    "sweep": lambda cfg: _report({f"u={u:g}: ": trace for u, trace in sweep_u(cfg).items()}),
    "gen-data": lambda cfg: (f"wrote {gen_data(cfg)}", []),
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="nhota",
        description="Composite-optimization benchmark driver (higher-order "
                    "Taylor steps with nonmonotone acceptance).",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)
    for name in _CONFIG_COMMANDS:
        sub.add_parser(name).add_argument("config", help="flat key=value config file")
    check_p = sub.add_parser("check")
    check_p.add_argument("--full", action="store_true",
                         help="include desk-scale problem sizes")

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1

    try:
        if args.cmd == "check":
            from .checks import check_suite, render_results

            results = check_suite("full" if args.full else "quick")
            print(render_results(results))
            if not all(r.passed for r in results):
                return 3
        else:
            cfg = parse_config(args.config)
            try:
                text, traces = _CONFIG_COMMANDS[args.cmd](cfg)
            except ConfigError as exc:  # raised past parsing: name the file here
                raise ConfigError(f"{args.config}: {exc}") from exc
            print(text)
            if any(t.status == STATUS_PRECISION_FLOOR for t in traces):
                return 4
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except _RUN_FAILURES as exc:
        print(f"run failure: {exc}", file=sys.stderr)
        return 2
    return 0


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
