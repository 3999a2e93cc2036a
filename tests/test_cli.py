"""Config parsing, file outputs, determinism, and process exit codes."""

import re
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import nhota
from nhota import cli, checks
from nhota.cli import (
    ConfigError,
    ExperimentConfig,
    build_problem,
    parse_config,
    run_experiment,
    sweep_u,
)
from nhota.driver import TRACE_HEADER, RunConfig
from nhota.problems import data_hash, load_phase_retrieval
from support import asymmetric_hessian, nan_hessian, with_hessian_calls, with_oracle_calls

DIAG_CFG = """\
# tiny strongly convex instance
problem = diag_quad_l1
n = 6
seed = 3
lambda = 0.1
max_outer = 40
"""


def write(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


# ---------------------------------------------------------------- parsing


def test_parse_config_reads_keys_and_comments(tmp_path):
    path = write(
        tmp_path,
        "problem = phase_retrieval\n"
        "n = 12  # inline comment\n"
        "m= 48\n"
        "\n"
        "lambda = 3e-4\n"
        "u_list = 0.25, 1.0\n"
        "out_dir = out\n",
    )
    cfg = parse_config(path)
    assert cfg.problem == "phase_retrieval"
    assert cfg.n == 12 and cfg.m == 48
    assert cfg.lam == 3e-4
    assert cfg.u_list == [0.25, 1.0]
    assert cfg.out_dir == "out"
    # untouched solver keys keep the solver's own defaults
    assert cfg.run == RunConfig()


def test_parse_config_unknown_key(tmp_path):
    path = write(tmp_path, "problem = diag_quad_l1\nbogus = 1\n")
    with pytest.raises(ConfigError) as excinfo:
        parse_config(path)
    assert f"{path}:2" in str(excinfo.value) and "bogus" in str(excinfo.value)


def test_parse_config_duplicate_key(tmp_path):
    path = write(tmp_path, "problem = diag_quad_l1\nn = 4\nn = 5\n")
    with pytest.raises(ConfigError) as excinfo:
        parse_config(path)
    assert f"{path}:3" in str(excinfo.value) and "duplicate" in str(excinfo.value)


def test_parse_config_malformed_lines(tmp_path):
    with pytest.raises(ConfigError) as excinfo:
        parse_config(write(tmp_path, "problem diag_quad_l1\n"))
    assert "key=value" in str(excinfo.value)
    with pytest.raises(ConfigError):
        parse_config(write(tmp_path, "problem = diag_quad_l1\nn = abc\n", "b.cfg"))
    with pytest.raises(ConfigError):
        parse_config(write(tmp_path, "problem = diag_quad_l1\nu_list =\n", "c.cfg"))


def test_parse_config_requires_known_problem(tmp_path):
    with pytest.raises(ConfigError):
        parse_config(write(tmp_path, "problem = lasso\n"))
    with pytest.raises(ConfigError):
        parse_config(write(tmp_path, "n = 5\n", "d.cfg"))  # problem missing


def test_parse_config_d_and_c_must_pair(tmp_path):
    with pytest.raises(ConfigError):
        parse_config(write(tmp_path, "problem = diag_quad_l1\nd = 1.0, 2.0\n"))
    with pytest.raises(ConfigError):
        parse_config(
            write(tmp_path, "problem = diag_quad_l1\nd = 1.0, 2.0\nc = 0.5\n",
                  "e.cfg")
        )


def test_parse_config_missing_file():
    with pytest.raises(ConfigError):
        parse_config("/nonexistent/exp.cfg")


def test_env_seed_overrides_config(tmp_path, monkeypatch):
    path = write(tmp_path, "problem = diag_quad_l1\nseed = 3\n")
    assert parse_config(path).seed == 3
    monkeypatch.setenv(cli.SEED_ENV_VAR, "42")
    assert parse_config(path).seed == 42
    monkeypatch.setenv(cli.SEED_ENV_VAR, "not-an-int")
    with pytest.raises(ConfigError):
        parse_config(path)


def test_build_problem_custom_diagonal(tmp_path):
    path = write(
        tmp_path,
        "problem = diag_quad_l1\nd = 1.0, 2.0\nc = 3.0, -1.0\nlambda = 0.5\n",
    )
    problem, data, x0 = build_problem(parse_config(path))
    assert np.array_equal(data.d, [1.0, 2.0])
    assert np.array_equal(data.c, [3.0, -1.0])
    assert problem.dim == 2 and len(x0) == 2


def test_badly_scaled_custom_diagonal_runs(tmp_path, capsys):
    # its closed-form minimizer's residual rounds to 6.6e-6, which an
    # absolute 1e-8 known_opt check rejected as a bad instance (exit 1)
    path = write(tmp_path, "problem = diag_quad_l1\nd = 1e6, 3e6, 7e5\n"
                 "c = 1.2345e4, -3.3e4, 2.1e4\nlambda = 0.1\n"
                 f"out_dir = {tmp_path / 'run'}\n")
    assert cli.main(["run", str(path)]) == 0
    assert "status=stationary" in capsys.readouterr().out


# ----------------------------------------------------------- file outputs


def test_run_experiment_writes_trace_and_summary(tmp_path):
    cfg = parse_config(write(tmp_path, DIAG_CFG))
    cfg.out_dir = str(tmp_path / "out")
    trace = run_experiment(cfg)
    lines = (tmp_path / "out" / "trace.csv").read_text().splitlines()
    assert lines[0] == TRACE_HEADER
    assert len(lines) == 1 + len(trace.rows)
    first = lines[1].split(",")
    assert int(first[0]) == 0 and float(first[1]) == trace.rows[0].f
    summary = (tmp_path / "out" / "summary.txt").read_text()
    assert trace.status in summary
    _, data, _ = build_problem(cfg)
    assert data_hash(data) in summary


def test_trace_is_deterministic_except_wall_time(tmp_path):
    cfg_a = parse_config(write(tmp_path, DIAG_CFG, "a.cfg"))
    cfg_b = parse_config(write(tmp_path, DIAG_CFG, "b.cfg"))
    cfg_a.out_dir = str(tmp_path / "a")
    cfg_b.out_dir = str(tmp_path / "b")
    run_experiment(cfg_a)
    run_experiment(cfg_b)
    rows_a = (tmp_path / "a" / "trace.csv").read_text().splitlines()
    rows_b = (tmp_path / "b" / "trace.csv").read_text().splitlines()
    assert len(rows_a) == len(rows_b)
    wall_col = TRACE_HEADER.split(",").index("wall_millis")
    for la, lb in zip(rows_a, rows_b):
        assert la.split(",")[:wall_col] == lb.split(",")[:wall_col]


def test_sweep_writes_per_u_files_and_comparison(tmp_path):
    text = DIAG_CFG + "u_list = 0.5, 1.0\n"
    cfg = parse_config(write(tmp_path, text))
    cfg.out_dir = str(tmp_path / "sweep")
    traces = sweep_u(cfg)
    out = tmp_path / "sweep"
    for tag in ("u0.5", "u1"):
        assert (out / f"trace_{tag}.csv").exists()
        assert (out / f"summary_{tag}.txt").exists()
    lines = (out / "comparison.csv").read_text().splitlines()
    assert lines[0] == "k,f_u0.5,stat_u0.5,f_u1,stat_u1"
    # u = 1 keeps the objective monotone, row by row of the wide table
    f_u1 = [float(line.split(",")[3]) for line in lines[1:]
            if line.split(",")[3] != ""]
    assert f_u1 == sorted(f_u1, reverse=True) or np.all(np.diff(f_u1) <= 0)
    # both runs saw identical problem data
    sums = [(out / f"summary_{t}.txt").read_text() for t in ("u0.5", "u1")]
    _, data, _ = build_problem(cfg)
    assert all(data_hash(data) in s for s in sums)
    # shorter runs leave blank cells, never zeros
    depth = max(len(t.f_values()) for t in traces.values())
    assert len(lines) == 1 + depth


PHASE_SWEEP_CFG = """\
problem = phase_retrieval
n = 100
m = 1000
p = 2
"""


def _run_file_lines(path):
    """A run's trace or summary file without its wall-clock fields: the
    trace's last column, ``wall_millis``, and the summary's
    ``wall_millis_total`` line."""
    lines = path.read_text().splitlines()
    if path.suffix == ".csv":
        assert lines[0].endswith(",wall_millis")
        return [line.rsplit(",", 1)[0] for line in lines]
    return [line for line in lines if not line.startswith("wall_millis_total=")]


@pytest.mark.parametrize("text, coincide", [
    (PHASE_SWEEP_CFG + "seed = 0\n", True),   # all five runs take the same steps
    (PHASE_SWEEP_CFG + "seed = 1\n", False),  # the runs split after a few steps
    ("problem = diag_quad_l1\nn = 50\np = 1\n", None),
], ids=["phase-seed0", "phase-seed1", "diag-p1"])
def test_sweep_files_equal_separate_runs(tmp_path, text, coincide):
    # the runs of a sweep share their steps; each file must still be the one
    # a separate run for the same u writes, apart from wall-clock fields
    cfg = parse_config(write(tmp_path, text))
    cfg.out_dir = str(tmp_path / "sweep")
    traces = sweep_u(cfg)
    sweep = tmp_path / "sweep"
    separate = {}
    for u in cfg.u_list:
        run_dir = tmp_path / f"u{u:g}"
        separate[u] = run_experiment(replace(cfg, run=replace(cfg.run, u=u),
                                             out_dir=str(run_dir)))
        assert (_run_file_lines(sweep / f"trace_u{u:g}.csv")
                == _run_file_lines(run_dir / "trace.csv"))
        assert (_run_file_lines(sweep / f"summary_u{u:g}.txt")
                == _run_file_lines(run_dir / "summary.txt"))
        assert traces[u].x_final.tobytes() == separate[u].x_final.tobytes()
    cli.write_comparison(tmp_path / "comparison.csv", cfg.u_list, separate)
    assert ((sweep / "comparison.csv").read_text()
            == (tmp_path / "comparison.csv").read_text())
    steps = {tuple((r.M, r.step_norm, r.backtracks) for r in t.rows) for t in traces.values()}
    if coincide is not None:
        assert (len(steps) == 1) == coincide


def _count_oracle_calls(monkeypatch, share_problem=False):
    """``cli.build_problem`` with F's value, gradient and Hessian calls
    counted; returns one (calls, hessian points) pair per problem built.
    With ``share_problem`` every call returns the first problem object."""
    build, made = cli.build_problem, []

    def counted(cfg):
        if share_problem and made:
            return made[0][0]
        problem, data, x0 = build(cfg)
        problem, hess = with_hessian_calls(problem)
        problem, calls = with_oracle_calls(problem)
        made.append(((problem, data, x0), (calls, hess)))
        return problem, data, x0

    monkeypatch.setattr(cli, "build_problem", counted)
    return made


def test_sweep_whose_runs_coincide_makes_the_oracle_calls_of_one_run(tmp_path, monkeypatch):
    made = _count_oracle_calls(monkeypatch)
    cfg = parse_config(write(tmp_path, PHASE_SWEEP_CFG + "seed = 0\n"))
    cfg.out_dir = str(tmp_path / "sweep")
    traces = sweep_u(cfg)
    run_experiment(replace(cfg, run=replace(cfg.run, u=1.0), out_dir=str(tmp_path / "one")))
    (_, (sweep_calls, sweep_hess)), (_, (one_calls, one_hess)) = made
    rows = {t.iterations() for t in traces.values()}
    assert len(traces) == 5 and rows == {len(one_hess)}
    # each distinct point's Hessian is formed once, at each center of one run
    assert sorted(Counter(sweep_hess).values()) == [1] * len(one_hess)
    assert sweep_hess == one_hess and sweep_calls == one_calls


def test_sweeps_share_nothing_with_each_other(tmp_path, monkeypatch):
    # the record of shared steps lives for one sweep: a second sweep on the
    # same problem object makes the same oracle calls again
    made = _count_oracle_calls(monkeypatch, share_problem=True)
    cfg = parse_config(write(tmp_path, PHASE_SWEEP_CFG + "seed = 1\n"))
    counts = []
    for name in ("a", "b"):
        cfg.out_dir = str(tmp_path / name)
        sweep_u(cfg)
        calls, hess = made[0][1]
        counts.append((dict(calls), len(hess)))
        calls.update(value=0, grad=0)
        del hess[:]
    assert len(made) == 1 and counts[0] == counts[1] and counts[0][1] > 0


def test_gen_data_round_trips_phase_instances(tmp_path):
    text = "problem = phase_retrieval\nn = 6\nm = 24\nseed = 9\n"
    cfg = parse_config(write(tmp_path, text))
    cfg.out_dir = str(tmp_path / "bundle")
    path = cli.gen_data(cfg)
    assert path.name == "data.npz"
    _, data, _ = load_phase_retrieval(path)
    _, expected, _ = build_problem(cfg)
    assert data_hash(data) == data_hash(expected)


def test_gen_data_rejects_diagonal_instances(tmp_path):
    cfg = parse_config(write(tmp_path, DIAG_CFG))
    with pytest.raises(ConfigError):
        cli.gen_data(cfg)


def test_import_loads_no_scipy():
    # the bench times imports in fresh interpreters (setup_s), and a cold
    # scipy import alone costs most of a second: the package must not load it
    src = str(Path(nhota.__file__).parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import nhota, nhota.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, check=True)
    assert done.stdout.strip() == "[]"


# ------------------------------------------------------------- exit codes


def test_main_run_exit_zero(tmp_path, capsys):
    path = write(tmp_path, DIAG_CFG + f"out_dir = {tmp_path / 'run'}\n")
    assert cli.main(["run", str(path)]) == 0
    out = capsys.readouterr().out
    assert "status=" in out


def test_main_config_error_exit_one(tmp_path, capsys):
    path = write(tmp_path, "problem = diag_quad_l1\nbogus = 1\n")
    assert cli.main(["run", str(path)]) == 1
    assert "config error" in capsys.readouterr().err


PHASE_CFG = "problem = phase_retrieval\nn = 4\nm = 16\n"

# one bad value per case; each is reported before any run file is written
BAD_CONFIGS = {
    "n": ("run", "problem = diag_quad_l1\nn = 0\n"),
    "m": ("run", "problem = phase_retrieval\nn = 4\nm = 0\n"),
    "lambda": ("run", "problem = diag_quad_l1\nlambda = -1\n"),
    "lambda_phase": ("run", PHASE_CFG + "lambda = -1\n"),
    "gen_variance": ("run", PHASE_CFG + "gen_variance = 0\n"),
    "noise_scale": ("run", PHASE_CFG + "noise_scale = -1\n"),
    "d": ("run", "problem = diag_quad_l1\nd = 1.0, 0.0\nc = 0.5, 0.5\n"),
    "d_c_with_phase": ("run", PHASE_CFG + "d = 1.0, 2.0\nc = 0.5, 0.5\n"),
    "p": ("run", DIAG_CFG + "p = 3\n"),
    "M0": ("run", DIAG_CFG + "M0 = -1\n"),
    "Mtilde": ("run", DIAG_CFG + "Mtilde = 0\n"),
    "theta": ("run", DIAG_CFG + "theta = 0\n"),
    "u": ("run", DIAG_CFG + "u = 2\n"),
    "u_at_u_min": ("sweep", DIAG_CFG + "u = 0.001\n"),
    "u_min": ("run", DIAG_CFG + "u_min = 1\n"),
    "max_outer": ("run", "problem = diag_quad_l1\nmax_outer = -1\n"),
    "max_inner": ("run", DIAG_CFG + "max_inner = 0\n"),
    "max_doublings": ("sweep", DIAG_CFG + "max_doublings = -1\n"),
    "u_list": ("sweep", DIAG_CFG + "u_list = 0.5, 2\n"),
}
# the name each error line must mention, where it is not the case's own name
ERROR_NAMES = {"lambda_phase": "lambda", "d_c_with_phase": "d", "u_at_u_min": "u"}


@pytest.mark.parametrize("case", sorted(BAD_CONFIGS))
def test_main_bad_value_is_a_config_error_before_any_file(tmp_path, capsys, case):
    cmd, text = BAD_CONFIGS[case]
    out = tmp_path / "out"
    path = write(tmp_path, text + f"out_dir = {out}\n")
    assert cli.main([cmd, str(path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error:") and str(path) in err[0]
    name = ERROR_NAMES.get(case, case)
    assert re.search(rf"(?<![A-Za-z]){name}(?![A-Za-z])", err[0].replace(str(path), "")), err[0]
    assert not out.exists()


@pytest.mark.parametrize("cmd, problem", [
    ("run", "diag_quad_l1"), ("sweep", "diag_quad_l1"), ("gen-data", "phase_retrieval"),
])
@pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
def test_main_out_dir_that_cannot_be_a_directory_is_a_config_error(tmp_path, capsys,
                                                                   cmd, problem, under):
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory\n")
    out = blocker / "sub" if under else blocker
    cfg = write(tmp_path, f"problem = {problem}\nn = 6\nm = 24\nout_dir = {out}\n")
    before = sorted(tmp_path.rglob("*"))
    assert cli.main([cmd, str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "out_dir" in err
    assert sorted(tmp_path.rglob("*")) == before
    assert blocker.read_text() == "not a directory\n"


def test_main_solver_failure_exit_two(tmp_path, capsys):
    # doubling-starved: M may never rise, so no step is ever accepted
    text = (
        "problem = phase_retrieval\nn = 10\nm = 40\nseed = 7\n"
        "M0 = 1e-12\nmax_doublings = 0\nmax_inner = 30\nmax_outer = 5\n"
        f"out_dir = {tmp_path / 'fail'}\n"
    )
    path = write(tmp_path, text)
    assert cli.main(["run", str(path)]) == 2
    assert "run failure" in capsys.readouterr().err


def test_main_large_scale_phase_instance_ends_with_a_summary(tmp_path, capsys):
    # gen_variance = 500 grows the Hessian entries until its product roundoff
    # exceeds any absolute symmetry bound; the run must get past the oracle
    # check.  Its last solves stall at the curvature-aware precision floor
    # above stop_stat, so it ends "precision-floor" (exit 4) with the
    # resolution in its summary.  Starved of doublings, the same instance
    # fails for a real reason: exit 2, one message line, and a summary that
    # says how it failed
    base = "problem = phase_retrieval\ngen_variance = 500\n"
    floor = write(tmp_path, base + f"out_dir = {tmp_path / 'big'}\n", "big.cfg")
    assert cli.main(["run", str(floor)]) == 4
    assert capsys.readouterr().out.startswith("status=precision-floor ")
    rows = len((tmp_path / "big" / "trace.csv").read_text().splitlines()) - 1
    summary = dict(line.split("=", 1) for line in
                   (tmp_path / "big" / "summary.txt").read_text().splitlines())
    cfg = parse_config(floor)
    _, data, _ = build_problem(cfg)
    assert summary["status"] == "precision-floor" and int(summary["iterations"]) == rows > 0
    assert cfg.run.stop_stat < float(summary["final_stationarity"]) <= float(summary["resolution"])
    assert summary["seed"] == "0" and summary["data_hash"] == data_hash(data)

    starved = write(tmp_path, base + f"max_doublings = 0\nout_dir = {tmp_path / 'starved'}\n",
                    "starved.cfg")
    assert cli.main(["run", str(starved)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("run failure: no acceptable step after 0 doublings")
    assert err.count("\n") == 1
    rows = len((tmp_path / "starved" / "trace.csv").read_text().splitlines()) - 1
    summary = (tmp_path / "starved" / "summary.txt").read_text()
    assert summary.startswith(f"status=failed:LineSearchFailure\niterations={rows}\n")
    assert "\nseed=0\n" in summary and f"\ndata_hash={data_hash(data)}\n" in summary


def test_main_scaled_phase_instance_ends_stationary(tmp_path, capsys, monkeypatch):
    # at gen_variance = 30 the final p=2 solves stall at the working-precision
    # floor; the run must stop at a point whose stationarity, recomputed from
    # (A, y, lambda) alone, is the one the summary reports
    traces, run = [], cli.nhota_run

    def recording_run(*args, **kwargs):
        traces.append(run(*args, **kwargs))
        return traces[-1]

    monkeypatch.setattr(cli, "nhota_run", recording_run)
    path = write(tmp_path, "problem = phase_retrieval\ngen_variance = 30\n"
                           f"out_dir = {tmp_path / 'mid'}\n")
    assert cli.main(["run", str(path)]) == 0
    assert capsys.readouterr().out.startswith("status=stationary ")
    summary = dict(line.split("=", 1) for line in
                   (tmp_path / "mid" / "summary.txt").read_text().splitlines())
    assert summary["status"] == "stationary"
    cfg = parse_config(path)
    _, data, _ = build_problem(cfg)
    x = traces[-1].x_final
    s = data.A @ x
    g = (2.0 / data.m) * (data.A.T @ ((s**2 - data.y) * s))
    r = np.where(x != 0.0, g + data.lam * np.sign(x),
                 np.sign(g) * np.maximum(np.abs(g) - data.lam, 0.0))
    stat = float(np.linalg.norm(r))
    assert stat <= cfg.run.stop_stat
    assert float(summary["final_stationarity"]) == pytest.approx(stat, rel=1e-6)


@pytest.mark.parametrize("corrupt, kind", [(nan_hessian, "OracleFailure"),
                                           (asymmetric_hessian, "OracleContractError")])
def test_main_bad_deferred_hessian_fails_as_a_run(tmp_path, capsys, monkeypatch,
                                                  corrupt, kind):
    # the second center's Hessian is formed only after the first row is
    # streamed; a bad one there is still a run failure with a summary
    build = cli.build_problem

    def corrupted(cfg):
        problem, data, x0 = build(cfg)
        return with_hessian_calls(problem, corrupt_from=2, corrupt=corrupt)[0], data, x0

    monkeypatch.setattr(cli, "build_problem", corrupted)
    path = write(tmp_path, PHASE_CFG + f"out_dir = {tmp_path / 'bad'}\n")
    assert cli.main(["run", str(path)]) == 2
    assert capsys.readouterr().err.startswith("run failure: Hessian is ")
    summary = (tmp_path / "bad" / "summary.txt").read_text()
    assert summary.startswith(f"status=failed:{kind}\niterations=1\n")


def test_main_check_failure_exit_three(monkeypatch, capsys):
    fake = [checks.CheckResult(name="always_red", passed=False, detail="boom")]
    monkeypatch.setattr(checks, "check_suite", lambda scale="quick": fake)
    assert cli.main(["check"]) == 3
    assert "always_red" in capsys.readouterr().out


def test_main_sweep_exit_zero(tmp_path, capsys):
    text = DIAG_CFG + f"u_list = 1.0\nout_dir = {tmp_path / 'sw'}\n"
    path = write(tmp_path, text)
    assert cli.main(["sweep", str(path)]) == 0
    assert "u=1" in capsys.readouterr().out


def test_main_sweep_at_the_precision_floor_exits_four(tmp_path, capsys):
    # stop_stat = -1 is never met, so both runs stop at the precision floor;
    # that ends no sweep early, and the exit code reports it
    out = tmp_path / "floor"
    path = write(tmp_path, DIAG_CFG + f"stop_stat = -1\nu_list = 0.5, 1.0\nout_dir = {out}\n")
    assert cli.main(["sweep", str(path)]) == 4
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[1] for line in lines] == ["status=precision-floor"] * 2
    assert (out / "comparison.csv").exists()
    for tag in ("u0.5", "u1"):
        summary = (out / f"summary_{tag}.txt").read_text()
        assert "\nresolution=" in summary
