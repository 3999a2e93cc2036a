"""Outer loop: reference sequence, acceptance rule, adaptive M, full runs."""

from dataclasses import replace

import numpy as np
import pytest

from nhota import (
    ModelCenter,
    OracleFailure,
    RunConfig,
    exact_solution_diag,
    gen_diag_quad_l1,
    gen_phase_retrieval,
    l1_term,
    nhota_run,
)
from nhota.core import OracleContractError
from nhota.driver import (
    STATUS_CRITERION,
    STATUS_MAX_ITERS,
    STATUS_STATIONARY,
    TRACE_HEADER,
    accept_test,
    check_reference_descent,
    format_trace_row,
    try_step,
    update_reference,
)
from support import (
    asymmetric_hessian,
    nan_hessian,
    quadratic_1d,
    with_hessian_calls,
    without_subdiff,
)


# --------------------------------------------------- reference & acceptance


def test_update_reference_by_hand():
    # (1 - 0.25)*10 + 0.25*6 = 9
    assert update_reference(10.0, 6.0, 0.25) == 9.0


def test_update_reference_u1_returns_f_exactly():
    assert update_reference(123.456, 7.89, 1.0) == 7.89


def test_update_reference_validates_u():
    with pytest.raises(ValueError):
        update_reference(1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        update_reference(1.0, 0.0, 1.5)


def test_accept_test_by_hand():
    # required decrease with Mtilde=6, p=2, step 1: 6/3! = 1
    assert accept_test(10.0, 9.0, 1.0, 6.0, 2)
    assert not accept_test(10.0, 9.5, 1.0, 6.0, 2)


def test_accept_test_is_exact_at_the_boundary():
    # f_cand equal to R - required passes; one ulp above fails
    req = 6.0 / 6.0
    assert accept_test(10.0, 10.0 - req, 1.0, 6.0, 2)
    assert not accept_test(10.0, np.nextafter(10.0 - req, 11.0), 1.0, 6.0, 2)


def test_accept_test_zero_step_needs_no_decrease():
    assert accept_test(5.0, 5.0, 0.0, 1.0, 2)
    assert not accept_test(5.0, np.nextafter(5.0, 6.0), 0.0, 1.0, 2)


def test_accept_test_validation():
    with pytest.raises(ValueError):
        accept_test(1.0, 0.0, 1.0, 0.0, 2)
    with pytest.raises(ValueError):
        accept_test(1.0, 0.0, 1.0, 1.0, 3)


# ----------------------------------------------------------------- config


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(p=3)
    with pytest.raises(ValueError):
        RunConfig(M0=0.0)
    with pytest.raises(ValueError):
        RunConfig(theta=-0.1)
    with pytest.raises(ValueError):
        RunConfig(u_min=0.0)
    with pytest.raises(ValueError):
        RunConfig(u=1.5)
    with pytest.raises(ValueError):
        RunConfig(u=1e-3, u_min=1e-3)  # u must exceed u_min
    with pytest.raises(ValueError):
        RunConfig(max_inner=0)


def test_run_config_u_schedule():
    cfg = RunConfig(u=lambda k: 1.0 / (k + 2))
    assert cfg.u_at(0) == 0.5
    assert cfg.u_at(8) == 0.1
    bad = RunConfig(u=lambda k: 0.0)
    with pytest.raises(ValueError):
        bad.u_at(0)


# --------------------------------------------------------------- try_step


def test_try_step_huge_M_accepts_without_doubling():
    prob = quadratic_1d(3.0)
    center = ModelCenter.from_oracle(prob.smooth, np.zeros(1), p=2)
    cfg = RunConfig(p=2)
    step = try_step(prob, center, R=prob.f(np.zeros(1)), M_in=1e6, config=cfg)
    assert step.doublings == 0 and step.M_used == 1e6
    assert not step.stationary
    assert step.f_cand == prob.f(step.y)
    assert accept_test(prob.f(np.zeros(1)), step.f_cand, step.cert.step_norm,
                       cfg.Mtilde, 2)


def test_try_step_small_M_doubles():
    # p = 1: a tiny M means a ~1/M-sized first-order step that overshoots
    # and fails the acceptance test until M has been doubled
    prob, _, x0 = gen_diag_quad_l1(10, seed=3)
    center = ModelCenter.from_oracle(prob.smooth, x0, p=1)
    cfg = RunConfig(p=1)
    step = try_step(prob, center, R=prob.f(x0), M_in=1e-3, config=cfg)
    assert step.doublings >= 1
    assert step.M_used == 1e-3 * 2.0**step.doublings


def test_try_step_at_a_stationary_center_evaluates_no_candidate():
    # the solve from a minimizer returns a collapsed step; the stop at the
    # center is decided before F is evaluated at a candidate it discards
    prob, _, _ = gen_diag_quad_l1(8, seed=1)
    x_star, f_star = prob.known_opt
    calls = []
    value = prob.smooth.value
    prob = without_subdiff(replace(
        prob, smooth=replace(prob.smooth, value=lambda x: calls.append(1) or value(x))))
    center = ModelCenter.from_oracle(prob.smooth, x_star, p=2)
    del calls[:]
    step = try_step(prob, center, R=f_star, M_in=1e-2, config=RunConfig(p=2))
    assert step.stationary and np.isnan(step.f_cand)
    assert calls == []


# ---------------------------------------------------------------- full runs


def test_run_converges_on_diagonal_instance():
    prob, data, x0 = gen_diag_quad_l1(10, seed=0)
    _, f_star = exact_solution_diag(data)
    cfg = RunConfig(p=2, u=0.5, max_outer=50, stop_f=-np.inf, stop_stat=0.0)
    trace = nhota_run(prob, x0, cfg)
    assert min(trace.f_values()) - f_star <= 1e-8
    assert trace.check_invariants(cfg) == []
    assert trace.status in (STATUS_STATIONARY, STATUS_MAX_ITERS)


def test_run_stops_at_stationary_start():
    prob, data, _ = gen_diag_quad_l1(6, seed=1)
    x_star, f_star = prob.known_opt
    trace = nhota_run(prob, x_star, RunConfig(p=2))
    assert trace.status == STATUS_STATIONARY
    assert trace.iterations() == 0 and len(trace.rows) == 0
    assert trace.f_final == prob.f(x_star)
    assert trace.stat_final <= 1e-12


def test_run_stops_at_a_center_stationary_to_its_floor():
    # F'(x) = -100 and h's subgradient 100 cancel to a residual of 5e-10:
    # under the floor 1e-11 * (1 + |F'(x)|), so the solve certifies a
    # zero-length step, and it is no larger than the resolution, so the run
    # must stop at x0 rather than record max_outer zero-length steps
    prob = replace(quadratic_1d(200.0), nonsmooth=l1_term(100.0))
    cfg = RunConfig(p=2, stop_stat=-1.0, stop_f=-np.inf, max_outer=20)
    trace = nhota_run(prob, np.array([100.0 + 5e-10]), cfg)
    assert trace.status == STATUS_STATIONARY and len(trace.rows) == 0


@pytest.mark.parametrize("seed", [1, 3, 6])
def test_run_stops_on_a_step_one_ulp_from_the_minimizer(seed):
    # with an opaque h the solve from these minimizers returns a point a few
    # ulps from x, not x itself; the collapsed-step test is relative to
    # ||x||, so the run still stops there
    prob, _, _ = gen_diag_quad_l1(8, seed=seed)
    x_star, _ = prob.known_opt
    cfg = RunConfig(p=2, stop_stat=-1.0, stop_f=-np.inf, max_outer=10)
    trace = nhota_run(without_subdiff(prob), x_star, cfg)
    assert trace.status == STATUS_STATIONARY and len(trace.rows) == 0


def test_run_respects_max_outer():
    prob, _, x0 = gen_phase_retrieval(8, 40, seed=3, noise_scale=1.0)
    cfg = RunConfig(p=1, max_outer=4, stop_f=-np.inf, stop_stat=0.0)
    trace = nhota_run(prob, x0, cfg)
    assert trace.status == STATUS_MAX_ITERS and len(trace.rows) == 4


def test_run_stop_f_is_honored():
    prob, data, x0 = gen_diag_quad_l1(10, seed=2)
    _, f_star = exact_solution_diag(data)
    cfg = RunConfig(p=2, stop_f=f_star + 1.0, stop_stat=0.0, max_outer=100)
    trace = nhota_run(prob, x0, cfg)
    assert trace.status == STATUS_CRITERION
    assert trace.f_final <= f_star + 1.0


def test_run_forms_no_hessian_where_it_stops():
    # each center's Hessian is formed just before its first try_step, so a
    # run that stops on stop_stat forms one per step and none at the end
    prob, _, x0 = gen_phase_retrieval(10, 50, seed=5, noise_scale=1.0)
    prob, calls = with_hessian_calls(prob)
    cfg = RunConfig(p=2)
    trace = nhota_run(prob, x0, cfg)
    assert trace.status == STATUS_STATIONARY and trace.stat_final <= cfg.stop_stat
    assert trace.iterations() > 0 and len(calls) == trace.iterations()


@pytest.mark.parametrize("corrupt, error, message", [
    (nan_hessian, OracleFailure, "Hessian is non-finite"),
    (asymmetric_hessian, OracleContractError, "Hessian is not symmetric"),
])
def test_deferred_hessian_keeps_its_checks(corrupt, error, message):
    # the second center's Hessian is formed after the first step is recorded:
    # a bad matrix there still raises the checks' own exception
    prob, _, x0 = gen_phase_retrieval(10, 50, seed=5, noise_scale=1.0)
    prob, calls = with_hessian_calls(prob, corrupt_from=2, corrupt=corrupt)
    rows = []
    with pytest.raises(error, match=message):
        nhota_run(prob, x0, RunConfig(p=2), row_sink=rows.append)
    assert len(calls) == 2 and len(rows) == 1


def test_row_sink_streams_every_row():
    prob, _, x0 = gen_diag_quad_l1(8, seed=4)
    got = []
    trace = nhota_run(prob, x0, RunConfig(p=2, max_outer=20),
                      row_sink=got.append)
    assert got == trace.rows


def test_reference_dominates_objective_along_run():
    prob, _, x0 = gen_phase_retrieval(10, 50, seed=5, noise_scale=1.0)
    cfg = RunConfig(p=2, u=0.05, max_outer=60)
    trace = nhota_run(prob, x0, cfg)
    f_vals, r_vals = trace.f_values(), trace.r_values()
    slack = 1e-9 * max(1.0, np.max(np.abs(r_vals)))
    assert np.all(r_vals >= f_vals - slack)
    assert np.all(np.diff(r_vals) <= slack)


# ------------------------------------------------------- invariant checker


def test_checker_flags_reference_below_objective():
    f_vals = np.array([10.0, 8.0])
    r_vals = np.array([10.0, 7.0])  # R_1 < f(x_1)
    steps = np.array([1.0])
    out = check_reference_descent(f_vals, r_vals, steps, 1e-3, 1e-2, 2)
    assert any("R_k" in line or "R_1" in line for line in out)


# ----------------------------------------------------------------- traces


def test_trace_csv_row_roundtrip():
    prob, _, x0 = gen_diag_quad_l1(6, seed=6)
    trace = nhota_run(prob, x0, RunConfig(p=2, max_outer=10))
    assert TRACE_HEADER == "k,f,R,M,step_norm,stationarity,inner_iters,backtracks,wall_millis"
    row = trace.rows[0]
    cells = format_trace_row(row).split(",")
    assert int(cells[0]) == row.k
    assert float(cells[1]) == row.f  # repr round-trips exactly
    assert float(cells[2]) == row.R
    assert float(cells[5]) == row.stationarity
    assert int(cells[6]) == row.inner_iters
