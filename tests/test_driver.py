"""Outer loop: reference sequence, acceptance rule, adaptive M, full runs."""

from collections import Counter
from dataclasses import replace
from math import factorial

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from nhota import (
    DiagQuadL1Data,
    IterateTrace,
    ModelCenter,
    OracleFailure,
    RunConfig,
    diag_quad_problem,
    exact_solution_diag,
    gen_diag_quad_l1,
    gen_phase_retrieval,
    driver,
    l1_term,
    nhota_run,
)
from nhota.core import OracleContractError
from nhota.driver import (
    STATUS_CRITERION,
    STATUS_MAX_ITERS,
    STATUS_PRECISION_FLOOR,
    STATUS_STATIONARY,
    TRACE_HEADER,
    accept_test,
    check_reference_descent,
    format_trace_row,
    nhota_steps,
    shared_steps,
    try_step,
    update_reference,
)
from nhota.taylor import taylor_grad
from support import (
    asymmetric_hessian,
    nan_hessian,
    quadratic_1d,
    times,
    with_callback_counts,
    with_dense_hessian,
    with_hessian_calls,
    with_oracle_calls,
    without_subdiff,
)


# --------------------------------------------------- reference & acceptance


def test_update_reference_by_hand():
    # (1 - 0.25)*10 + 0.25*6 = 9
    assert update_reference(10.0, 6.0, 0.25) == 9.0


def test_update_reference_u1_returns_f_exactly():
    assert update_reference(123.456, 7.89, 1.0) == 7.89


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
    assert step.doublings == 0 and step.M == 1e6
    assert step.outcome != driver.TRIAL_STATIONARY
    assert step.f_cand == prob.f(step.y)
    assert accept_test(prob.f(np.zeros(1)), step.f_cand, step.cert.step_norm,
                       cfg.Mtilde, 2)


def test_try_step_raises_M_by_a_factor_in_two_to_four(monkeypatch):
    # p = 1: a tiny M means a ~1/M-sized first-order step that overshoots
    # and fails the acceptance test; each rejection raises M to the
    # remainder estimate, clipped to [2M, 4M]
    prob, _, x0 = gen_diag_quad_l1(10, seed=3)
    center = ModelCenter.from_oracle(prob.smooth, x0, p=1)
    tried, solve = [], driver.solve_subproblem

    def recording(problem, center, M, theta, **kwargs):
        tried.append(M)
        return solve(problem, center, M, theta, **kwargs)

    monkeypatch.setattr(driver, "solve_subproblem", recording)
    step = try_step(prob, center, R=prob.f(x0), M_in=1e-3, config=RunConfig(p=1))
    assert step.doublings >= 1 and tried[0] == 1e-3 and tried[-1] == step.M
    factors = np.array(tried[1:]) / np.array(tried[:-1])
    assert len(factors) == step.doublings
    assert np.all((factors >= 2.0) & (factors <= driver.MAX_M_RAISE))
    assert np.any(factors > 2.0)


def test_try_step_lands_on_the_remainder_estimate():
    # F = d x^2 / 2 at p = 1: F(y) - T_1(y) = d/2 ||s||^2, so a rejected step
    # asks for exactly Mtilde + d; from M_in = 1 that lies in (2, 4), and the
    # one rejection lands on it, where the step passes
    d = 3.0
    prob = diag_quad_problem(DiagQuadL1Data(d=np.array([d]), c=np.zeros(1), lam=0.0))
    x0 = np.ones(1)
    center = ModelCenter.from_oracle(prob.smooth, x0, p=1)
    cfg = RunConfig(p=1)
    assert 2.0 < cfg.Mtilde + d < 4.0
    step = try_step(prob, center, R=prob.f(x0), M_in=1.0, config=cfg)
    assert step.doublings == 1
    assert step.M == pytest.approx(cfg.Mtilde + d, rel=1e-12)


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
    assert step.outcome == driver.TRIAL_STATIONARY and np.isnan(step.f_cand)
    assert calls == []


# ------------------------------------------------------------ shared steps


def _counted_run(problem, calls, hess, x0, cfg):
    """One run and the oracle calls it made: (value, grad, hess) counts."""
    calls.update(value=0, grad=0)
    del hess[:]
    trace = nhota_run(problem, x0, cfg)
    return trace, (calls["value"], calls["grad"], len(hess))


def _phase_counted(seed):
    plain, _, x0 = gen_phase_retrieval(8, 32, seed=seed, noise_scale=1.0)
    problem, hess = with_hessian_calls(plain)
    problem, calls = with_oracle_calls(problem)
    return problem, calls, hess, x0


def test_runs_outside_shared_steps_share_nothing():
    # two runs on one problem object, outside any shared_steps block, make
    # the same oracle calls: nothing is kept from one run to the next
    problem, calls, hess, x0 = _phase_counted(1)
    cfg = RunConfig(p=2, stop_f=-np.inf)
    _, first = _counted_run(problem, calls, hess, x0, cfg)
    _, second = _counted_run(problem, calls, hess, x0, cfg)
    assert first == second and min(first) > 0


def _rows(trace):
    """The trace's rows without their wall-clock field."""
    return [replace(row, wall_millis=0.0) for row in trace.rows]


def test_shared_steps_replay_a_repeated_run_without_oracle_calls():
    problem, calls, hess, x0 = _phase_counted(1)
    cfg, other = RunConfig(p=2, stop_f=-np.inf), RunConfig(p=2, stop_f=-np.inf, u=0.05)
    with shared_steps(problem):
        first, counts = _counted_run(problem, calls, hess, x0, cfg)
        again, replayed = _counted_run(problem, calls, hess, x0, cfg)
        # another u tests the recorded candidates against its own R
        shared, _ = _counted_run(problem, calls, hess, x0, other)
    after, fresh = _counted_run(problem, calls, hess, x0, cfg)
    alone, _ = _counted_run(problem, calls, hess, x0, other)
    assert replayed == (0, 0, 0) and fresh == counts
    for trace, same in ((again, first), (after, first), (shared, alone)):
        assert _rows(trace) == _rows(same)
        assert trace.x_final.tobytes() == same.x_final.tobytes()


def test_shared_steps_share_nothing_with_another_problem_object():
    # the record is bound to the problem the block names: a run on an equal
    # but distinct problem object makes the oracle calls of a run outside
    # any block, and a repeat on the named problem still replays
    problem, calls, hess, x0 = _phase_counted(1)
    cfg = RunConfig(p=2, stop_f=-np.inf)
    alone, counts = _counted_run(problem, calls, hess, x0, cfg)
    with shared_steps(problem):
        _counted_run(problem, calls, hess, x0, cfg)
        other, other_counts = _counted_run(replace(problem), calls, hess, x0, cfg)
        _, replayed = _counted_run(problem, calls, hess, x0, cfg)
    assert other_counts == counts and min(counts) > 0 and replayed == (0, 0, 0)
    assert _rows(other) == _rows(alone)


def _x_scaled(problem, lam: float, a: float):
    """F(z/a) + h(z/a): the problem in coordinates z = a x."""
    s = problem.smooth
    smooth = replace(s, value=lambda z: s.value(z / a), grad=lambda z: s.grad(z / a) / a,
                     hess=lambda z: s.hess(z / a) / a**2)
    return replace(problem, smooth=smooth, nonsmooth=l1_term(lam / a), known_opt=None)


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(log_a=st.floats(np.log(1e-2), np.log(1e2)), p=st.sampled_from([1, 2]),
       family=st.sampled_from(["diag", "phase"]), seed=st.integers(0, 3))
def test_x_scaled_runs_end_where_the_unscaled_run_does(log_a, p, family, seed):
    # in z = a x the model regularization a^-(p+1) M ||z - z_k||^(p+1) / (p+1)!
    # and the inner target a^-(p+1) theta ||z - z_k||^p are those of x, and
    # stationarity shrinks by 1/a; so M0, Mtilde and theta scale by
    # a^-(p+1) and stop_stat by 1/a.  (With theta unscaled, p = 2 runs at
    # a = 100 ran out of max_outer.)  Over 64 fixed cases the end points
    # differ by at most 5.3e-7 relative
    a = float(np.exp(log_a))
    if family == "diag":
        prob, data, x0 = gen_diag_quad_l1(20, seed=seed)
    else:
        prob, data, x0 = gen_phase_retrieval(8, 32, seed=seed, noise_scale=1.0)
    cfg = RunConfig(p=p, stop_f=-np.inf, stop_stat=1e-6)
    base = nhota_run(prob, x0, cfg)
    k = a ** -(p + 1)
    scaled_cfg = replace(cfg, M0=k * cfg.M0, Mtilde=k * cfg.Mtilde, theta=k * cfg.theta,
                         stop_stat=cfg.stop_stat / a)
    scaled = nhota_run(_x_scaled(prob, data.lam, a), a * x0, scaled_cfg)
    for trace in (base, scaled):
        assert trace.status in (STATUS_STATIONARY, STATUS_PRECISION_FLOOR)
    gap = np.linalg.norm(scaled.x_final / a - base.x_final)
    assert gap <= 1e-5 * max(1.0, float(np.linalg.norm(base.x_final)))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 200), seed=st.integers(0, 2**16),
       lam=st.one_of(st.just(0.0), st.floats(1e-3, 3.0)), p=st.sampled_from([1, 2]),
       u=st.floats(0.05, 1.0), stop_exp=st.floats(3.0, 9.0))
@example(n=127, seed=54, lam=0.1, p=2, u=0.83, stop_exp=9.0)  # ends at precision-floor
def test_diagonal_hessian_as_a_vector_runs_as_the_dense_matrix(n, seed, lam, p, u, stop_exp):
    # the diagonal's elementwise product gives the doubles of the dense H @ d
    # (each entry is d_i x_i plus exact zeros), so the runs agree bit for bit.
    # An opaque h keeps the diagonal p = 2 runs on the proximal-gradient loop;
    # with an exact subdiff_dist they take the closed-form step instead
    # (test_inner's closed-form property compares that step with the loop)
    prob, _, x0 = gen_diag_quad_l1(n, seed=seed, lam=lam)
    prob = without_subdiff(prob)
    cfg = RunConfig(p=p, u=u, stop_f=-np.inf, stop_stat=10.0 ** -stop_exp)
    diag = nhota_run(prob, x0, cfg)
    dense = nhota_run(with_dense_hessian(prob), x0, cfg)
    assert _rows(diag) == _rows(dense)
    assert (diag.status, diag.resolution) == (dense.status, dense.resolution)
    assert diag.x_final.tobytes() == dense.x_final.tobytes()


# ---------------------------------------------------------------- full runs


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("make", [
    lambda: gen_diag_quad_l1(10, seed=0),
    lambda: gen_phase_retrieval(8, 32, seed=0, noise_scale=1.0),
], ids=["diag", "phase"])
def test_run_evaluates_F_once_per_visited_point(monkeypatch, make, p):
    # x0 and each tested candidate get one F value; an accepted candidate's
    # value becomes its center's, so no point is evaluated twice
    plain, _, x0 = make()
    prob, calls = with_oracle_calls(plain)
    tested = []
    monkeypatch.setattr(driver, "accept_test",
                        lambda *args: tested.append(1) or accept_test(*args))
    trace = IterateTrace()
    cfg = RunConfig(p=p, max_outer=40, stop_f=-np.inf)
    iterates = [center.x for center, _ in nhota_steps(prob, x0, cfg, trace)]
    iterates.append(trace.x_final)
    rows = trace.iterations()
    assert rows > 0 and len(tested) >= rows
    assert calls["value"] == 1 + len(tested)
    assert calls["grad"] == rows + 1
    assert list(trace.f_values()) == [plain.f(x) for x in iterates]



def record_start_Ms(monkeypatch, problem, x0, cfg):
    """Run ``nhota_steps``; return the M each ``try_step`` started from, the
    (center, step) pairs and the trace."""
    started, step = [], driver.try_step

    def recording(problem, center, R, M_in, config):
        started.append(M_in)
        return step(problem, center, R, M_in, config)

    monkeypatch.setattr(driver, "try_step", recording)
    trace = IterateTrace()
    steps = list(nhota_steps(problem, x0, cfg, trace))
    return started, steps, trace


@pytest.mark.parametrize("p", [1, 2])
def test_each_step_starts_at_the_secant_M_of_the_step_before(monkeypatch, p):
    # M_{k+1} = max(M0, ||grad F(y) - grad T_p(y; x)|| / (p! ||s||^p)),
    # recomputed here from a fresh gradient
    prob, _, x0 = gen_phase_retrieval(8, 40, seed=3, noise_scale=1.0)
    cfg = RunConfig(p=p, max_outer=60, stop_f=-np.inf, stop_stat=1e-6)
    started, steps, trace = record_start_Ms(monkeypatch, prob, x0, cfg)
    assert started[0] == cfg.M0 and min(started) >= cfg.M0
    assert len(steps) == len(trace.rows) >= 5
    for (center, step), M_in in zip(steps, started[1:]):
        s = step.y - center.x
        err = np.linalg.norm(prob.smooth.grad(step.y) - taylor_grad(center, step.y))
        estimate = err / (factorial(p) * np.linalg.norm(s) ** p)
        assert M_in == pytest.approx(max(cfg.M0, estimate), rel=1e-12)
    # unlike halving, the estimate can also raise M after a first-try step
    assert any(not row.backtracks and M_in > row.M
               for row, M_in in zip(trace.rows, started[1:]))


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_p1_start_M_on_a_diagonal_quadratic_stays_within_its_curvature(monkeypatch, seed):
    # grad F(y) - grad F(x) = D s, so the p = 1 secant estimate is a Rayleigh
    # quotient of D: never above max d
    prob, data, x0 = gen_diag_quad_l1(20, seed=seed)
    cfg = RunConfig(p=1, stop_f=-np.inf, stop_stat=1e-9)
    started, _, trace = record_start_Ms(monkeypatch, prob, x0, cfg)
    assert len(trace.rows) >= 10
    assert max(started) <= max(cfg.M0, float(np.max(data.d)))


def test_p2_steps_on_a_diagonal_quadratic_start_at_M0(monkeypatch):
    # F is its own second-order Taylor model, so grad F - grad T_2 is zero
    # up to rounding and no step starts above M0.  The dense Hessian keeps
    # the run on the proximal-gradient loop, whose inexact steps take more
    # than the closed form's two
    prob, _, x0 = gen_diag_quad_l1(20, seed=0)
    prob = with_dense_hessian(prob)
    cfg = RunConfig(p=2, stop_f=-np.inf)
    started, _, trace = record_start_Ms(monkeypatch, prob, x0, cfg)
    assert len(trace.rows) >= 3
    assert started == [cfg.M0] * len(started)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(log_variance=st.floats(np.log(0.5), np.log(500.0)),
       seed=st.integers(0, 10_000), n=st.integers(3, 12))
def test_scaled_phase_runs_end_stationary_or_at_the_floor(log_variance, seed, n):
    # gen_variance scales A, so F's value, gradient and Hessian entries grow
    # at different powers of it; the curvature-aware resolution must let
    # every such run stop, never double M to a LineSearchFailure
    prob, _, x0 = gen_phase_retrieval(n, 5 * n, seed=seed, noise_scale=1.0,
                                      gen_variance=float(np.exp(log_variance)))
    cfg = RunConfig(p=2, u=0.5)
    trace = nhota_run(prob, x0, cfg)
    assert trace.status in (STATUS_STATIONARY, STATUS_PRECISION_FLOOR)
    assert (trace.stat_final <= cfg.stop_stat) == (trace.status == STATUS_STATIONARY)


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(log_c=st.floats(np.log(1e-3), np.log(1e3)), p=st.sampled_from([1, 2]),
       family=st.sampled_from(["diag", "phase"]), seed=st.integers(0, 3))
def test_scaled_objective_runs_end_stationary_or_at_the_floor(log_c, p, family, seed):
    # the objective times c, with stop_stat times c, set below what the
    # residual resolves: every run must stop, stationary or at the floor.
    # With an M-independent p = 1 resolution, phase seed 0 at c = e^2.25
    # doubled M to a LineSearchFailure
    c = float(np.exp(log_c))
    if family == "diag":
        prob, data, x0 = gen_diag_quad_l1(20, seed=seed)
    else:
        prob, data, x0 = gen_phase_retrieval(8, 32, seed=seed, noise_scale=1.0)
    cfg = RunConfig(p=p, stop_f=-np.inf, stop_stat=1e-9 * c)
    trace = nhota_run(times(prob, data.lam, c), x0, cfg)
    assert trace.status in (STATUS_STATIONARY, STATUS_PRECISION_FLOOR)
    assert (trace.stat_final <= cfg.stop_stat) == (trace.status == STATUS_STATIONARY)


def test_p2_run_on_a_flat_objective_keeps_its_inner_solves_short():
    # objective x 1e-3, so 1/L is far above 1.  With every inner step capped
    # at 1 this run took 123 steps, 45 of its 169 solves ran out of
    # max_inner and one row spent 2500 inner iterations.  The dense Hessian
    # keeps the run on the proximal-gradient loop
    prob, data, x0 = gen_diag_quad_l1(20, seed=0)
    cfg = RunConfig(p=2, stop_f=-np.inf, stop_stat=1e-12)
    trace = nhota_run(with_dense_hessian(times(prob, data.lam, 1e-3)), x0, cfg)
    assert trace.status == STATUS_PRECISION_FLOOR
    assert len(trace.rows) <= 50
    assert max(row.inner_iters for row in trace.rows) < cfg.max_inner


def test_p1_run_past_its_resolution_ends_at_the_precision_floor():
    # stop_stat = 1e-9 lies below what the p = 1 residual resolves on this
    # instance, so the run must stop at the M-aware floor.  With an
    # M-independent resolution, the remainder-estimate raise of M ended this
    # run in a LineSearchFailure at M = 1.8e26, and plain doubling ran out
    # of max_outer
    prob, _, x0 = gen_diag_quad_l1(20, seed=3)
    cfg = RunConfig(p=1, u=1.0, stop_stat=1e-9, max_outer=40)
    trace = nhota_run(prob, x0, cfg)
    assert trace.status == STATUS_PRECISION_FLOOR
    assert cfg.stop_stat < trace.stat_final <= trace.resolution
    assert trace.check_invariants(cfg) == []


def test_run_converges_on_diagonal_instance():
    prob, data, x0 = gen_diag_quad_l1(10, seed=0)
    _, f_star = exact_solution_diag(data)
    cfg = RunConfig(p=2, u=0.5, max_outer=50, stop_f=-np.inf, stop_stat=0.0)
    trace = nhota_run(prob, x0, cfg)
    assert min(trace.f_values()) - f_star <= 1e-8
    assert trace.check_invariants(cfg) == []
    # stop_stat = 0 asks for exact stationarity, so the run ends at the
    # working-precision floor or on its budget
    assert trace.status in (STATUS_PRECISION_FLOOR, STATUS_MAX_ITERS)


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
    # must stop at x0, at the precision floor, rather than record max_outer
    # zero-length steps
    prob = replace(quadratic_1d(200.0), nonsmooth=l1_term(100.0))
    cfg = RunConfig(p=2, stop_stat=-1.0, stop_f=-np.inf, max_outer=20)
    trace = nhota_run(prob, np.array([100.0 + 5e-10]), cfg)
    assert trace.status == STATUS_PRECISION_FLOOR and len(trace.rows) == 0
    assert trace.stat_final <= trace.resolution


@pytest.mark.parametrize("seed", [1, 3, 6])
def test_run_stops_on_a_step_one_ulp_from_the_minimizer(seed):
    # with an opaque h the solve from these minimizers returns a point a few
    # ulps from x, not x itself; the collapsed-step test is relative to
    # ||x||, so the run still stops there, at the precision floor
    prob, _, _ = gen_diag_quad_l1(8, seed=seed)
    x_star, _ = prob.known_opt
    cfg = RunConfig(p=2, stop_stat=-1.0, stop_f=-np.inf, max_outer=10)
    trace = nhota_run(without_subdiff(prob), x_star, cfg)
    assert trace.status == STATUS_PRECISION_FLOOR and len(trace.rows) == 0
    assert trace.resolution is not None


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 60), seed=st.integers(0, 2**16),
       lam=st.one_of(st.just(0.0), st.floats(1e-3, 3.0)), p=st.sampled_from([1, 2]),
       exact_h=st.booleans())
@example(n=8, seed=0, lam=0.1, p=2, exact_h=False)
def test_run_started_at_the_minimizer_ends_at_the_precision_floor(n, seed, lam, p, exact_h):
    # from the closed-form minimizer, with stop_stat off, every run must stop
    # at the precision floor.  With an opaque h a p = 2 solve there can
    # freeze on its first prox step, before it has a residual (the explicit
    # example); judged as its center, it is stationary, where it used to
    # fail and M was doubled 60 times into a LineSearchFailure
    prob, _, _ = gen_diag_quad_l1(n, seed, lam=lam)
    x_star, _ = prob.known_opt
    if not exact_h:
        prob = without_subdiff(prob)
    cfg = RunConfig(p=p, stop_stat=-1.0, stop_f=-np.inf, max_outer=10)
    trace = nhota_run(prob, x_star, cfg)
    assert trace.status == STATUS_PRECISION_FLOOR and trace.resolution is not None


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


# ------------------------------------------------------- work per step


def test_diag_runs_evaluate_h_once_per_trial_and_once_per_run(monkeypatch):
    # the benchmark's diagonal round (n in {50, 500}, seeds 0-3, p in {1, 2}):
    # each solve hands h(y) to the driver on its certificate, and an accepted
    # point's h(y) becomes its center's h(x), so h is evaluated once per
    # trial and once at each x0; the other callbacks keep their counts
    solve, solves = driver.solve_subproblem, []
    monkeypatch.setattr(driver, "solve_subproblem",
                        lambda *args, **kwargs: solves.append(1) or solve(*args, **kwargs))
    totals, runs = Counter(), 0
    for seed in range(4):
        for n in (50, 500):
            plain, _, x0 = gen_diag_quad_l1(n, seed=seed)
            for p in (1, 2):
                prob, calls = with_callback_counts(plain)
                trace = nhota_run(prob, x0, RunConfig(p=p, u=0.5, stop_stat=1e-3))
                assert trace.status == STATUS_STATIONARY
                totals += calls
                runs += 1
    assert totals["h_value"] == len(solves) + runs
    assert dict(totals) == {"value": 220, "grad": 188, "hess": 24,
                            "h_value": 220, "prox": 312, "subdiff": 392}


def _nan_from_call(fn, first):
    """``fn`` whose calls from number ``first`` on return NaN in its output's shape."""
    calls = []

    def call(*args):
        calls.append(1)
        out = fn(*args)
        return out * np.nan if len(calls) >= first else out
    return call


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("fault", ["subdiff_dist", "prox", "opaque prox"])
@pytest.mark.parametrize("first", [1, 4])
def test_a_nan_from_h_fails_the_run(fault, first, p):
    # a NaN distance passes every "<=" the stopping rule would fail, and so
    # read as a point stationary to working precision; a NaN prox point
    # froze the solve.  Either is h's failure, whether it comes at x0's
    # stationarity test or inside a later solve
    prob, _, x0 = gen_diag_quad_l1(8, seed=0)
    h = prob.nonsmooth
    if fault == "subdiff_dist":
        h = replace(h, subdiff_dist=_nan_from_call(h.subdiff_dist, first))
    else:
        h = replace(h, prox=_nan_from_call(h.prox, first),
                    subdiff_dist=None if fault == "opaque prox" else h.subdiff_dist)
    prob = replace(prob, nonsmooth=h, known_opt=None)
    trace = IterateTrace()
    with pytest.raises(OracleFailure, match="returned"):
        for _ in nhota_steps(prob, x0, RunConfig(p=p), trace):
            pass
    assert trace.status == ""
