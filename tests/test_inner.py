"""Inexact subproblem solver: certified stops, witnesses, and stall handling."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nhota import (
    CompositeProblem,
    DiagQuadL1Data,
    InnerSolveFailure,
    ModelCenter,
    RunConfig,
    SmoothOracle,
    certify,
    diag_quad_problem,
    driver,
    gen_diag_quad_l1,
    gen_phase_retrieval,
    l1_term,
    nhota_run,
    solve_subproblem,
)
from nhota.checks import closed_form_against_loop
from nhota.inner import center_stationarity, residual_floor, stationarity_resolution
from nhota.taylor import _model, model_value
from support import quadratic_1d, shifted, times, with_dense_hessian, without_subdiff


def test_quadratic_reaches_exact_minimizer():
    # model at x=0, p=1, M=1: 4.5 - 3y + y^2/2, minimized at y = 3; one
    # unit-step prox-gradient iteration lands there exactly
    prob = quadratic_1d(3.0)
    center = ModelCenter.from_oracle(prob.smooth, np.zeros(1), p=1)
    y, cert, witness = solve_subproblem(prob, center, M=1.0, theta=0.1)
    assert abs(y[0] - 3.0) <= 1e-6
    assert cert.valid and not cert.stalled
    assert cert.step_norm == 3.0 and cert.inner_iters == 1


def test_certificate_threshold_holds_across_instances():
    for seed in range(5):
        prob, _, x0 = gen_phase_retrieval(6, 24, seed=seed, noise_scale=0.5)
        center = ModelCenter.from_oracle(prob.smooth, x0, p=2)
        y, cert, _ = solve_subproblem(prob, center, M=5.0, theta=0.1)
        assert not cert.stalled
        assert cert.residual <= cert.threshold + residual_floor(center)
        assert cert.threshold == 0.1 * cert.step_norm**2
        # certified model decrease, recomputed from scratch
        m_total = model_value(center, y, 5.0) + prob.nonsmooth.value(y)
        f_center = prob.f(x0)
        assert m_total <= f_center + 1e-12 * max(1.0, abs(f_center))


def test_certify_agrees_with_solver_certificate():
    prob, _, x0 = gen_phase_retrieval(10, 50, seed=7, noise_scale=1.0)
    center = ModelCenter.from_oracle(prob.smooth, x0, p=2)
    y, cert, witness = solve_subproblem(prob, center, M=10.0, theta=0.1)
    fresh = certify(prob, center, y, M=10.0, theta=0.1, witness_p=witness)
    assert fresh.decrease_ok
    assert abs(fresh.residual - cert.residual) <= 1e-8
    assert abs(fresh.threshold - cert.threshold) <= 1e-12
    assert fresh.valid == cert.valid


def test_certify_rejects_model_increase():
    prob = quadratic_1d(3.0)
    center = ModelCenter.from_oracle(prob.smooth, np.zeros(1), p=2)
    # far uphill: the regularized model is way above f at the center
    bad = certify(prob, center, np.array([50.0]), M=2.0, theta=0.1)
    assert not bad.decrease_ok and not bad.valid


def test_certify_at_nonstationary_center_is_invalid():
    prob = quadratic_1d(3.0)
    center = ModelCenter.from_oracle(prob.smooth, np.zeros(1), p=2)
    cert = certify(prob, center, np.zeros(1), M=2.0, theta=0.1)
    # zero step means zero threshold, and the gradient is 3 away from zero
    assert cert.step_norm == 0.0 and cert.threshold == 0.0
    assert abs(cert.residual - 3.0) <= 1e-15
    assert not cert.valid


def test_witness_lies_in_l1_subgradient_box():
    lam = 0.3
    prob, _, x0 = gen_diag_quad_l1(6, seed=4, lam=lam)
    opaque = without_subdiff(prob)
    center = ModelCenter.from_oracle(opaque.smooth, x0, p=2)
    y, cert, witness = solve_subproblem(opaque, center, M=5.0, theta=0.1)
    assert witness is not None
    assert np.all(np.abs(witness) <= lam + 1e-10)
    support = y != 0.0
    assert np.all(np.abs(witness[support] - lam * np.sign(y[support])) <= 1e-10)


def test_certify_needs_witness_when_h_is_opaque():
    prob, _, x0 = gen_diag_quad_l1(4, seed=5)
    opaque = without_subdiff(prob)
    center = ModelCenter.from_oracle(opaque.smooth, x0, p=2)
    with pytest.raises(ValueError):
        certify(opaque, center, x0 + 0.1, M=2.0, theta=0.1, witness_p=None)


def test_start_at_minimizer_is_certified_immediately():
    # the proximal-gradient loop's start check; the dense Hessian keeps the
    # solve off the closed-form step, which always takes one prox call
    prob = with_dense_hessian(gen_diag_quad_l1(8, seed=6)[0])
    x_star, _ = prob.known_opt
    center = ModelCenter.from_oracle(prob.smooth, x_star, p=2)
    y, cert, witness = solve_subproblem(prob, center, M=1.0, theta=0.1)
    assert np.array_equal(y, x_star)
    assert cert.inner_iters == 0 and cert.step_norm == 0.0
    assert cert.residual <= residual_floor(center)
    assert witness is None


def test_inner_failure_on_starved_budget():
    prob, _, x0 = gen_phase_retrieval(8, 32, seed=0, noise_scale=1.0)
    center = ModelCenter.from_oracle(prob.smooth, x0, p=2)
    with pytest.raises(InnerSolveFailure) as excinfo:
        solve_subproblem(prob, center, M=1e-4, theta=1e-6, max_inner=1)
    assert excinfo.value.iterations >= 1


def test_opaque_solve_frozen_at_the_center_is_judged_as_the_center():
    # a prox that never leaves the center freezes the first iteration before
    # an opaque h gives a residual; the iterate is still the center, so the
    # center's own stationarity decides, read through the same stuck prox:
    # 0, stationary to working precision
    prob, _, x0 = gen_diag_quad_l1(4, seed=5)
    stuck = without_subdiff(replace(
        prob, nonsmooth=replace(prob.nonsmooth, prox=lambda v, tau: x0.copy())))
    center = ModelCenter.from_oracle(stuck.smooth, x0, p=2)
    y, cert, _ = solve_subproblem(stuck, center, M=1.0, theta=0.1)
    assert np.array_equal(y, x0) and cert.inner_iters == 1 and cert.residual == 0.0
    assert cert.stalled and cert.resolution == stationarity_resolution(center, 1.0)


def test_opaque_solve_frozen_at_a_nonstationary_center_fails():
    # a prox that always lands far from the center never decreases the
    # model, so the first search halves its step to 2**-60 and the iterate
    # freezes at the center, whose prox residual is far above the resolution
    prob, _, x0 = gen_diag_quad_l1(4, seed=5)
    far = without_subdiff(replace(
        prob, nonsmooth=replace(prob.nonsmooth, prox=lambda v, tau: x0 + 1e3)))
    center = ModelCenter.from_oracle(far.smooth, x0, p=2)
    with pytest.raises(InnerSolveFailure, match="stalled at iteration 1") as excinfo:
        solve_subproblem(far, center, M=1.0, theta=0.1)
    assert excinfo.value.iterations == 1


def test_stalled_p2_solve_returns_before_the_budget(monkeypatch):
    # driven far past stop_stat, the run's last p=2 solves have targets
    # theta*||y - x||^2 below what floats resolve; each must stop once its
    # residual reaches the working-precision resolution (this instance's
    # first such solve used to run to max_inner) and return a point that
    # certifies its model decrease from scratch
    prob, _, x0 = gen_phase_retrieval(8, 32, seed=0, noise_scale=1.0)
    cfg = RunConfig(p=2, stop_stat=1e-9, max_inner=100)
    solves = []

    def recording(problem, center, M, theta, **kwargs):
        out = solve_subproblem(problem, center, M, theta, **kwargs)
        solves.append((center, M, out))
        return out

    monkeypatch.setattr(driver, "solve_subproblem", recording)
    nhota_run(prob, x0, cfg)
    stalled = [(center, M, out) for center, M, out in solves if out[1].stalled]
    assert stalled
    for center, M, (y, cert, witness) in stalled:
        assert cert.inner_iters < cfg.max_inner
        assert cert.residual > cert.threshold + residual_floor(center)
        fresh = certify(prob, center, y, M=M, theta=cfg.theta, witness_p=witness)
        assert fresh.decrease_ok
        assert fresh.residual <= stationarity_resolution(center, M)


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("exact_h", [True, False])
def test_stalled_certificate_carries_the_stall_verdict(exact_h, p):
    # from the closed-form minimizer the solve collapses onto the center,
    # which is stationary to working precision: the certificate is stalled
    # and keeps the resolution the run reports.  (At M = 1e-2 the p = 1
    # step from this minimizer is long enough not to collapse.)
    prob, _, x0 = gen_diag_quad_l1(8, seed=1)
    if not exact_h:
        prob = without_subdiff(prob)
    x_star, _ = prob.known_opt
    M = 1.0
    center = ModelCenter.from_oracle(prob.smooth, x_star, p=p)
    _, cert, _ = solve_subproblem(prob, center, M=M, theta=0.1)
    assert cert.stalled and cert.resolution == stationarity_resolution(center, M)
    start = ModelCenter.from_oracle(prob.smooth, x0, p=p)
    _, cert, _ = solve_subproblem(prob, start, M=M, theta=0.1)
    assert cert.valid and not cert.stalled and cert.resolution is None


def test_stall_verdict_follows_the_center_stationarity(monkeypatch):
    # driven far past stop_stat, this p = 2 run stalls once at a center that
    # is not yet stationary to working precision (the candidate goes to the
    # acceptance test) and once at one that is (the run stops there).  The
    # dense Hessian keeps the run on the proximal-gradient loop
    prob, _, x0 = gen_diag_quad_l1(20, seed=0)
    prob = with_dense_hessian(prob)
    cfg = RunConfig(p=2, stop_stat=1e-12, max_inner=100)
    stalled = []

    def recording(problem, center, M, theta, **kwargs):
        out = solve_subproblem(problem, center, M, theta, **kwargs)
        if out[1].stalled:
            stalled.append((center, M, out[1]))
        return out

    monkeypatch.setattr(driver, "solve_subproblem", recording)
    trace = nhota_run(prob, x0, cfg)
    verdicts = []
    for center, M, cert in stalled:
        resolution = stationarity_resolution(center, M)
        stationary = center_stationarity(prob, center) <= resolution
        assert cert.resolution == (resolution if stationary else None)
        verdicts.append(stationary)
    assert verdicts == [False, True] and trace.resolution == stalled[-1][2].resolution


@pytest.mark.parametrize("make, C, stop_stat", [
    (lambda: gen_diag_quad_l1(50, seed=0), 1e6, 1e-3),
    (lambda: gen_phase_retrieval(8, 32, seed=0, noise_scale=1.0), 1e3, 1e-5),
    (lambda: gen_phase_retrieval(8, 32, seed=0, noise_scale=1.0), 1e7, 1e-5),
    (lambda: gen_phase_retrieval(8, 32, seed=0, noise_scale=1.0), 1e8, 1e-5),
], ids=["diag+1e6", "phase+1e3", "phase+1e7", "phase+1e8"])
def test_large_objective_value_does_not_end_the_run_early(make, C, stop_stat):
    # the working-precision resolution grows with |f(x)|, so a stall rule
    # keyed on it alone ends the last solves, and then the run, at a
    # stationarity far above stop_stat once F carries a large constant.
    # With model values that carried F(x), the inner solve's own rounding
    # test fired at eps*|F(x)|: F + 1e7 ended at the precision floor after
    # 7 rows at 3.4e-3, F + 1e8 after 6 rows at 0.28
    prob, _, x0 = make()
    cfg = RunConfig(p=2, stop_stat=stop_stat)
    plain = nhota_run(prob, x0, cfg)
    lifted = nhota_run(shifted(prob, C), x0, cfg)
    assert len(lifted.rows) == len(plain.rows)
    assert plain.stat_final <= stop_stat
    assert lifted.stat_final <= stop_stat


def with_prox_counter(problem: CompositeProblem) -> tuple[CompositeProblem, list]:
    """Same problem with h.prox wrapped; the list collects one entry per call,
    a float array copy of its tau: 0-d for a scalar, v's shape for the
    per-coordinate thresholds of the closed-form p = 2 step."""
    calls = []
    prox = problem.nonsmooth.prox

    def counted_prox(v, tau):
        calls.append(np.array(tau, dtype=float))
        return prox(v, tau)

    return replace(problem, nonsmooth=replace(problem.nonsmooth, prox=counted_prox)), calls


def test_backtracking_carries_the_step_size_between_iterations():
    # objective x 1e3, so 1/L is far below the first trial step 1: restarting
    # every search at 1 costs about log2(L) prox calls per inner iteration,
    # while a carried step pays that descent once and then at most a few per
    # iteration.  The dense Hessian keeps the solve on the loop
    prob, data, x0 = gen_diag_quad_l1(20, seed=3)
    prob, calls = with_prox_counter(with_dense_hessian(times(prob, data.lam, 1e3)))
    center = ModelCenter.from_oracle(prob.smooth, x0, p=2)
    M, theta = 1e3, 1e-3
    y, cert, witness = solve_subproblem(prob, center, M=M, theta=theta)
    assert cert.valid and not cert.stalled
    assert cert.inner_iters >= 5
    # curvature of the p=2 model along the path: Hessian diag(1e3 * d) plus
    # the regularizer's M * ||y - x||
    L = 1e3 * float(data.d.max()) + M * cert.step_norm
    assert len(calls) <= 3 * cert.inner_iters + math.ceil(math.log2(L)) + 1
    fresh = certify(prob, center, y, M=M, theta=theta)
    assert fresh.valid and fresh.decrease_ok
    assert abs(fresh.residual - cert.residual) <= 1e-12 * max(1.0, cert.residual)
    assert fresh.threshold == cert.threshold and fresh.step_norm == cert.step_norm


def test_carried_step_size_grows_past_one_on_a_flat_model():
    # objective x 1e-3, so 1/L is far above the first trial step 1: the
    # carried step doubles past it.  Capped at 1, this solve took 178
    # iterations.  The dense Hessian keeps the solve on the loop
    prob, data, x0 = gen_diag_quad_l1(20, seed=3)
    prob, calls = with_prox_counter(with_dense_hessian(times(prob, data.lam, 1e-3)))
    center = ModelCenter.from_oracle(prob.smooth, x0, p=2)
    y, cert, witness = solve_subproblem(prob, center, M=1e-3, theta=1e-3)
    assert cert.valid and not cert.stalled
    assert max(calls) > 1.0
    assert cert.inner_iters <= 20


def test_one_hessian_product_per_trial_point():
    # the model's value and gradient come from one H @ d: one product per
    # prox call (one trial point each) and one at the start
    products = []

    class CountingMatrix(np.ndarray):
        def __matmul__(self, other):
            products.append(1)
            return self.view(np.ndarray) @ other

    prob, _, x0 = gen_phase_retrieval(8, 32, seed=0, noise_scale=1.0)
    prob, prox_calls = with_prox_counter(prob)
    center = ModelCenter.from_oracle(prob.smooth, x0, p=2)
    vars(center)["Hx"] = center.Hx.view(CountingMatrix)  # the cached slot
    _, cert, _ = solve_subproblem(prob, center, M=1.0, theta=0.1)
    assert cert.inner_iters > 10 and 0 < len(products) <= len(prox_calls) + 1


def test_one_diagonal_product_per_trial_point():
    # a diagonal Hessian kept as its vector: one elementwise H * d per prox
    # call and one at the start, and no matrix product.
    # An opaque h keeps the solve on the loop with H still a vector
    products = []

    class CountingVector(np.ndarray):
        def __mul__(self, other):
            products.append(1)
            return self.view(np.ndarray) * other

        def __matmul__(self, other):
            raise AssertionError("a diagonal Hessian took a matrix product")

    prob, _, x0 = gen_diag_quad_l1(50, seed=1, d_range=(0.01, 100.0))
    prob, prox_calls = with_prox_counter(without_subdiff(prob))
    center = ModelCenter.from_oracle(prob.smooth, x0, p=2)
    assert center.Hx.shape == (50,)
    vars(center)["Hx"] = center.Hx.view(CountingVector)  # the cached slot
    _, cert, _ = solve_subproblem(prob, center, M=1.0, theta=1e-6)
    assert cert.inner_iters > 10 and 0 < len(products) <= len(prox_calls) + 1


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 200), seed=st.integers(0, 2**16),
       lam=st.one_of(st.just(0.0), st.floats(1e-3, 3.0)), log_M=st.floats(-6.0, 6.0))
def test_closed_form_p2_step_certifies_and_is_no_worse_than_the_loop(n, seed, lam, log_M):
    # a diagonal Hessian as its vector and an exact subdiff_dist select the
    # closed-form step: one prox call per root-finder evaluation, each with
    # the per-coordinate thresholds 1/(H + M r/2).  It re-certifies from
    # scratch, and the subproblem objective at it is at most the dense
    # proximal-gradient loop's, plus rounding
    M, theta = 10.0**log_M, 0.1
    plain, _, x0 = gen_diag_quad_l1(n, seed=seed, lam=lam)
    prob, calls = with_prox_counter(plain)
    center = ModelCenter.from_oracle(prob.smooth, x0, p=2)
    _, cert, witness = solve_subproblem(prob, center, M=M, theta=theta)
    assert witness is None and len(calls) == cert.inner_iters
    assert all(tau.shape == (n,) and np.all(tau <= 1.0 / center.Hx) for tau in calls)
    _, failures = closed_form_against_loop(plain, x0, M, theta)
    assert not failures, failures


def test_closed_form_falls_back_to_the_loop_on_a_nonpositive_curvature():
    # with some H_i <= 0 some a_i = H_i + M r/2 is not positive near r = 0,
    # so the root is not bracketed there and the loop solves the step
    d = np.array([2.0, -1.0, 0.5])
    smooth = SmoothOracle(dim=3, order=2, value=lambda x: 0.5 * float(d @ x**2),
                          grad=lambda x: d * x, hess=lambda x: d)
    prob, calls = with_prox_counter(CompositeProblem(smooth=smooth, nonsmooth=l1_term(0.1)))
    x0 = np.array([1.0, 0.5, -1.0])
    center = ModelCenter.from_oracle(prob.smooth, x0, p=2)
    y, cert, witness = solve_subproblem(prob, center, M=1.0, theta=0.1)
    assert cert.valid and witness is not None
    assert calls and all(tau.shape == () for tau in calls)
    assert certify(prob, center, y, M=1.0, theta=0.1).valid


def test_an_uncertified_closed_form_p2_step_fails_without_the_loop():
    # a subdiff_dist that reports 1.0 everywhere: no step certifies.  The
    # closed form is the only solve for this input, so it raises, and no
    # scalar-tau prox call of the loop follows it
    plain, _, x0 = gen_diag_quad_l1(5, 0)
    plain = replace(plain, nonsmooth=replace(plain.nonsmooth, subdiff_dist=lambda g, x: 1.0),
                    known_opt=None)
    prob, calls = with_prox_counter(plain)
    center = ModelCenter.from_oracle(prob.smooth, x0, p=2)
    with pytest.raises(InnerSolveFailure, match="closed-form prox step not certified"):
        solve_subproblem(prob, center, M=1.0, theta=0.1)
    assert calls and all(tau.shape == (5,) for tau in calls)


@pytest.mark.parametrize("exact_h", [True, False])
@pytest.mark.parametrize("M", [1e-3, 0.1, 1e3])
def test_first_order_step_is_one_prox_call_to_the_exact_minimizer(M, exact_h):
    # p = 1: the minimizer of fx + g.d + M/2 ||d||^2 + lam ||y||_1 is the soft
    # threshold of v = x - g/M at lam/M, whatever M is
    prob, data, x0 = gen_diag_quad_l1(20, seed=3)
    if not exact_h:
        prob = without_subdiff(prob)
    prob, calls = with_prox_counter(prob)
    center = ModelCenter.from_oracle(prob.smooth, x0, p=1)
    theta = 0.1
    y, cert, witness = solve_subproblem(prob, center, M=M, theta=theta)
    assert len(calls) == 1
    v = x0 - center.gx / M
    expected = np.sign(v) * np.maximum(np.abs(v) - data.lam / M, 0.0)
    assert np.linalg.norm(y - expected) <= 1e-12 * np.linalg.norm(expected)
    assert cert.valid and not cert.stalled and cert.inner_iters == 1
    # the step's arithmetic, pinned bit for bit: one prox at x - g/M with
    # threshold 1/M, and the witness M(v - y) only where h is opaque
    assert np.array_equal(y, prob.nonsmooth.prox(v, 1.0 / M))
    assert (witness is None) == exact_h
    if not exact_h:
        assert np.array_equal(witness, M * (v - y))
    fresh = certify(prob, center, y, M=M, theta=theta, witness_p=witness)
    assert fresh.valid and fresh.decrease_ok


def scaled_center(family, exact_h, seed, log_scale, lam, p):
    """An instance scaled by 10**log_scale and a model center at its x0."""
    scale = 10.0**log_scale
    if family == "phase":
        prob, _, x0 = gen_phase_retrieval(8, 32, seed=seed, noise_scale=0.5, lam=lam)
    else:
        prob, _, x0 = gen_diag_quad_l1(20, seed=seed, lam=lam, c_std=2.0 * scale)
    if not exact_h:
        prob = without_subdiff(prob)
    return prob, ModelCenter.from_oracle(prob.smooth, scale * x0, p=p)


instances = dict(
    family=st.sampled_from(["phase", "diag"]),
    exact_h=st.booleans(),
    seed=st.integers(0, 10_000),
    log_scale=st.floats(-3.0, 3.0),
    lam=st.one_of(st.just(0.0), st.floats(1e-6, 10.0)),
    log_M=st.floats(-6.0, 6.0),
)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(**instances)
def test_first_order_step_certifies_across_scales(family, exact_h, seed,
                                                   log_scale, lam, log_M):
    # the closed-form p = 1 step must certify from scratch whatever the
    # instance's scale, l1 weight or M, with exact or witness-only residuals
    M, theta = 10.0**log_M, 0.1
    prob, center = scaled_center(family, exact_h, seed, log_scale, lam, p=1)
    y, cert, witness = solve_subproblem(prob, center, M=M, theta=theta)
    assert not cert.stalled and cert.inner_iters == 1
    fresh = certify(prob, center, y, M=M, theta=theta, witness_p=witness)
    assert fresh.decrease_ok and fresh.valid


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(**instances)
def test_second_order_solve_ends_by_the_stopping_rule(family, exact_h, seed,
                                                       log_scale, lam, log_M):
    # a p = 2 solve ends one of three ways: a failure after at least one
    # iteration, a valid certificate, or a stalled one at or below the
    # working-precision resolution; either certificate re-verifies its
    # model decrease, threshold and step from scratch
    M, theta = 10.0**log_M, 0.1
    prob, center = scaled_center(family, exact_h, seed, log_scale, lam, p=2)
    try:
        y, cert, witness = solve_subproblem(prob, center, M=M, theta=theta)
    except InnerSolveFailure as exc:
        assert exc.iterations >= 1
        return
    if cert.stalled:
        assert cert.residual <= stationarity_resolution(center, M)
    else:
        assert cert.valid
    fresh = certify(prob, center, y, M=M, theta=theta, witness_p=witness)
    assert fresh.decrease_ok
    assert fresh.threshold == cert.threshold and fresh.step_norm == cert.step_norm


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(hessian=st.sampled_from(["vector", "dense", "phase"]), exact_h=st.booleans(),
       p=st.sampled_from([1, 2]), seed=st.integers(0, 10_000), log_M=st.floats(-4.0, 4.0))
def test_certificate_carries_what_a_fresh_evaluation_gives(hessian, exact_h, p, seed, log_M):
    # the driver takes h(y), T_p(y; x) - F(x) and grad T_p(y; x) from the
    # certificate instead of evaluating them again: on every solve path (p = 1,
    # the closed-form p = 2 step, the loop's start or last iterate) they must
    # be exactly what a fresh evaluation at y gives
    if hessian == "phase":
        prob, _, x0 = gen_phase_retrieval(8, 32, seed=seed, noise_scale=0.5)
    else:
        prob, _, x0 = gen_diag_quad_l1(20, seed=seed)
        if hessian == "dense":
            prob = with_dense_hessian(prob)
    if not exact_h:
        prob = without_subdiff(prob)
    M = 10.0**log_M
    center = ModelCenter.from_oracle(prob.smooth, x0, p=p)
    try:
        y, cert, _ = solve_subproblem(prob, center, M=M, theta=0.1)
    except InnerSolveFailure:
        return
    change, grad = _model(center, y, 0.0)[:2]
    assert cert.h_value == prob.nonsmooth.value(y)
    assert cert.taylor_change == change
    assert np.array_equal(cert.taylor_grad, grad)


def test_parameter_validation():
    prob = quadratic_1d(1.0)
    center = ModelCenter.from_oracle(prob.smooth, np.zeros(1), p=2)
    with pytest.raises(ValueError):
        solve_subproblem(prob, center, M=1.0, theta=0.0)
    with pytest.raises(ValueError):
        solve_subproblem(prob, center, M=1.0, theta=0.1, max_inner=0)
    for M in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError):
            solve_subproblem(prob, center, M=M, theta=0.1)
    # a prox callback that returns the wrong shape would broadcast silently
    # against a 3-vector center, and an opaque h has no subdifferential
    # check to trip over it
    diag, _, x0 = gen_diag_quad_l1(3, seed=0)
    diag = without_subdiff(diag)
    short = replace(diag, nonsmooth=replace(diag.nonsmooth, prox=lambda v, tau: v[:1]))
    for p in (1, 2):
        with pytest.raises(ValueError):
            solve_subproblem(short, ModelCenter.from_oracle(diag.smooth, x0, p=p),
                             M=1.0, theta=0.1)
    with pytest.raises(ValueError):
        certify(prob, center, np.zeros(1), M=1.0, theta=-1.0)


def test_center_stationarity_exact_path():
    # h knows its subdifferential: distance is subdiff_dist(gx, x) exactly;
    # g = 1.7 at x = 0.5 > 0, so the distance is |1.7 + 0.3| = 2.0
    prob = replace(quadratic_1d(-1.2), nonsmooth=l1_term(0.3))
    center = ModelCenter.from_oracle(prob.smooth, np.array([0.5]), p=2)
    assert abs(center_stationarity(prob, center) - 2.0) <= 1e-14


def test_center_stationarity_prox_fallback():
    # without subdiff_dist: unit prox-gradient fixed-point residual
    # ||x - prox_h(x - g, 1)||; here prox_l1(0.5 - 1.7, 0.3) = -0.9
    prob = without_subdiff(replace(quadratic_1d(-1.2), nonsmooth=l1_term(0.3)))
    center = ModelCenter.from_oracle(prob.smooth, np.array([0.5]), p=2)
    assert abs(center_stationarity(prob, center) - 1.4) <= 1e-14


def test_resolution_scales_with_center_magnitudes():
    # the documented working-precision formula: sqrt(eps)*(1 + |fx| + ||gx||),
    # which dominates the p = 2 curvature term at this center
    prob, _, x0 = gen_phase_retrieval(5, 20, seed=2, noise_scale=1.0)
    center = ModelCenter.from_oracle(prob.smooth, x0, p=2)
    expected = np.sqrt(np.finfo(float).eps) * (
        1.0 + abs(center.fx) + np.linalg.norm(center.gx)
    )
    assert abs(stationarity_resolution(center, 1.0) - expected) <= 1e-18
    assert residual_floor(center) == 1e-11 * (1.0 + np.linalg.norm(center.gx))
    # at the minimizer of 0.5 * sum d_i (x_i - c_i)^2 with d_1 = 1e6, F and
    # its gradient vanish, so for p = 2 the curvature term
    # sqrt(eps * (1 + |fx|) * max|H|) dominates; the p = 1 model has no
    # Hessian, and at M = 1 its curvature term equals the magnitude formula
    x = np.array([1.0, -2.0, 3.0])
    prob = diag_quad_problem(DiagQuadL1Data(d=np.array([1e6, 2.0, 1.0]), c=x, lam=0.0))
    curved = ModelCenter.from_oracle(prob.smooth, x, p=2)
    assert curved.fx == 0.0 and not np.any(curved.gx)
    eps = np.finfo(float).eps
    assert curved.hess_absmax == 1e6 == np.abs(curved.Hx).max()
    assert stationarity_resolution(curved, 1.0) == np.sqrt(eps * 1e6)
    assert stationarity_resolution(ModelCenter.from_oracle(prob.smooth, x, p=1), 1.0) == np.sqrt(eps)


def test_first_order_resolution_grows_with_M():
    # the p = 1 model's curvature is M: its closed-form residual rounds at
    # about eps * M * ||x||, so the resolution takes sqrt(eps * (1 + |fx|) * M)
    # once that exceeds the magnitude term; the p = 2 resolution ignores M
    prob, _, x0 = gen_phase_retrieval(5, 20, seed=2, noise_scale=1.0)
    eps = np.finfo(float).eps
    first = ModelCenter.from_oracle(prob.smooth, x0, p=1)
    second = ModelCenter.from_oracle(prob.smooth, x0, p=2)
    magnitude_term = stationarity_resolution(first, 1e-2)
    assert magnitude_term == np.sqrt(eps) * (1.0 + abs(first.fx) + np.linalg.norm(first.gx))
    Ms = [1e6, 1e9, 1e12, 1e15]
    grown = [stationarity_resolution(first, M) for M in Ms]
    assert grown == [np.sqrt(eps * (1.0 + abs(first.fx)) * M) for M in Ms]
    assert magnitude_term < grown[0] and all(np.diff(grown) > 0)
    assert {stationarity_resolution(second, M) for M in [1e-2] + Ms} == {
        stationarity_resolution(second, 1.0)}
