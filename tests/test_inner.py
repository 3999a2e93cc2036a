"""Inexact subproblem solver: certified stops, witnesses, and stall handling."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nhota import (
    CompositeProblem,
    InnerSolveFailure,
    ModelCenter,
    RunConfig,
    certify,
    driver,
    gen_diag_quad_l1,
    gen_phase_retrieval,
    l1_term,
    nhota_run,
    solve_subproblem,
)
from nhota.inner import center_stationarity, residual_floor, stationarity_resolution
from nhota.taylor import model_value
from support import quadratic_1d, without_subdiff


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
    prob, data, _ = gen_diag_quad_l1(8, seed=6)
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


def test_opaque_solve_frozen_before_any_residual_fails():
    # a prox that never leaves the center freezes the first iteration; with
    # an opaque h no residual exists yet, so the rule cannot stall there
    prob, _, x0 = gen_diag_quad_l1(4, seed=5)
    stuck = without_subdiff(replace(
        prob, nonsmooth=replace(prob.nonsmooth, prox=lambda v, tau: x0.copy())))
    center = ModelCenter.from_oracle(stuck.smooth, x0, p=2)
    with pytest.raises(InnerSolveFailure, match="residual inf") as excinfo:
        solve_subproblem(stuck, center, M=1.0, theta=0.1)
    assert excinfo.value.iterations == 1


def test_stalled_p2_solve_returns_before_the_budget(monkeypatch):
    # driven far past stop_stat, the run's last p=2 solves have targets
    # theta*||y - x||^2 below what floats resolve; each must stop once its
    # residual reaches the working-precision resolution (this instance's
    # first such solve used to run to max_inner) and return a point that
    # certifies its model decrease from scratch
    prob, _, x0 = gen_phase_retrieval(8, 32, seed=0, noise_scale=1.0)
    cfg = RunConfig(p=2, stop_stat=1e-9, stop_f=-np.inf, max_inner=100)
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
        assert fresh.residual <= stationarity_resolution(center)


def shifted(problem: CompositeProblem, C: float) -> CompositeProblem:
    """Same problem with C added to F: same minimizers, larger |f|."""
    s = problem.smooth
    return replace(problem, smooth=replace(s, value=lambda x: s.value(x) + C),
                   known_opt=None)


@pytest.mark.parametrize("make, C, stop_stat", [
    (lambda: gen_diag_quad_l1(50, seed=0), 1e6, 1e-3),
    (lambda: gen_phase_retrieval(8, 32, seed=0, noise_scale=1.0), 1e3, 1e-5),
], ids=["diag+1e6", "phase+1e3"])
def test_large_objective_value_does_not_end_the_run_early(make, C, stop_stat):
    # the working-precision resolution grows with |f(x)|, so a stall rule
    # keyed on it alone ends the last solves, and then the run, at a
    # stationarity far above stop_stat once F carries a large constant
    prob, _, x0 = make()
    cfg = RunConfig(p=2, stop_stat=stop_stat, stop_f=-np.inf)
    plain = nhota_run(prob, x0, cfg)
    lifted = nhota_run(shifted(prob, C), x0, cfg)
    assert len(lifted.rows) == len(plain.rows)
    assert plain.stat_final <= stop_stat
    assert lifted.stat_final <= stop_stat


def with_prox_counter(problem: CompositeProblem) -> tuple[CompositeProblem, list]:
    """Same problem with h.prox wrapped; the list collects one entry per call."""
    calls = []
    prox = problem.nonsmooth.prox

    def counted_prox(v, tau):
        calls.append(tau)
        return prox(v, tau)

    return replace(problem, nonsmooth=replace(problem.nonsmooth, prox=counted_prox)), calls


def test_backtracking_carries_the_step_size_between_iterations():
    # step_guess far above 1/L: restarting every search at step_guess costs
    # about log2(step_guess * L) prox calls per inner iteration, while a
    # carried step pays that descent once and then at most a few per iteration
    prob, data, x0 = gen_diag_quad_l1(20, seed=3)
    prob, calls = with_prox_counter(prob)
    center = ModelCenter.from_oracle(prob.smooth, x0, p=2)
    M, theta, step_guess = 1.0, 1e-3, 1e3
    y, cert, witness = solve_subproblem(prob, center, M=M, theta=theta,
                                        step_guess=step_guess)
    assert cert.valid and not cert.stalled
    assert cert.inner_iters >= 5
    # curvature of the p=2 model along the path: Hessian diag(d) plus the
    # regularizer's M * ||y - x||
    L = float(data.d.max()) + M * cert.step_norm
    assert len(calls) <= 3 * cert.inner_iters + math.ceil(math.log2(step_guess * L)) + 1
    fresh = certify(prob, center, y, M=M, theta=theta)
    assert fresh.valid and fresh.decrease_ok
    assert abs(fresh.residual - cert.residual) <= 1e-12 * max(1.0, cert.residual)
    assert fresh.threshold == cert.threshold and fresh.step_norm == cert.step_norm


def test_one_hessian_product_per_trial_point():
    # the model's value and gradient come from one H @ d: one product per
    # prox call (one trial point each), one at the start, one for a warm start
    products = []

    class CountingMatrix(np.ndarray):
        def __matmul__(self, other):
            products.append(1)
            return self.view(np.ndarray) @ other

    prob, _, x0 = gen_phase_retrieval(8, 32, seed=0, noise_scale=1.0)
    prob, prox_calls = with_prox_counter(prob)
    center = ModelCenter.from_oracle(prob.smooth, x0, p=2)
    vars(center)["Hx"] = center.Hx.view(CountingMatrix)  # the cached slot
    warm, cert, _ = solve_subproblem(prob, center, M=1.0, theta=0.1)
    assert cert.inner_iters > 10 and 0 < len(products) <= len(prox_calls) + 1
    for start in (warm, warm + 1e3):  # a warm start that is kept, one that is not
        del prox_calls[:], products[:]
        solve_subproblem(prob, center, M=2.0, theta=0.1, warm=start)
        assert 0 < len(products) <= len(prox_calls) + 2


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
        assert cert.residual <= stationarity_resolution(center)
    else:
        assert cert.valid
    fresh = certify(prob, center, y, M=M, theta=theta, witness_p=witness)
    assert fresh.decrease_ok
    assert fresh.threshold == cert.threshold and fresh.step_norm == cert.step_norm


def test_worse_warm_start_is_ignored():
    prob, _, x0 = gen_phase_retrieval(6, 24, seed=1, noise_scale=0.5)
    center = ModelCenter.from_oracle(prob.smooth, x0, p=2)
    plain = solve_subproblem(prob, center, M=5.0, theta=0.1)
    warmed = solve_subproblem(prob, center, M=5.0, theta=0.1,
                              warm=x0 + 1e3)
    assert np.array_equal(plain[0], warmed[0])
    assert plain[1] == warmed[1]


def test_parameter_validation():
    prob = quadratic_1d(1.0)
    center = ModelCenter.from_oracle(prob.smooth, np.zeros(1), p=2)
    with pytest.raises(ValueError):
        solve_subproblem(prob, center, M=1.0, theta=0.0)
    with pytest.raises(ValueError):
        solve_subproblem(prob, center, M=1.0, theta=0.1, step_guess=0.0)
    with pytest.raises(ValueError):
        solve_subproblem(prob, center, M=1.0, theta=0.1, max_inner=0)
    for M in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError):
            solve_subproblem(prob, center, M=M, theta=0.1)
    # a one-entry warm start would broadcast silently against a 3-vector
    # center, and an opaque h has no subdifferential check to trip over it
    diag, _, x0 = gen_diag_quad_l1(3, seed=0)
    diag = without_subdiff(diag)
    center3 = ModelCenter.from_oracle(diag.smooth, x0, p=2)
    with pytest.raises(ValueError):
        solve_subproblem(diag, center3, M=1.0, theta=0.1, warm=np.zeros(1))
    # so would a prox callback that returns the wrong shape
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
    # the documented working-precision formula: sqrt(eps)*(1 + |fx| + ||gx||)
    prob, _, x0 = gen_phase_retrieval(5, 20, seed=2, noise_scale=1.0)
    center = ModelCenter.from_oracle(prob.smooth, x0, p=2)
    expected = np.sqrt(np.finfo(float).eps) * (
        1.0 + abs(center.fx) + np.linalg.norm(center.gx)
    )
    assert abs(stationarity_resolution(center) - expected) <= 1e-18
    assert residual_floor(center) == 1e-11 * (1.0 + np.linalg.norm(center.gx))
