"""Stationarity, rate fitting, decay classification, and the remainder audit."""

import numpy as np
import pytest

from nhota import (
    CapabilityError,
    CompositeProblem,
    NonsmoothTerm,
    RunConfig,
    SmoothOracle,
    gen_diag_quad_l1,
    gen_phase_retrieval,
    kl_probe,
    l1_term,
    min_prefix,
    nhota_run,
    rate_fit,
    remainder_check,
    stationarity,
    subdiff_dist_l1,
)
from nhota.checks import fd_errors
from nhota.taylor import ModelCenter
from support import quartic_1d, with_dense_hessian


# ------------------------------------------------------------- stationarity


def test_stationarity_is_exact_subdiff_distance():
    prob, data, _ = gen_phase_retrieval(6, 24, seed=0, noise_scale=1.0)
    rng = np.random.default_rng(40)
    for _ in range(10):
        x = rng.normal(size=6)
        g = prob.smooth.grad(x)
        assert stationarity(prob, x) == subdiff_dist_l1(g, x, data.lam)


def test_stationarity_zero_weight_is_gradient_norm():
    prob = quartic_1d()
    x = np.array([0.5])
    assert abs(stationarity(prob, x) - 0.5) <= 1e-15  # |4 * 0.125|


def test_stationarity_requires_exact_subdifferential():
    prob = quartic_1d()
    opaque = CompositeProblem(
        smooth=prob.smooth,
        nonsmooth=NonsmoothTerm(value=lambda x: 0.0,
                                prox=lambda v, tau: np.asarray(v)),
    )
    with pytest.raises(CapabilityError):
        stationarity(opaque, np.array([0.5]))


def test_min_prefix():
    out = min_prefix([3.0, 1.0, 2.0, 0.5])
    assert np.array_equal(out, np.array([3.0, 1.0, 1.0, 0.5]))


# ----------------------------------------------------------------- rate_fit


def test_rate_fit_constant_series_has_zero_slope():
    fit = rate_fit(np.full(20, 7.5))
    assert abs(fit.slope) <= 1e-12
    assert fit.r2 == 1.0


def test_rate_fit_matches_independent_least_squares():
    rng = np.random.default_rng(41)
    series = np.exp(rng.normal(0.0, 0.2, size=40)) * np.arange(1, 41) ** -1.3
    series = np.concatenate([[1.0], series])
    fit = rate_fit(series, window=(1, 41))
    kk = np.arange(1, 41, dtype=float)
    design = np.column_stack([np.log(kk), np.ones_like(kk)])
    coef, *_ = np.linalg.lstsq(design, np.log(series[1:41]), rcond=None)
    assert abs(fit.slope - coef[0]) <= 1e-10
    assert abs(fit.intercept - coef[1]) <= 1e-10


def test_rate_fit_validation():
    good = 1.0 / np.arange(1, 20, dtype=float)
    with pytest.raises(ValueError):
        rate_fit(good, window=(0, 10))  # k = 0 has no log
    with pytest.raises(ValueError):
        rate_fit(good, window=(1, 5))  # only 4 points
    with pytest.raises(ValueError):
        rate_fit(good, window=(1, 50))  # beyond the series
    with pytest.raises(ValueError):
        rate_fit(np.zeros(30))  # not strictly positive


# ----------------------------------------------------------------- kl_probe


def test_kl_probe_short_series_is_inconclusive():
    probe = kl_probe(np.array([8.0, 4.0, 2.0, 1.0]), f_star=0.0)
    assert probe.kind == "inconclusive"


@pytest.mark.parametrize("level", [0.3, 0.5, 1.0])
def test_kl_probe_flat_series_is_inconclusive(level):
    # a plateau does not decay; the roundoff in mean(log level) must not
    # turn it into a geometric fit
    probe = kl_probe(np.full(201, level), f_star=0.0)
    assert probe.kind == "inconclusive"


def test_kl_probe_stops_at_the_positive_floor():
    # decay that lands exactly on f_star: the window must exclude the zeros
    series = np.concatenate([2.0 ** -np.arange(0, 30, dtype=float), np.zeros(5)])
    probe = kl_probe(series, f_star=0.0)
    assert probe.kind == "linear"
    assert probe.window[1] <= 30


def test_kl_probe_accepts_full_traces():
    prob, data, x0 = gen_diag_quad_l1(20, seed=2)
    cfg = RunConfig(p=1, u=0.5, max_outer=200, stop_f=-np.inf, stop_stat=0.0)
    trace = nhota_run(prob, x0, cfg)
    probe = kl_probe(trace, f_star=prob.known_opt[1])
    assert probe.kind == "linear"
    assert 0.0 < probe.rho < 1.0


# ----------------------------------------------------------- remainder_check


def test_remainder_quartic_1d_second_order():
    # F = t^4 on |t| <= 1: the bound holds with L_hat <= sup|F'''| = 24
    prob = quartic_1d()
    report = remainder_check(prob, np.zeros(1), radius=1.0, samples=200, p=2)
    assert report.passed
    assert 0.0 < report.L_hat <= 24.0 + 1e-9


def test_remainder_flags_a_lying_hessian():
    # value/grad of kappa/2 t^2 but hess reports half the curvature: the
    # second-order Taylor model misses by kappa/4 t^2 and no third-derivative
    # estimate can cover it
    kappa = 4.0
    smooth = SmoothOracle(
        dim=1,
        order=2,
        value=lambda x: 0.5 * kappa * float(x[0] ** 2),
        grad=lambda x: np.array([kappa * x[0]]),
        hess=lambda x: np.array([[0.5 * kappa]]),
    )
    prob = CompositeProblem(smooth=smooth, nonsmooth=l1_term(0.0))
    report = remainder_check(prob, np.zeros(1), radius=1.0, samples=100, p=2)
    assert not report.passed
    assert report.margin < 0.0


def test_remainder_is_deterministic_per_seed():
    prob, _, x0 = gen_phase_retrieval(6, 24, seed=5, noise_scale=0.5)
    a = remainder_check(prob, x0, radius=0.5, samples=60, pairs=40, seed=9)
    b = remainder_check(prob, x0, radius=0.5, samples=60, pairs=40, seed=9)
    assert (a.margin, a.grad_margin, a.L_hat) == (b.margin, b.grad_margin, b.L_hat)


def test_remainder_one_hessian_product_per_sample(monkeypatch):
    # T_2 and its gradient at each sample come from one H @ d
    products = []

    class CountingMatrix(np.ndarray):
        def __matmul__(self, other):
            products.append(1)
            return self.view(np.ndarray) @ other

    from_oracle = ModelCenter.from_oracle

    def counting_center(oracle, x, p):
        center = from_oracle(oracle, x, p)
        vars(center)["Hx"] = center.Hx.view(CountingMatrix)  # the cached slot
        return center

    monkeypatch.setattr(ModelCenter, "from_oracle", counting_center)
    prob, _, x0 = gen_phase_retrieval(8, 40, seed=7, noise_scale=1.0)
    remainder_check(prob, x0, radius=1.0, samples=60, p=2, pairs=60)
    assert len(products) == 60


def test_dense_readers_give_the_same_numbers_for_a_diagonal_as_a_vector():
    # fd_errors and remainder_check read the Hessian as a matrix; a diagonal
    # given as its vector must read exactly as np.diag of it
    prob, _, x0 = gen_diag_quad_l1(6, seed=2)
    dense = with_dense_hessian(prob)
    H = prob.smooth.hess(x0)
    assert H.shape == (6,) and not H.flags.writeable  # the problem's d, read-only
    assert dense.smooth.hess(x0).shape == (6, 6)
    points = [x0, x0 + 0.5, -x0]
    assert fd_errors(prob, points) == fd_errors(dense, points)
    a = remainder_check(prob, x0, radius=1.0, samples=60, pairs=40, seed=3)
    assert a == remainder_check(dense, x0, radius=1.0, samples=60, pairs=40, seed=3)


def test_remainder_validation():
    prob = quartic_1d()
    with pytest.raises(ValueError):
        remainder_check(prob, np.zeros(1), radius=1.0, samples=10)
    with pytest.raises(ValueError):
        remainder_check(prob, np.zeros(1), radius=0.0)
    with pytest.raises(ValueError):
        remainder_check(prob, np.zeros(1), radius=1.0, p=3)
