"""Run diagnostics: stationarity, empirical rates, decay shape, remainder audit."""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial
from typing import Optional, Union

import numpy as np

from .core import CapabilityError, CompositeProblem, Vector, as_vector, dense_hessian
from .driver import IterateTrace
from .taylor import ModelCenter, _model


def stationarity(problem: CompositeProblem, x: Vector) -> float:
    """dist(0, grad F(x) + dh(x)); requires h to provide subdiff_dist."""
    if problem.nonsmooth.subdiff_dist is None:
        raise CapabilityError(
            "nonsmooth term provides no subdifferential distance; "
            "only certificate-implied bounds are available for this h"
        )
    x = as_vector(x, dim=problem.dim)
    g = np.asarray(problem.smooth.grad(x), dtype=float)
    return float(problem.nonsmooth.subdiff_dist(g, x))


def min_prefix(series) -> np.ndarray:
    """Running minimum min_{i<=k} s_i; nonincreasing by construction."""
    return np.minimum.accumulate(np.asarray(series, dtype=float))


@dataclass(frozen=True)
class RateFit:
    """Least-squares fit of log(series_k) against log(k) on a window."""

    slope: float
    intercept: float
    r2: float
    window: tuple[int, int]


# A target whose root-mean-square spread about its mean is below this
# fraction of its largest magnitude is constant: the mean of identical logs
# is not exact in floating point, and r^2 measured against that roundoff is
# arbitrary.
_FLAT_RTOL = 1e-12


def _r2(target: np.ndarray, pred: np.ndarray) -> float:
    """Coefficient of determination of pred for target; 1.0 for a constant target."""
    dev = target - np.mean(target)
    total_ss = float(dev @ dev)
    if total_ss <= target.size * (_FLAT_RTOL * float(np.max(np.abs(target)))) ** 2:
        return 1.0  # constant target, fit is exact
    return 1.0 - float(np.sum((target - pred) ** 2)) / total_ss


def _loglog_fit(kk: np.ndarray, vals: np.ndarray) -> tuple[float, float, float]:
    lx, ly = np.log(kk), np.log(vals)
    slope, intercept = np.polyfit(lx, ly, 1)
    return float(slope), float(intercept), _r2(ly, slope * lx + intercept)


def rate_fit(series, window: Optional[tuple[int, int]] = None) -> RateFit:
    """Fit series_k ~ C * k^slope by least squares in log-log space.

    ``window`` is a half-open index range (start, stop) into the series with
    start >= 1 (k = 0 has no log); the default skips the first 3 iterations
    as transient.  The window must hold at least 5 points, and the series
    must be strictly positive on it.
    """
    s = np.asarray(series, dtype=float)
    if window is None:
        window = (3, len(s))
    start, stop = window
    if start < 1:
        raise ValueError(f"window must start at k >= 1, got {start}")
    if stop > len(s):
        raise ValueError(f"window end {stop} exceeds series length {len(s)}")
    if stop - start < 5:
        raise ValueError(f"window must hold at least 5 points, got {stop - start}")
    vals = s[start:stop]
    if np.any(vals <= 0) or not np.all(np.isfinite(vals)):
        raise ValueError("series must be strictly positive and finite on the window")
    kk = np.arange(start, stop, dtype=float)
    slope, intercept, r2 = _loglog_fit(kk, vals)
    return RateFit(slope=slope, intercept=intercept, r2=r2, window=(start, stop))


@dataclass(frozen=True)
class DecayClassification:
    """Outcome of probing whether f - f* decays geometrically or like a power.

    ``kind`` is "linear" (geometric, delta_k ~ rho^k), "sublinear"
    (delta_k ~ k^-beta) or "inconclusive" (window too short, or the two
    fits within 0.02 of each other in r^2).
    """

    kind: str
    rho: Optional[float]
    beta: Optional[float]
    r2_linear: float
    r2_power: float
    window: tuple[int, int]


# |r2_lin - r2_pow| below this is too close to call.
_INCONCLUSIVE_BAND = 0.02
_MIN_PROBE_WINDOW = 5

# Relative float allowance for remainder-bound comparisons; see remainder_check.
_EVAL_ATOL = 1e-12


def kl_probe(
    trace: Union[IterateTrace, np.ndarray, list],
    f_star: float,
    positive_floor: Optional[float] = None,
) -> DecayClassification:
    """Classify the decay shape of delta_k = f(x_k) - f_star.

    Accepts a full trace or a raw objective series.  Fits a geometric model
    (log delta vs k) and a power model (log delta vs log k) on the common
    window k = 1 .. K, where K is the end of the longest prefix with
    delta_k above a floor that screens out float-noise near f_star.
    Reports whichever fit explains more variance, or "inconclusive" when
    the window is shorter than 5 points or the fits are within 0.02 of
    each other.
    """
    f_vals = trace.f_values() if isinstance(trace, IterateTrace) else np.asarray(trace, dtype=float)
    delta = f_vals - f_star
    if positive_floor is None:
        positive_floor = 1e-13 * max(1.0, abs(f_star))
    stop = 0
    while stop < len(delta) and np.isfinite(delta[stop]) and delta[stop] > positive_floor:
        stop += 1
    window = (1, stop)
    if stop - 1 < _MIN_PROBE_WINDOW:
        return DecayClassification("inconclusive", None, None, np.nan, np.nan, window)

    kk = np.arange(1, stop, dtype=float)
    ld = np.log(delta[1:stop])

    slope_lin, icept_lin = np.polyfit(kk, ld, 1)
    r2_lin = _r2(ld, slope_lin * kk + icept_lin)

    slope_pow, _, r2_pow = _loglog_fit(kk, delta[1:stop])

    if abs(r2_lin - r2_pow) < _INCONCLUSIVE_BAND:
        return DecayClassification("inconclusive", None, None, r2_lin, r2_pow, window)
    if r2_lin > r2_pow:
        return DecayClassification("linear", float(np.exp(slope_lin)), None, r2_lin, r2_pow, window)
    return DecayClassification("sublinear", None, -slope_pow, r2_lin, r2_pow, window)


@dataclass(frozen=True)
class RemainderReport:
    """Worst-case audit of the Taylor remainder bound on a sampled ball.

    ``margin`` is min over samples of (bound - |F(y) - T_p(y;x)|) with the
    bound 1.05 * L_hat/(p+1)! * ||y - x||^(p+1); ``grad_margin`` is the
    analogous minimum for the gradient bound 1.05 * L_hat/p! * ||y - x||^p.
    ``passed`` reflects the value bound.  Each comparison carries a relative
    float allowance (1e-12 at the evaluation's own scale): an exact-fit case
    such as a quadratic under p = 2 has bound identically 0, and the
    evaluated remainder is then pure roundoff.
    """

    passed: bool
    margin: float
    grad_margin: float
    L_hat: float


def _sample_ball(rng: np.random.Generator, center: np.ndarray, radius: float) -> np.ndarray:
    n = center.shape[0]
    direction = rng.normal(size=n)
    direction /= np.linalg.norm(direction)
    r = radius * rng.uniform() ** (1.0 / n)
    return center + r * direction


def _deriv_quotient(problem: CompositeProblem, u: np.ndarray, v: np.ndarray, p: int) -> float:
    gap = float(np.linalg.norm(u - v))
    if gap == 0.0:
        return 0.0
    if p == 1:
        diff = np.asarray(problem.smooth.grad(u), float) - np.asarray(problem.smooth.grad(v), float)
        return float(np.linalg.norm(diff)) / gap
    diff = dense_hessian(problem.smooth.hess(u)) - dense_hessian(problem.smooth.hess(v))
    return float(np.max(np.abs(np.linalg.eigvalsh(0.5 * (diff + diff.T))))) / gap


def remainder_check(
    problem: CompositeProblem,
    x: Vector,
    radius: float,
    samples: int = 500,
    p: int = 2,
    pairs: int = 200,
    seed: int = 0,
) -> RemainderReport:
    """Audit the p-th order Taylor remainder bound around x.

    Estimates L_hat as the largest difference quotient of the p-th
    derivative over ``pairs`` sampled pairs in the ball of the given radius,
    then checks |F(y) - T_p(y; xs)| <= 1.05 * L_hat/(p+1)! * ||y - xs||^(p+1)
    (and the matching gradient bound) on ``samples`` fresh (xs, y) pairs
    from the same ball.  Returns the worst-case margins; negative margin
    means the bound failed somewhere.
    """
    if samples < 50:
        raise ValueError(f"samples must be >= 50, got {samples}")
    if not radius > 0:
        raise ValueError(f"radius must be positive, got {radius}")
    if p not in (1, 2):
        raise ValueError(f"p must be 1 or 2, got {p}")
    x = as_vector(x, dim=problem.dim)
    rng = np.random.default_rng(seed)

    L_hat = 0.0
    for _ in range(pairs):
        u = _sample_ball(rng, x, radius)
        v = _sample_ball(rng, x, radius)
        L_hat = max(L_hat, _deriv_quotient(problem, u, v, p))

    coeff_val = 1.05 * L_hat / factorial(p + 1)
    coeff_grad = 1.05 * L_hat / factorial(p)
    margin = np.inf
    grad_margin = np.inf
    for _ in range(samples):
        xs = _sample_ball(rng, x, radius)
        ys = _sample_ball(rng, x, radius)
        center = ModelCenter.from_oracle(problem.smooth, xs, p)
        gap = float(np.linalg.norm(ys - xs))
        dt_ys, tg_ys = _model(center, ys, 0.0)[3:]  # T_p(ys) - F(xs) and its gradient
        f_ys = float(problem.smooth.value(ys))
        lhs = abs((f_ys - center.fx) - dt_ys)
        atol = _EVAL_ATOL * max(1.0, abs(f_ys))
        margin = min(margin, coeff_val * gap ** (p + 1) + atol - lhs)
        g_ys = np.asarray(problem.smooth.grad(ys), float)
        g_lhs = float(np.linalg.norm(g_ys - tg_ys))
        g_atol = _EVAL_ATOL * max(1.0, float(np.linalg.norm(g_ys)))
        grad_margin = min(grad_margin, coeff_grad * gap**p + g_atol - g_lhs)

    return RemainderReport(
        passed=bool(margin >= 0.0),
        margin=float(margin),
        grad_margin=float(grad_margin),
        L_hat=float(L_hat),
    )
