"""Inexact subproblem solver with verifiable stopping certificates.

Each outer step minimizes m(y) = model_value(y; x, M) + h(y) approximately.
A returned point y is acceptable when

  (1) m(y) <= f(x)                                   (model decrease), and
  (2) dist(0, model_grad(y) + dh(y)) <= theta*||y - x||^p   (residual).

For p = 1 the subproblem f(x) + g.(y - x) + M/2 ||y - x||^2 + h(y) is
solved in closed form: its exact minimizer is the single prox step
prox_{h/M}(x - g/M) (Nesterov's composite gradient mapping), and both
conditions are checked on that point in floating point.  For p = 2,
condition (1) holds by construction: the proximal gradient iteration below
starts at y0 = x, where m(x) = f(x) exactly, and never increases m.
Condition (2) is certified either through the exact subdifferential distance
(when h provides one) or through the prox-step witness subgradient.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import CompositeProblem, OracleContractError, Vector
from .taylor import ModelCenter, _model, model_grad, model_value

# A certified candidate this close to the center is a collapsed step.  The
# test is relative, not step_norm == 0: from a minimizer the solve can return
# a point one ulp away from x.
DEGENERATE_STEP_RTOL = 1e-14

# The residual is a difference of near-cancelling O(||grad||) terms, so it
# cannot be computed below roughly eps * ||grad|| no matter how far the inner
# iteration runs.  Near stationarity the geometric target theta*||step||^p
# drops beneath that floor; without the allowance the solver would burn its
# budget and the driver would double M forever on a point that is already
# stationary to working precision.
RESIDUAL_FLOOR_COEFF = 1e-11

_DECREASE_SLACK = 1e-12  # relative slack when re-checking model decrease

_EPS = float(np.finfo(float).eps)
_SQRT_EPS = float(np.sqrt(_EPS))


def residual_floor(center: ModelCenter) -> float:
    """Smallest residual distinguishable from zero at this center's scale."""
    return RESIDUAL_FLOOR_COEFF * (1.0 + float(np.linalg.norm(center.gx)))


def stationarity_resolution(center: ModelCenter) -> float:
    """Smallest stationarity residual double precision can resolve here.

    Model-value differences round at eps * |m|, so an iterate cannot be
    placed more accurately than within a sqrt(eps * |m| / curvature)-sized
    set around the model minimizer; the curvature turns that placement
    uncertainty back into a residual of order sqrt(eps) at the problem's own
    scale.  An inner solve stalled at or below this residual has located the
    minimizer as precisely as the arithmetic allows.
    """
    scale = 1.0 + abs(center.fx) + float(np.linalg.norm(center.gx))
    return _SQRT_EPS * scale


def _prox(problem: CompositeProblem, v: Vector, tau: float) -> Vector:
    """h.prox(v, tau) as a float array, checked to have v's shape: the model
    kernel does no validation and would broadcast any other shape."""
    y = np.asarray(problem.nonsmooth.prox(v, tau), dtype=float)
    if y.shape != v.shape:
        raise OracleContractError(f"prox returned shape {y.shape} for a {v.shape} input")
    return y


def center_stationarity(problem: CompositeProblem, center: ModelCenter) -> float:
    """Stationarity residual of the center itself: dist(0, grad F(x) + dh(x)).

    At y = x the regularization gradient vanishes, so the model gradient is
    exactly grad F(x) and the subdifferential distance (when h provides one)
    is the true composite residual.  Otherwise the unit prox-gradient
    fixed-point residual ||x - prox_h(x - grad F(x))|| stands in: it is zero
    exactly at stationary points and continuous in x.

    ``center_is_stationary`` compares this against the working-precision
    resolution to decide whether a stalled inner solve means the *center* is
    stationary (stop) or merely that the model minimizer has been pinned
    down as far as floats allow (treat the candidate as an ordinary step and
    let the acceptance test decide).
    """
    h = problem.nonsmooth
    if h.subdiff_dist is not None:
        return float(h.subdiff_dist(center.gx, center.x))
    z = _prox(problem, center.x - center.gx, 1.0)
    return float(np.linalg.norm(center.x - z))


def center_is_stationary(problem: CompositeProblem, center: ModelCenter) -> bool:
    """Whether the center is stationary to working precision.

    The driver asks this of every ``stalled`` certificate: if so it stops at
    the center; otherwise the candidate goes through the acceptance test.
    """
    return center_stationarity(problem, center) <= stationarity_resolution(center)


class InnerSolveFailure(RuntimeError):
    """No certificate was reached: the iteration budget ran out, or the
    solve stalled with a residual above working precision."""

    def __init__(self, message: str, iterations: int = 0):
        super().__init__(message)
        self.iterations = iterations


@dataclass(frozen=True)
class StepCertificate:
    """Facts certifying one inexact subproblem solve.

    ``residual`` is dist(0, model_grad(y) + dh(y)) (or the witness upper
    bound on it), ``threshold`` is theta*||y - x||^p, and ``step_norm`` is
    ||y - x||.  The certificate is valid when the model decreased and the
    residual clears the threshold.

    ``stalled`` marks a solve that ended because floating point ran out of
    room rather than because the threshold was met: the iteration could make
    no further float-visible progress with the residual at or below the
    working-precision resolution, or a certified step collapsed onto the
    center (its length at most ``DEGENERATE_STEP_RTOL * (1 + ||x||)``,
    whatever its residual).  Such a candidate is the model minimizer to
    working precision, but its residual may sit far above
    theta*||y - x||^p, so the caller must not treat the threshold as
    certified; ``center_is_stationary`` decides whether to stop there.
    """

    decrease_ok: bool
    residual: float
    threshold: float
    step_norm: float
    inner_iters: int
    stalled: bool = False

    @property
    def valid(self) -> bool:
        return self.decrease_ok and self.residual <= self.threshold


def _residual(problem: CompositeProblem, g_reg: Vector, y: Vector,
              witness: Optional[Vector]) -> float:
    """dist(0, g_reg + dh(y)): exact when h knows its subdifferential,
    otherwise the upper bound ||g_reg + witness|| from a prox witness."""
    h = problem.nonsmooth
    if h.subdiff_dist is not None:
        return float(h.subdiff_dist(g_reg, y))
    if witness is None:
        raise ValueError("h has no subdiff_dist and no witness was supplied")
    return float(np.linalg.norm(g_reg + witness))


def _finish(center: ModelCenter, y: Vector, res: float, thr: float,
            step_norm: float, iters: int, witness: Optional[Vector],
            decrease_ok: bool = True):
    """The inner solver's one stopping rule: (y, certificate, witness), or None.

    Every solve ends here, for either p: the p = 1 closed-form step, a start
    point that is already certified, a p = 2 iterate whose residual cleared
    its target or whose step moved m by no more than its rounding
    (eps * |m|), an iterate that no step size moves, and a spent budget.
    Given y's residual ``res`` and target ``thr`` = theta*||y - x||^p:

    * **certified** when the model decreased and ``res`` is at most ``thr``
      plus ``residual_floor(center)`` (the residual is computed from
      near-cancelling O(||grad||) terms and cannot resolve below that
      scale).  The certificate is marked ``stalled`` when the step has
      collapsed onto the center (``step_norm`` at most
      ``DEGENERATE_STEP_RTOL * (1 + ||x||)``), so the driver asks whether
      the center is stationary rather than looping on zero-length steps;
    * **stalled** otherwise, when ``res`` is at most
      ``stationarity_resolution(center)``: floats have run out, and y is the
      model minimizer located as precisely as double precision allows, but
      its residual may sit far above ``thr`` (the inner stopping rule of
      ARC, Cartis, Gould & Toint 2011, met at the precision floor);
    * **None** in every other case.

    Callers that may not continue treat None as a failure
    (``_finish_or_raise``).
    """
    if decrease_ok and res <= thr + residual_floor(center):
        collapsed = step_norm <= DEGENERATE_STEP_RTOL * (1.0 + float(np.linalg.norm(center.x)))
        return y, StepCertificate(True, res, thr, step_norm, iters, stalled=collapsed), witness
    if res <= stationarity_resolution(center):
        return y, StepCertificate(decrease_ok, res, thr, step_norm, iters, stalled=True), witness
    return None


def _finish_or_raise(center: ModelCenter, y: Vector, res: float, thr: float,
                     step_norm: float, iters: int, witness: Optional[Vector],
                     why: str, decrease_ok: bool = True):
    """``_finish``'s result, or ``InnerSolveFailure`` where it gives None; the
    driver responds to that by doubling M."""
    out = _finish(center, y, res, thr, step_norm, iters, witness, decrease_ok)
    if out is not None:
        return out
    raise InnerSolveFailure(
        f"{why}: residual {res:.3e} above the working-precision resolution "
        f"{stationarity_resolution(center):.3e} (threshold {thr:.3e})", iterations=iters,
    )


def _solve_first_order(problem: CompositeProblem, center: ModelCenter,
                       M: float, theta: float):
    """The p = 1 subproblem in closed form: y = prox_{h/M}(x - g/M).

    The prox optimality condition puts the witness M(x - y) - g in dh(y),
    so the model gradient g + M(y - x) plus the witness is zero up to
    roundoff.  Both certificate conditions are still tested in floating
    point, through the same stopping rule (``_finish``) as the p = 2
    iteration.
    """
    h = problem.nonsmooth
    x, g = center.x, center.gx
    y = _prox(problem, x - g / M, 1.0 / M)
    witness = M * (x - y) - g
    m_smooth, g_reg = _model(center, y, M)
    res = _residual(problem, g_reg, y, witness)
    step_norm = float(np.linalg.norm(y - x))
    thr = theta * step_norm
    decrease_ok = m_smooth + float(h.value(y)) <= center.fx + float(h.value(x))
    return _finish_or_raise(center, y, res, thr, step_norm, 1, witness,
                            "closed-form prox step not certified",
                            decrease_ok=decrease_ok)


def solve_subproblem(
    problem: CompositeProblem,
    center: ModelCenter,
    M: float,
    theta: float,
    max_inner: int = 500,
    step_guess: float = 1.0,
    warm: Optional[Vector] = None,
) -> tuple[Vector, StepCertificate, Optional[Vector]]:
    """Certified approximate minimizer of the regularized model plus h.

    For p = 1 the minimizer is exact and takes one prox call: y =
    prox_{h/M}(x - g/M), certified with the witness M(x - y) - g and the
    same threshold and model-decrease tests as below; the certificate
    reports one inner iteration.  It does not depend on a start point or a
    step size, so ``max_inner``, ``step_guess`` and ``warm`` are validated
    but not used.

    For p = 2, proximal gradient on the regularized model until certified.
    Starts at y0 = x (or at ``warm`` if m(warm) <= f(x), so the decrease
    guarantee is preserved).  Each iteration backtracks the step size by
    halving until the standard sufficient-decrease test holds and m does not
    increase, takes the prox step, and keeps the witness subgradient
    p = (y_t - y_{t+1})/alpha - model_grad(y_t), which lies in dh(y_{t+1})
    by the prox optimality condition.  The first search starts at
    ``step_guess``; each later one is warm-started at
    min(step_guess, 2 * alpha_prev), where alpha_prev is the step accepted
    on the previous iteration, so a step size near 1/L is found once per
    call rather than re-searched from ``step_guess`` every iteration (the
    carried step of Nesterov's composite gradient method and of FISTA's
    backtracking).  The doubling lets the step grow back where the model is
    flatter.

    Every solve, for either p, ends through one stopping rule, ``_finish``.
    The p = 2 iteration asks it once the residual clears its target plus
    the floor, or once a step changes the model value by no more than its
    rounding (eps * |m|): near the model minimizer theta*||y - x||^p can drop
    below what double precision resolves, and the resolution grows with
    |f(x)| while the model decrease does not, so it is the rounding test
    that ties a stop below the target to the floats.  An iterate that stops
    moving (no step size gives a float-visible decrease) and a spent budget
    ask it too, and there a None from the rule raises
    ``InnerSolveFailure``; the driver responds by doubling M.  A certificate
    marked ``stalled`` leaves the decision to the driver: stop if the center
    itself is stationary to working precision (``center_is_stationary``),
    otherwise put the candidate through the ordinary acceptance test.

    Returns (y, certificate, witness); witness is None when the certificate
    came from the exact subdifferential distance at y = y0.
    """
    if not theta > 0:
        raise ValueError(f"theta must be positive, got {theta}")
    if not step_guess > 0:
        raise ValueError(f"step_guess must be positive, got {step_guess}")
    if max_inner < 1:
        raise ValueError(f"max_inner must be at least 1, got {max_inner}")
    if not M > 0:
        raise ValueError(f"M must be positive, got {M}")
    if warm is not None:
        warm = np.asarray(warm, dtype=float)
        if warm.shape != center.x.shape:
            raise ValueError(f"warm shape {warm.shape} != center shape {center.x.shape}")
    p = center.p
    if p == 1:
        return _solve_first_order(problem, center, M, theta)
    h = problem.nonsmooth
    x = center.x
    f_center = center.fx + float(h.value(x))

    y, m_smooth, m_total = x.copy(), center.fx, f_center  # the model is fx at x
    g_reg = None
    if warm is not None:
        ms, g_warm = _model(center, warm, M)
        mt = ms + float(h.value(warm))
        if np.isfinite(mt) and mt <= f_center:
            y, m_smooth, m_total, g_reg = warm.copy(), ms, mt, g_warm
    if g_reg is None:
        g_reg = _model(center, y, M)[1]
    floor = residual_floor(center)

    # res, thr, step_norm and witness always describe the current iterate y;
    # with an opaque h no residual exists until the first prox step, so res
    # starts at inf and a solve that freezes before one fails.
    step_norm = float(np.linalg.norm(y - x))
    thr = theta * step_norm**p
    witness: Optional[Vector] = None
    res = _residual(problem, g_reg, y, None) if h.subdiff_dist is not None else np.inf
    # The start point may already be certified (e.g. a stationary center,
    # or a warm start that survived an M increase).
    if res <= thr + floor:
        return _finish(center, y, res, thr, step_norm, 0, None)

    alpha = step_guess
    for t in range(1, max_inner + 1):
        alpha = min(step_guess, 2.0 * alpha)
        frozen = False
        while True:
            y_new = _prox(problem, y - alpha * g_reg, alpha)
            d = y_new - y
            ms_new, g_new = _model(center, y_new, M)
            if ms_new <= m_smooth + float(g_reg @ d) + float(d @ d) / (2.0 * alpha):
                mt_new = ms_new + float(h.value(y_new))
                if mt_new <= m_total:
                    break
            alpha *= 0.5
            if alpha < step_guess * 2.0**-60:
                frozen = True  # no step size gives a float-visible decrease
                break
        if not frozen:
            frozen = bool(np.array_equal(y_new, y))
        if frozen:
            return _finish_or_raise(center, y, res, thr, step_norm, t, witness,
                                    f"inner iterate stalled at iteration {t}")
        witness = (y - y_new) / alpha - g_reg
        drop = m_total - mt_new
        y, m_smooth, m_total, g_reg = y_new, ms_new, mt_new, g_new
        step_norm = float(np.linalg.norm(y - x))
        res = _residual(problem, g_reg, y, witness)
        thr = theta * step_norm**p
        # certified, or a step that moved m by no more than its rounding:
        # floats have run out
        if res <= thr + floor or drop <= _EPS * abs(m_total):
            out = _finish(center, y, res, thr, step_norm, t, witness)
            if out is not None:
                return out

    return _finish_or_raise(center, y, res, thr, step_norm, max_inner, witness,
                            f"no certificate within {max_inner} inner iterations")


def certify(
    problem: CompositeProblem,
    center: ModelCenter,
    y: Vector,
    M: float,
    theta: float,
    witness_p: Optional[Vector] = None,
) -> StepCertificate:
    """Recompute a certificate for y from scratch (no trust in solver state).

    Uses the exact subdifferential distance when h provides one; otherwise
    ``witness_p`` must be the prox-step witness subgradient at y.
    """
    if not theta > 0:
        raise ValueError(f"theta must be positive, got {theta}")
    y = np.asarray(y, dtype=float)
    h = problem.nonsmooth
    f_center = center.fx + float(h.value(center.x))
    m_total = model_value(center, y, M) + float(h.value(y))
    decrease_ok = m_total <= f_center + _DECREASE_SLACK * max(1.0, abs(f_center))
    g_reg = model_grad(center, y, M)
    res = _residual(problem, g_reg, y, witness_p)
    step_norm = float(np.linalg.norm(y - center.x))
    return StepCertificate(
        decrease_ok=decrease_ok,
        residual=res,
        threshold=theta * step_norm**center.p,
        step_norm=step_norm,
        inner_iters=0,
    )
