"""Inexact subproblem solver with verifiable stopping certificates.

Each outer step minimizes m(y) = model_value(y; x, M) + h(y) approximately.
A returned point y is acceptable when

  (1) m(y) <= f(x)                                   (model decrease), and
  (2) dist(0, model_grad(y) + dh(y)) <= theta*||y - x||^p   (residual).

For p = 1 the subproblem f(x) + g.(y - x) + M/2 ||y - x||^2 + h(y) is
solved in closed form: its exact minimizer is the single prox step
prox_{h/M}(x - g/M) (Nesterov's composite gradient mapping), and both
conditions are checked on that point in floating point.  For p = 2 with a
diagonal Hessian H > 0 (kept as its vector) and an h that reports exact
subdifferential distances, the subproblem is solved in closed form too: the
minimizer is a per-coordinate prox step at the single root r of the
secular equation ||y(r) - x|| = r of cubic regularization (Nesterov &
Polyak 2006; Cartis, Gould & Toint 2011), found by a 1-D root finder.
Every other p = 2 subproblem goes to a proximal gradient iteration, where
condition (1) holds by construction: it starts at y0 = x, where m(x) =
f(x) exactly, and never increases m.  All solves compare model values
relative to F(x) (``taylor._model``), so the comparisons round at the scale
of the model's change, not of F(x).  Condition (2) is certified either
through the exact subdifferential distance (when h provides one) or through
the prox-step witness subgradient.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isfinite, sqrt
from typing import Optional

import numpy as np

from .core import (
    CompositeProblem,
    NonsmoothTerm,
    OracleContractError,
    OracleFailure,
    Vector,
    norm,
    scale_resolution,
)
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


def residual_floor(center: ModelCenter) -> float:
    """Smallest residual distinguishable from zero at this center's scale."""
    return RESIDUAL_FLOOR_COEFF * (1.0 + center.g_norm)


def stationarity_resolution(center: ModelCenter, M: float) -> float:
    """Smallest stationarity residual double precision can resolve here.

    Model-value differences round at eps * |m|, so an iterate cannot be
    placed more accurately than within a sqrt(eps * |m| / c)-sized set
    around the model minimizer, where c is the model's curvature; the
    curvature turns that placement uncertainty back into a residual of
    sqrt(eps * |m| * c).  The resolution is the larger of two estimates of
    it: sqrt(eps) * (1 + |F(x)| + ||grad F(x)||), the problem's own scale
    (``core.scale_resolution``), and sqrt(eps * (1 + |F(x)|) * c).  For
    p = 2, c is the center's largest Hessian entry
    (``ModelCenter.hess_absmax``, kept from the Hessian's symmetry check);
    for p = 1 it is M, the curvature of the regularized first-order model,
    whose closed-form residual rounds at about eps * M * ||x||.  Without
    the curvature term, a badly scaled p = 2 instance (large Hessian
    entries, moderate F and gradient) stalls above the resolution at every
    M, and a p = 1 residual that grows with M stays above it however far M
    is doubled; either way the driver doubles M to exhaustion.  An inner
    solve stalled at or below the resolution has located the minimizer as
    precisely as the arithmetic allows.
    """
    magnitude = 1.0 + abs(center.fx)
    curvature = center.hess_absmax if center.p == 2 else M
    return max(scale_resolution(center.fx, center.g_norm),
               sqrt(_EPS * magnitude * curvature))


def _prox(problem: CompositeProblem, v: Vector, tau: float | Vector) -> Vector:
    """h.prox(v, tau) as a float array, checked to have v's shape (the model
    kernel does no validation and would broadcast any other shape) and to be
    finite wherever v is: a NaN or Inf point from a finite v is h's failure,
    which no larger M can repair, so it raises ``OracleFailure``."""
    y = np.asarray(problem.nonsmooth.prox(v, tau), dtype=float)
    if y.shape != v.shape:
        raise OracleContractError(f"prox returned shape {y.shape} for a {v.shape} input")
    if not np.isfinite(y).all() and np.isfinite(v).all():
        raise OracleFailure("prox returned a non-finite point for a finite input")
    return y


def _subdiff_dist(h: NonsmoothTerm, g: Vector, x: Vector) -> float:
    """h.subdiff_dist(g, x) as a float, checked to be finite when g and x are:
    a NaN there would pass for a residual below every threshold that the
    stopping rule compares it with, so it raises ``OracleFailure``."""
    dist = float(h.subdiff_dist(g, x))
    if not isfinite(dist) and np.isfinite(g).all() and np.isfinite(x).all():
        raise OracleFailure(f"subdiff_dist returned {dist} at a finite point")
    return dist


def _h_center(problem: CompositeProblem, center: ModelCenter) -> float:
    """h(x) as the center carries it, or evaluated when it carries none."""
    return float(problem.nonsmooth.value(center.x)) if center.hx is None else center.hx


def center_stationarity(problem: CompositeProblem, center: ModelCenter) -> float:
    """Stationarity residual of the center itself: dist(0, grad F(x) + dh(x)).

    At y = x the regularization gradient vanishes, so the model gradient is
    exactly grad F(x) and the subdifferential distance (when h provides one)
    is the true composite residual.  Otherwise the unit prox-gradient
    fixed-point residual ||x - prox_h(x - grad F(x))|| stands in: it is zero
    exactly at stationary points and continuous in x.

    ``_finish`` compares this against the working-precision resolution to
    decide whether a stalled inner solve means the *center* is stationary
    (the driver stops) or merely that the model minimizer has been pinned
    down as far as floats allow (the candidate goes through the acceptance
    test).
    """
    h = problem.nonsmooth
    if h.subdiff_dist is not None:
        return _subdiff_dist(h, center.gx, center.x)
    z = _prox(problem, center.x - center.gx, 1.0)
    return norm(center.x - z)


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
    certified.  ``resolution`` is the stall verdict: on a stalled
    certificate whose center is stationary to working precision it is that
    resolution, ``stationarity_resolution(center, M)``, and the driver
    stops at the center; otherwise it is None.

    A certificate from ``solve_subproblem`` also carries what the solve
    already formed at y for the driver's acceptance test and next step:
    ``h_value`` = h(y), ``taylor_change`` = T_p(y; x) - F(x) and
    ``taylor_grad`` = grad T_p(y; x), equal to a fresh ``h.value(y)`` and
    ``taylor._model(center, y, 0.0)``.  ``certify`` recomputes only the
    facts above and leaves them None.
    """

    decrease_ok: bool
    residual: float
    threshold: float
    step_norm: float
    inner_iters: int
    stalled: bool = False
    resolution: Optional[float] = None
    # carried for the driver, not certified: equality ignores them
    h_value: Optional[float] = field(default=None, compare=False)
    taylor_change: Optional[float] = field(default=None, compare=False)
    taylor_grad: Optional[Vector] = field(default=None, compare=False, repr=False)

    @property
    def valid(self) -> bool:
        return self.decrease_ok and self.residual <= self.threshold


def _residual(problem: CompositeProblem, g_reg: Vector, y: Vector,
              witness: Optional[Vector]) -> float:
    """dist(0, g_reg + dh(y)): exact when h knows its subdifferential,
    otherwise the upper bound ||g_reg + witness|| from a prox witness."""
    h = problem.nonsmooth
    if h.subdiff_dist is not None:
        return _subdiff_dist(h, g_reg, y)
    if witness is None:
        raise ValueError("h has no subdiff_dist and no witness was supplied")
    return norm(g_reg + witness)


def _finish(problem: CompositeProblem, center: ModelCenter, M: float, y: Vector,
            model_y: tuple, h_y: float, res: float, thr: float, iters: int,
            witness: Optional[Vector], decrease_ok: bool = True, why: Optional[str] = None):
    """The inner solver's one stopping rule: (y, certificate, witness), or None.

    Every solve ends here, for either p: the p = 1 and p = 2 closed-form
    steps, a start point that is already certified, a p = 2 iterate whose
    residual cleared its target or whose step moved m by no more than its
    rounding (eps * |m - F(x)|), an iterate that no step size moves, and a
    spent budget.
    Given y's model terms ``model_y`` (``_model(center, y, M)``), h(y) as
    ``h_y``, y's residual ``res`` and target ``thr`` = theta*||y - x||^p:

    * **certified** when the model decreased and ``res`` is at most ``thr``
      plus ``residual_floor(center)`` (the residual is computed from
      near-cancelling O(||grad||) terms and cannot resolve below that
      scale).  The certificate is marked ``stalled`` when the step has
      collapsed onto the center (``step_norm`` at most
      ``DEGENERATE_STEP_RTOL * (1 + ||x||)``), so the run does not loop on
      zero-length steps;
    * **stalled** otherwise, when ``res`` is at most
      ``stationarity_resolution(center, M)``: floats have run out, and y is the
      model minimizer located as precisely as double precision allows, but
      its residual may sit far above ``thr`` (the inner stopping rule of
      ARC, Cartis, Gould & Toint 2011, met at the precision floor);
    * **None** in every other case, or ``InnerSolveFailure`` when the
      caller cannot continue and passes the reason ``why``; the driver
      responds to that by doubling M.

    A stalled certificate carries the stall verdict: its ``resolution`` is
    the working-precision resolution (with this M, which the p = 1
    resolution grows with) when the center's own stationarity
    (``center_stationarity``) is at most that, and None when it is not.
    Every certificate carries h(y) and y's bare Taylor terms, so the
    driver evaluates neither again.
    """
    _, _, step_norm, taylor_change, taylor_grad = model_y
    certified = decrease_ok and res <= thr + residual_floor(center)
    if certified and step_norm > DEGENERATE_STEP_RTOL * (1.0 + center.x_norm):
        stalled, resolution = False, None
    else:
        stalled, resolution = True, stationarity_resolution(center, M)
        if not certified and res > resolution:
            if why is None:
                return None
            raise InnerSolveFailure(
                f"{why}: residual {res:.3e} above the working-precision resolution "
                f"{resolution:.3e} (threshold {thr:.3e})", iterations=iters,
            )
        if center_stationarity(problem, center) > resolution:
            resolution = None
    return y, StepCertificate(decrease_ok, res, thr, step_norm, iters, stalled, resolution,
                              h_y, taylor_change, taylor_grad), witness


def _solve_first_order(problem: CompositeProblem, center: ModelCenter,
                       M: float, theta: float):
    """The p = 1 subproblem in closed form: y = prox_{h/M}(x - g/M).

    The prox optimality condition puts the witness M(x - y) - g in dh(y),
    so the model gradient g + M(y - x) plus the witness is zero up to
    roundoff.  Both certificate conditions are still tested in floating
    point, through the same stopping rule (``_finish``) as the p = 2
    iteration.
    """
    x, g = center.x, center.gx
    y = _prox(problem, x - g / M, 1.0 / M)
    witness = M * (x - y) - g
    model_y = _model(center, y, M)
    h_y = float(problem.nonsmooth.value(y))
    res = _residual(problem, model_y[1], y, witness)
    decrease_ok = model_y[0] + h_y <= _h_center(problem, center)
    return _finish(problem, center, M, y, model_y, h_y, res, theta * model_y[2], 1, witness,
                   decrease_ok, why="closed-form prox step not certified")


def _solve_separable(problem: CompositeProblem, center: ModelCenter, M: float,
                     theta: float, max_inner: int):
    """The p = 2 subproblem with a diagonal Hessian H > 0, through one root.

    The minimizer y of the model plus h satisfies 0 in g + a(y - x) + dh(y)
    with a = H + M r/2 and r = ||y - x||.  For a fixed r that is the
    optimality condition of a separable problem, solved by one prox call
    with per-coordinate thresholds: y(r) = prox_{h, 1/a}(x - g/a).
    phi(r) = ||y(r) - x|| - r decreases in r (a larger a shortens the
    step), so the exact step is y(r) at phi's single root, bracketed by
    [0, ||y(0) - x||] and found by Illinois regula falsi to working
    precision.  The step ends through ``_finish`` with the exact
    subdifferential distance, like any other solve; None when some
    H_i <= 0 or the root does not certify.
    """
    x, g, H = center.x, center.gx, center.Hx
    if not H.min() > 0.0:
        return None

    def y_at(r: float) -> tuple[Vector, float]:
        tau = 1.0 / (H + (0.5 * M) * r)
        y = _prox(problem, x - g * tau, tau)
        return y, norm(y - x) - r

    y, f = y_at(0.0)
    lo, hi, f_lo, f_hi, iters = 0.0, f, f, 0.0, 1
    # phi's own rounding: y - x cancels at the scale of ||x|| + ||y(0) - x||
    tol = 4.0 * _EPS * (hi + center.x_norm)
    r, side = hi, 0  # side: which end the last point replaced, +1 lo, -1 hi
    while abs(f) > tol and hi - lo > _EPS * hi and iters < max_inner:
        y, f = y_at(r)
        iters += 1
        if f > 0.0:
            lo, f_lo = r, f
            if side > 0:
                f_hi *= 0.5  # Illinois: the end kept twice has its value halved
            side = 1
        else:
            hi, f_hi = r, f
            if side < 0:
                f_lo *= 0.5
            side = -1
        r = (lo * f_hi - hi * f_lo) / (f_hi - f_lo)
    model_y = _model(center, y, M)
    h_y = float(problem.nonsmooth.value(y))
    decrease_ok = model_y[0] + h_y <= _h_center(problem, center)
    return _finish(problem, center, M, y, model_y, h_y, _residual(problem, model_y[1], y, None),
                   theta * model_y[2]**2, iters, None, decrease_ok)


def solve_subproblem(
    problem: CompositeProblem,
    center: ModelCenter,
    M: float,
    theta: float,
    max_inner: int = 500,
) -> tuple[Vector, StepCertificate, Optional[Vector]]:
    """Certified approximate minimizer of the regularized model plus h.

    For p = 1 the minimizer is exact and takes one prox call: y =
    prox_{h/M}(x - g/M), certified with the witness M(x - y) - g and the
    same threshold and model-decrease tests as below; the certificate
    reports one inner iteration.  It takes no step size, so ``max_inner``
    is validated but not used.

    For p = 2 with a diagonal Hessian returned as its vector, all H_i > 0,
    and an h with an exact ``subdiff_dist``, the exact minimizer in closed
    form (``_solve_separable``): one prox call with per-coordinate
    thresholds for each evaluation of the secular equation, at most
    ``max_inner`` of them, reported as the certificate's inner iterations,
    and the witness None.  It ends through the same stopping rule as below;
    when it does not certify, or some H_i <= 0, the iteration below solves
    the step instead.

    Otherwise, for p = 2, proximal gradient on the regularized model until
    certified.  Starts at y0 = x, where m(x) = f(x), at every M.  Each
    iteration backtracks the step size by halving until the standard
    sufficient-decrease test holds and m does not increase, takes the prox
    step, and keeps the witness subgradient p = (y_t - y_{t+1})/alpha -
    model_grad(y_t), which lies in dh(y_{t+1}) by the prox optimality
    condition.  The first search starts at 1; each later one starts at
    2 * alpha_prev, where alpha_prev is the step accepted on the previous
    iteration, with no cap, so a step size near 1/L is found once per call,
    whether 1/L is far below 1 or far above it (the carried step of
    Nesterov's composite gradient method and of FISTA's backtracking).  The
    doubling lets the step grow back where the model is
    flatter.  A search that halves below 2**-60 without a float-visible
    decrease leaves the iterate frozen.

    Every solve, for either p, ends through one stopping rule, ``_finish``.
    The p = 2 iteration asks it once the residual clears its target plus
    the floor, or once a step changes the model value by no more than its
    rounding: near the model minimizer theta*||y - x||^p can drop below what
    double precision resolves, and the resolution grows with |f(x)| while
    the model decrease does not, so it is the rounding test that ties a
    stop below the target to the floats.  The model value is taken relative
    to the center, m(y) - F(x), so that rounding is eps * |m(y) - F(x)|: a
    large constant in F does not change when it fires.  An iterate that stops
    moving (no step size gives a float-visible decrease) and a spent budget
    ask it too, and there a None from the rule raises
    ``InnerSolveFailure``; the driver responds by doubling M.  An iterate
    frozen before its first prox step is still the center and, with an
    opaque h, has no residual yet: it is judged by the center's own
    (``center_stationarity``, the same prox step at step size 1).  A
    certificate marked ``stalled`` carries the stall verdict
    (``StepCertificate.resolution``): the driver stops if the center itself
    is stationary to working precision, and otherwise puts the candidate
    through the ordinary acceptance test.

    Returns (y, certificate, witness); witness is None when the certificate
    came from the exact subdifferential distance at y = y0 or from the
    closed-form step.
    """
    if not theta > 0:
        raise ValueError(f"theta must be positive, got {theta}")
    if max_inner < 1:
        raise ValueError(f"max_inner must be at least 1, got {max_inner}")
    if not M > 0:
        raise ValueError(f"M must be positive, got {M}")
    p = center.p
    if p == 1:
        return _solve_first_order(problem, center, M, theta)
    h = problem.nonsmooth
    if h.subdiff_dist is not None and center.Hx.ndim == 1:
        out = _solve_separable(problem, center, M, theta, max_inner)
        if out is not None:
            return out
    # y0 = x with its model terms, h(y) and m(y) - F(x); model values are
    # relative to F(x) (``_model``), so m(x) - F(x) = h(x)
    y = center.x.copy()
    h_y = m_total = _h_center(problem, center)
    model_y = _model(center, y, M)
    m_smooth, g_reg, step_norm = model_y[:3]
    floor = residual_floor(center)

    # res, thr, step_norm and witness always describe the current iterate y;
    # with an opaque h no residual exists until the first prox step, so res
    # starts at inf.
    thr = theta * step_norm**p
    witness: Optional[Vector] = None
    res = _residual(problem, g_reg, y, None) if h.subdiff_dist is not None else np.inf
    # The start point may already be certified (a stationary center).
    if res <= thr + floor:
        return _finish(problem, center, M, y, model_y, h_y, res, thr, 0, None)

    alpha = 0.5  # the first search starts at 1
    for t in range(1, max_inner + 1):
        alpha *= 2.0
        frozen = False
        while True:
            y_new = _prox(problem, y - alpha * g_reg, alpha)
            d = y_new - y
            model_new = _model(center, y_new, M)
            ms_new = model_new[0]
            if ms_new <= m_smooth + float(g_reg @ d) + float(d @ d) / (2.0 * alpha):
                h_new = float(h.value(y_new))
                mt_new = ms_new + h_new
                if mt_new <= m_total:
                    break
            alpha *= 0.5
            if alpha < 2.0**-60:
                frozen = True  # no step size gives a float-visible decrease
                break
        if not frozen:
            frozen = bool(np.array_equal(y_new, y))
        if frozen:
            if res == np.inf:  # frozen at the center before its first residual
                res = center_stationarity(problem, center)
            return _finish(problem, center, M, y, model_y, h_y, res, thr, t, witness,
                           why=f"inner iterate stalled at iteration {t}")
        witness = (y - y_new) / alpha - g_reg
        drop = m_total - mt_new
        y, model_y, h_y, m_total = y_new, model_new, h_new, mt_new
        m_smooth, g_reg, step_norm = model_y[:3]
        res = _residual(problem, g_reg, y, witness)
        thr = theta * step_norm**p
        # certified, or a step that moved m by no more than its rounding:
        # floats have run out
        if res <= thr + floor or drop <= _EPS * abs(m_total):
            out = _finish(problem, center, M, y, model_y, h_y, res, thr, t, witness)
            if out is not None:
                return out

    return _finish(problem, center, M, y, model_y, h_y, res, thr, max_inner, witness,
                   why=f"no certificate within {max_inner} inner iterations")


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
