"""Outer loop: adaptive regularization with nonmonotone reference descent.

Each iteration solves the regularized Taylor subproblem at the current point,
raising M until the candidate passes the acceptance test

    f(y) <= R_k - Mtilde/(p+1)! * ||y - x_k||^(p+1)

against a reference value R_k >= f(x_k).  A candidate that fails the test
shows how much M it needed, Mtilde + (p+1)! (F(y) - T_p(y)) / ||y - x_k||^(p+1),
and M jumps to that estimate, clipped to between 2 and ``MAX_M_RAISE`` times
M; an inner solve that fails doubles M.  Each later step starts at the secant
M of the step just taken, s = x_{k+1} - x_k:

    M_{k+1} = max(M0, ||grad F(x_{k+1}) - grad T_p(x_{k+1}; x_k)|| / (p! ||s||^p)),

the spectral step of Birgin, Martinez & Raydan (2000) at p = 1.  The first
step starts at M0 at p = 2 and at max(M0, ||grad F(x_0)|| / ||x_0||) at
p = 1, the curvature scale of the start.  The driver then pulls the
reference toward the new objective value:

    R_{k+1} = (1 - u_{k+1}) R_k + u_{k+1} f(x_{k+1}),   u_{k+1} in (u_min, 1].

With u = 1 the reference equals the objective and descent is monotone;
smaller u lets the objective fluctuate under a decreasing envelope.
"""

from __future__ import annotations

import time
from collections import deque
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field, fields, replace
from math import factorial, inf, isfinite, isnan, nan
from typing import Callable, Iterator, Optional, Union

import numpy as np

from .core import CompositeProblem, OracleFailure, Vector, as_vector, norm
from .inner import InnerSolveFailure, StepCertificate, center_stationarity, solve_subproblem
from .taylor import ModelCenter

STATUS_STATIONARY = "stationary"
STATUS_PRECISION_FLOOR = "precision-floor"
STATUS_MAX_ITERS = "max_iters"

# Largest factor by which one rejection by the acceptance test raises M: the
# new M is max(2M, min(est, MAX_M_RAISE * M)) for the remainder estimate est
# (``remainder_estimate``).  The cap keeps sup M_k within a constant of the
# doubling rule's bound; an estimate from a long rejected step can exceed the
# M the step needs by orders of magnitude.
MAX_M_RAISE = 4.0


class LineSearchFailure(RuntimeError):
    """M raised past its budget without an acceptable step."""

    def __init__(self, message: str, k: int = -1, x: Optional[Vector] = None):
        super().__init__(message)
        self.k = k
        self.x = x


@dataclass(frozen=True)
class RunConfig:
    """Knobs for one solver run; immutable, a changed copy comes from ``replace``.

    ``u`` is either a constant in (u_min, 1] or a callable k -> u_k giving
    the reference weight used when forming R_k.  ``stop_stat`` is the one
    stopping threshold, on stationarity (below 0 disables it); no bound on f
    stops a run, as the rates are in stationarity and f has no fixed scale.
    ``max_inner`` bounds the p = 2 inner iterations of one solve, whose step
    size needs no knob: each solve finds it by backtracking from 1 and
    carries it between iterations.

    M0 is the floor of M at every step and the M a p = 2 run, or a p = 1
    run from x0 = 0, starts at (``start_M``).

    The ranges of p, M0, Mtilde, theta and a constant u (kept as a float)
    are checked here, once, ``replace`` included; ``u_at`` checks what a
    callable u returns.  The helpers that use them (``accept_test``,
    ``update_reference``) take them as given.
    """

    p: int = 2
    M0: float = 1e-2
    Mtilde: float = 1e-2
    theta: float = 0.1
    u: Union[float, Callable[[int], float]] = 0.5
    u_min: float = 1e-3
    max_outer: int = 1000
    stop_stat: float = 1e-3
    max_inner: int = 500
    max_doublings: int = 60

    def __post_init__(self):
        if self.p not in (1, 2):
            raise ValueError(f"p must be 1 or 2, got {self.p}")
        for name in ("M0", "Mtilde", "theta"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if not 0.0 < self.u_min < 1.0:
            raise ValueError(f"u_min must lie in (0, 1), got {self.u_min}")
        for name, least in (("max_outer", 0), ("max_inner", 1), ("max_doublings", 0)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be at least {least}, got {getattr(self, name)}")
        if not callable(self.u):
            object.__setattr__(self, "u", self._check_u(float(self.u)))

    def _check_u(self, u: float) -> float:
        if not self.u_min < u <= 1.0:
            raise ValueError(f"u must lie in (u_min, 1] = ({self.u_min}, 1], got {u}")
        return u

    def u_at(self, k: int) -> float:
        """The reference weight u_k; a callable's value is checked against (u_min, 1]."""
        return self._check_u(float(self.u(k))) if callable(self.u) else self.u


def update_reference(R: float, f_new: float, u: float) -> float:
    """Convex combination (1 - u) R + u f_new; with u = 1 returns f_new exactly."""
    return (1.0 - u) * R + u * f_new


def remainder_estimate(F_change: float, model_change: float, step_norm: float, p: int,
                       Mtilde: float) -> float:
    """The M that would have let y pass: Mtilde + (p+1)! (F(y) - T_p(y)) / ||s||^(p+1).

    With s = y - x, f(y) = m(y) + [F(y) - T_p(y)] - M/(p+1)! ||s||^(p+1),
    and the model value m(y) is at most f(x) <= R, so y passes the
    acceptance test once M reaches this value.  It is a local Lipschitz
    quotient of F's p-th derivative on the segment [x, y], so it never
    exceeds Mtilde plus that derivative's Lipschitz constant.  The remainder
    is formed from ``F_change`` = F(y) - F(x) and ``model_change`` =
    T_p(y) - F(x), both differences at the scale of the step.  A zero step
    gives 0, which leaves the choice to the doubling.
    """
    scale = step_norm ** (p + 1)
    if not scale > 0:
        return 0.0
    return Mtilde + factorial(p + 1) * (F_change - model_change) / scale


def raised_M(M: float, estimate: float) -> float:
    """M after a rejection by the acceptance test: the remainder estimate,
    but at least 2M and at most ``MAX_M_RAISE`` * M."""
    return max(2.0 * M, min(estimate, MAX_M_RAISE * M))


def accept_test(R: float, f_cand: float, step_norm: float, Mtilde: float, p: int) -> bool:
    """f_cand <= R - Mtilde/(p+1)! * step_norm^(p+1), exact comparison."""
    return f_cand <= R - Mtilde / factorial(p + 1) * step_norm ** (p + 1)


# How a trial ended: the inner solve failed; it stalled at a center that is
# stationary to working precision; or it gave a candidate for the acceptance
# test.
TRIAL_FAILED = "failed"
TRIAL_STATIONARY = "stationary"
TRIAL_CANDIDATE = "candidate"


@dataclass(frozen=True)
class Trial:
    """One pass of ``try_step``'s loop up to the acceptance test, the one
    part that reads R.

    That is the inner solve from the center at M, the raises of M before it
    and the step's inner iterations up to and including it, and, for a
    candidate, everything the acceptance test and the next step read: F(y),
    f(y) and the certificate, from whose step norm and T_p(y; x) - F(x) a
    rejection forms the M it raises to, and from whose h(y) and grad T_p(y; x)
    the driver forms the next center and secant M.  A ``stationary`` trial's
    certificate keeps the working-precision resolution the run
    reports.  None of it needs the center's Hessian again, so a trial can
    be replayed from a center whose Hessian was never formed.
    ``try_step`` returns the trial that ended the step.
    """

    outcome: str  # one of the TRIAL_* values
    M: float
    doublings: int  # raises of M before it: by 2 on a failure, 2 to MAX_M_RAISE on a rejection
    step_iters: int  # the step's inner iterations, up to and including this trial
    y: Optional[Vector] = None
    cert: Optional[StepCertificate] = None
    witness: Optional[Vector] = None
    # F(y) + h(y) and F(y) alone; NaN unless the outcome is a candidate
    f_cand: float = np.nan
    F_cand: float = np.nan


def run_trial(problem: CompositeProblem, center: ModelCenter, M: float,
              config: RunConfig, doublings: int, prior_iters: int) -> Trial:
    """One trial: the inner solve from the center at M, after ``doublings``
    raises of M and ``prior_iters`` inner iterations in this step; see
    ``try_step`` for what each outcome means.  A candidate costs one F(y),
    checked here: NaN or -inf f(y) raises ``OracleFailure``, +inf fails
    every acceptance test.  h(y) and y's Taylor terms come with the
    certificate.  ``nhota_steps`` guards the whole step against overflow."""
    try:
        y, cert, witness = solve_subproblem(problem, center, M, config.theta,
                                            max_inner=config.max_inner)
    except InnerSolveFailure as exc:
        return Trial(TRIAL_FAILED, M, doublings, prior_iters + exc.iterations)
    step_iters = prior_iters + cert.inner_iters
    if cert.resolution is not None:
        return Trial(TRIAL_STATIONARY, M, doublings, step_iters, y, cert, witness)
    F_cand = float(problem.smooth.value(y))
    f_cand = F_cand + cert.h_value
    if isnan(f_cand) or f_cand == -inf:
        raise OracleFailure(f"f is {f_cand} at candidate with ||y - x|| = {cert.step_norm:.3e}")
    return Trial(TRIAL_CANDIDATE, M, doublings, step_iters, y, cert, witness, f_cand, F_cand)


@dataclass
class StepRecord:
    """What the runs on ``problem`` inside one ``shared_steps`` block share.

    ``centers`` maps (x, p) to F(x), grad F(x) and h(x); ``trials`` maps (x, M at
    the start of a step, the run's ``RunConfig`` with u set aside) to the
    trials run from there, in order.  Every entry is O(n) floats; no
    Hessian is kept.
    """

    problem: CompositeProblem
    centers: dict[tuple, tuple[float, Vector, float]] = field(default_factory=dict)
    trials: dict[tuple, list[Trial]] = field(default_factory=dict)


_SHARED: ContextVar[Optional[StepRecord]] = ContextVar("nhota_shared_steps", default=None)


@contextmanager
def shared_steps(problem: CompositeProblem) -> Iterator[None]:
    """Let the runs on ``problem`` inside this block share their steps.

    R_k enters a step only through the acceptance test, so runs that differ
    only in u, started at the same point and M, propose the same candidates
    until their acceptance tests disagree.  Inside the block a center's
    value and gradient and a step's trials (``Trial``) are recorded by the
    first run that computes them; a later run at the same center and M, with
    a ``RunConfig`` equal but for u, replays the trials, running only the
    acceptance test with its own R, and solves live from where the record
    ends.  Only runs on this very problem object take part; the record is
    dropped on exit, so runs on any other problem, or outside the block,
    share nothing.
    """
    token = _SHARED.set(StepRecord(problem))
    try:
        yield
    finally:
        _SHARED.reset(token)


def _record(problem: CompositeProblem) -> Optional[StepRecord]:
    """The ``shared_steps`` record of the block around this run, if it is
    bound to ``problem``."""
    record = _SHARED.get()
    return record if record is not None and record.problem is problem else None


def _model_center(problem: CompositeProblem, x: Vector, p: int, hx: float,
                  fx: Optional[float] = None) -> ModelCenter:
    """``ModelCenter.from_oracle`` at x, with h(x) = ``hx``, or inside
    ``shared_steps`` the center an earlier run recorded there: no oracle
    call, and its Hessian is formed only if a live solve reads it."""
    record = _record(problem)
    if record is None:
        return ModelCenter.from_oracle(problem.smooth, x, p, fx=fx, hx=hx)
    key = (x.tobytes(), p)
    known = record.centers.get(key)
    if known is not None:
        fx, gx, hx = known
        return ModelCenter(x=x, fx=fx, gx=gx, p=p, oracle=problem.smooth, hx=hx)
    center = ModelCenter.from_oracle(problem.smooth, x, p, fx=fx, hx=hx)
    record.centers[key] = (center.fx, center.gx, hx)
    return center


def _recorded_trials(problem: CompositeProblem, center: ModelCenter, M_in: float,
                     config: RunConfig) -> list[Trial]:
    """The trials recorded for a step from this center at M_in, which the
    step extends; a fresh list outside ``shared_steps``."""
    record = _record(problem)
    if record is None:
        return []
    key = (center.x.tobytes(), M_in, replace(config, u=1.0))
    return record.trials.setdefault(key, [])


def try_step(
    problem: CompositeProblem,
    center: ModelCenter,
    R: float,
    M_in: float,
    config: RunConfig,
) -> Trial:
    """Find an acceptable step from the center, raising M as needed, and
    return the trial that ended it.

    Each trial (``run_trial``) runs the certified inner solve from the
    center at the current M and retries at a larger M when the candidate is
    not acceptable.  An inner failure doubles M.  A candidate rejected by
    the acceptance test tells how much M it needed (``remainder_estimate``
    of the trial's F(y) and certificate): M becomes that estimate, but at
    least 2M and at most ``MAX_M_RAISE`` * M (``raised_M``).

    A solve that stalled at the floating-point floor or returned a
    collapsed step (``cert.stalled``) forces a decision, which the inner
    solve has made (``StepCertificate.resolution``): if the center is
    stationary to working precision, the trial is ``stationary``, without
    evaluating the objective at y, and the driver stops at the center;
    otherwise the candidate — typically the model minimizer pinned down as
    far as floats allow — goes through the ordinary acceptance test like
    any other step.

    F is evaluated once per tested candidate, and the trial carries that
    value (``F_cand``) for the next center.

    Only ``accept_test`` reads R, so the sequence of trials from a center
    and M_in does not depend on it.  Inside ``shared_steps`` the trials are
    recorded, and a later step from the same center and M_in, under a
    config equal but for u (``replace(config, u=1.0)`` keys it), replays them,
    testing each candidate against its own R, until one passes or the
    record ends; from there it runs trials live and appends them.
    Raises ``LineSearchFailure`` after ``config.max_doublings`` raises of M,
    and ``OracleFailure`` at a live trial whose M overflowed to inf.
    """
    trials = _recorded_trials(problem, center, M_in, config)
    M = M_in
    for i in range(config.max_doublings + 1):
        if i == len(trials):
            if not isfinite(M):
                raise OracleFailure(f"M is {M} at trial {i} of a step from M_in = {M_in:.3e}: "
                                    "the secant or raised M overflowed")
            prior_iters = trials[-1].step_iters if trials else 0
            trials.append(run_trial(problem, center, M, config, i, prior_iters))
        trial = trials[i]
        if trial.outcome == TRIAL_FAILED:
            M *= 2.0
        elif (trial.outcome == TRIAL_STATIONARY
              or accept_test(R, trial.f_cand, trial.cert.step_norm, config.Mtilde, config.p)):
            return trial
        else:
            M = raised_M(M, remainder_estimate(trial.F_cand - center.fx, trial.cert.taylor_change,
                                               trial.cert.step_norm, center.p, config.Mtilde))
    raise LineSearchFailure(
        f"no acceptable step after {config.max_doublings} doublings "
        f"(M reached {M:.3e} from {M_in:.3e})",
        x=center.x,
    )


@dataclass(frozen=True)
class TraceRow:
    """One outer iteration: the step from x_k to x_{k+1}.

    ``f`` and ``R`` are the values at x_k; ``stationarity`` is measured at
    the new point x_{k+1}; ``backtracks`` counts the raises of M.
    """

    k: int
    f: float
    R: float
    M: float
    step_norm: float
    stationarity: float
    inner_iters: int
    backtracks: int
    wall_millis: float


_TRACE_COLUMNS = tuple(f.name for f in fields(TraceRow))
TRACE_HEADER = ",".join(_TRACE_COLUMNS)


def format_trace_row(row: TraceRow) -> str:
    """One CSV line matching TRACE_HEADER, shortest exact float formatting."""
    return ",".join(repr(getattr(row, name)) for name in _TRACE_COLUMNS)


@dataclass
class IterateTrace:
    """Full record of a run: per-step rows plus the final iterate's values.

    Row k describes the step leaving x_k, so the objective series over
    points x_0 .. x_K is the rows' f column plus ``f_final``; likewise for
    R. ``stationarity_kind`` is "exact" when h supplied a subdifferential
    distance, "bound" when rows carry the certificate-implied upper bound.
    ``resolution`` is the working-precision resolution at the final point of
    a run that stopped at the precision floor, None otherwise.
    """

    rows: list[TraceRow] = field(default_factory=list)
    status: str = ""
    f_final: float = np.nan
    R_final: float = np.nan
    stat_initial: Optional[float] = None
    stat_final: Optional[float] = None
    stationarity_kind: str = "exact"
    x_final: Optional[Vector] = None
    resolution: Optional[float] = None

    def iterations(self) -> int:
        return len(self.rows)

    def f_values(self) -> np.ndarray:
        """Objective at x_0 .. x_K (length iterations + 1)."""
        return np.array([r.f for r in self.rows] + [self.f_final])

    def r_values(self) -> np.ndarray:
        """Reference value R_0 .. R_K."""
        return np.array([r.R for r in self.rows] + [self.R_final])

    def step_norms(self) -> np.ndarray:
        return np.array([r.step_norm for r in self.rows])

    def stationarity_values(self) -> np.ndarray:
        """Stationarity at x_0 .. x_K; x_0's entry is NaN when unavailable."""
        first = np.nan if self.stat_initial is None else self.stat_initial
        return np.array([first] + [r.stationarity for r in self.rows])

    def check_invariants(self, config: RunConfig, rel_slack: float = 1e-9) -> list[str]:
        """Reference-descent and level-set invariants; returns violations.

        Checks, with relative float slack: R_k >= f(x_k); R nonincreasing
        with per-step decrease at least u_min*Mtilde/(p+1)!*||step||^(p+1);
        and f(x_k) <= f(x_0).
        """
        return check_reference_descent(
            self.f_values(), self.r_values(), self.step_norms(),
            u_min=config.u_min, Mtilde=config.Mtilde, p=config.p,
            rel_slack=rel_slack,
        )


def check_reference_descent(
    f_vals: np.ndarray,
    r_vals: np.ndarray,
    step_norms: np.ndarray,
    u_min: float,
    Mtilde: float,
    p: int,
    rel_slack: float = 1e-9,
) -> list[str]:
    """Invariant checker shared by tests, the check suite and fault injection."""
    out: list[str] = []
    scale = max(1.0, float(np.max(np.abs(r_vals)))) if len(r_vals) else 1.0
    slack = rel_slack * scale
    for k in range(len(f_vals)):
        if r_vals[k] < f_vals[k] - slack:
            out.append(f"k={k}: R_k = {r_vals[k]!r} < f(x_k) = {f_vals[k]!r}")
    coeff = u_min * Mtilde / factorial(p + 1)
    for k in range(len(step_norms)):
        required = coeff * step_norms[k] ** (p + 1)
        if r_vals[k + 1] > r_vals[k] - required + slack:
            out.append(
                f"k={k}: R_{{k+1}} = {r_vals[k + 1]!r} exceeds "
                f"R_k - u_min*Mtilde/(p+1)!*step^(p+1) = {r_vals[k] - required!r}"
            )
    f0 = f_vals[0]
    for k in range(len(f_vals)):
        if f_vals[k] > f0 + slack:
            out.append(f"k={k}: f(x_k) = {f_vals[k]!r} left the initial level set f(x_0) = {f0!r}")
    return out


def taylor_grad_error(trial: Trial, next_center: ModelCenter) -> float:
    """||grad F(y) - grad T_p(y; x)|| at the accepted candidate y =
    next_center.x, from the gradient the next center already holds and the
    grad T_p(y; x) on the trial's certificate: no oracle call and no Hessian
    product."""
    return norm(next_center.gx - trial.cert.taylor_grad)


def secant_M(grad_err: float, step_norm: float, p: int, M0: float) -> float:
    """The M the next step starts at: max(M0, grad_err / (p! ||s||^p)).

    ``grad_err`` is ``taylor_grad_error`` after the step s.  A zero step
    gives M0.
    """
    scale = factorial(p) * step_norm**p
    return max(M0, grad_err / scale) if scale > 0 else M0


def start_M(center: ModelCenter, config: RunConfig) -> float:
    """The M the first step starts at: at p = 1, max(M0, ||grad F(x0)|| / ||x0||),
    from the scales the center holds; M0 at p = 2, at x0 = 0, or where the
    ratio is not finite.

    At p = 1 M is the model's only curvature, and this ratio is one: the M
    whose gradient step -grad F(x0) / M has the length of x0.  It scales as
    a^-2 under x -> a x, as M0 must for the run to be scale-free.  At p = 2
    the Hessian carries the curvature.
    """
    if config.p == 1 and center.x_norm > 0:
        ratio = center.g_norm / center.x_norm
        if isfinite(ratio):
            return max(config.M0, ratio)
    return config.M0


def _stationarity_bound(taylor_err: float, cert: StepCertificate, M: float,
                        p: int) -> float:
    """Computable upper bound on dist(0, df(x_{k+1})) from the certificate.

    Triangle inequality: the true gradient error ||grad F(y) - grad T_p(y)||
    (``taylor_grad_error``) plus the certified model residual plus the
    regularization gradient norm M/p! * ||step||^p.
    """
    return taylor_err + cert.residual + M / factorial(p) * cert.step_norm**p


@contextmanager
def _overflow_fails(k: Optional[int] = None, M: float = nan) -> Iterator[None]:
    """Under ``np.errstate(over="raise")``, an overflow from numpy or a float
    power raises ``OracleFailure`` naming step k and M (no k: the start)."""
    try:
        with np.errstate(over="raise"):
            yield
    except (OverflowError, FloatingPointError) as exc:
        where = "at the start x0" if k is None else f"in step {k} from M = {M:.3e}"
        raise OracleFailure(f"floating-point overflow {where}: {exc}") from exc


def nhota_steps(
    problem: CompositeProblem,
    x0: Vector,
    config: RunConfig,
    trace: IterateTrace,
    row_sink: Optional[Callable[[TraceRow], None]] = None,
) -> Iterator[tuple[ModelCenter, Trial]]:
    """The outer loop, one accepted step at a time, recorded into ``trace``.

    Starts with R_0 = f(x_0) and M = ``start_M``: M0 at p = 2, and
    max(M0, ||grad F(x_0)|| / ||x_0||) at p = 1, from the norms the first
    center holds.  Each iteration takes a certified, accepted step
    (``try_step``), updates the reference with weight u_{k+1}, records one
    trace row (handing it to ``row_sink`` when given) and yields the step
    with the center it was taken from.  Each later step starts at the
    secant M of the step just taken (``secant_M``),

        max(M0, ||grad F(y) - grad T_p(y; x)|| / (p! ||s||^p)),

    formed from the gradient the next center holds, so it costs no oracle
    call.  At p = 1 it is the spectral step ||grad F(y) - grad F(x)|| / ||s||
    of Birgin, Martinez & Raydan (2000).  Since ||grad F(y) - grad T_p(y)||
    <= L_p ||s||^p / p!, with L_p the Lipschitz constant of F's p-th
    derivative on [x, y], the estimate is at most L_p / (p!)^2 <= L_p; within
    a step M grows only on a rejected candidate or a failed solve, by a
    factor of at most ``MAX_M_RAISE`` (``try_step``).  So M_k >= M0 and
    sup M_k <= max(M_start, MAX_M_RAISE * (Mtilde + L_p)), with M_start the
    first step's M, apart from inner-failure doublings: the bounded M_k the
    rates need.

    Stops when the stationarity measure drops to stop_stat ("stationary"),
    the current point is stationary to working precision while its
    stationarity is above stop_stat ("precision-floor", with the resolution
    kept in ``trace.resolution``), or max_outer iterations complete
    ("max_iters"), and then sets ``trace.status``; a run failure raises
    instead.

    The start and each step's body, from ``try_step`` to the secant M, run
    under the run's one overflow guard (``_overflow_fails``); it never
    spans the ``yield``, so the caller's code keeps its own float settings.

    The trace's final fields always describe the latest iterate, so a run
    cut short by an exception leaves a consistent record of its steps.
    Inside ``shared_steps(problem)`` the centers and the steps' trials are
    shared with the other runs of the block.
    """
    x = as_vector(x0, dim=problem.dim)
    h = problem.nonsmooth
    exact_stat = h.subdiff_dist is not None
    trace.stationarity_kind = "exact" if exact_stat else "bound"

    with _overflow_fails():
        hx = float(h.value(x))
        center = _model_center(problem, x, config.p, hx)
        fk = center.fx + hx
        if not isfinite(fk):
            raise OracleFailure("f(x0) is not finite")
        stat: Optional[float] = center_stationarity(problem, center) if exact_stat else None
        M = start_M(center, config)
    R = fk
    trace.stat_initial = stat
    trace.x_final, trace.f_final, trace.R_final, trace.stat_final = x, fk, R, stat

    status = STATUS_MAX_ITERS
    for k in range(config.max_outer + 1):
        if stat is not None and stat <= config.stop_stat:
            status = STATUS_STATIONARY
            break
        if k == config.max_outer:
            status = STATUS_MAX_ITERS
            break

        t0 = time.perf_counter()
        with _overflow_fails(k, M):
            try:
                step = try_step(problem, center, R, M, config)
            except LineSearchFailure as exc:
                exc.k = k
                raise
            y, cert = step.y, step.cert
            if step.outcome == TRIAL_STATIONARY:
                # the stop_stat test above did not fire, so the point is
                # stationary only to working precision
                status = STATUS_PRECISION_FLOOR
                trace.resolution = cert.resolution
                break

            f_new = step.f_cand
            R_new = update_reference(R, f_new, config.u_at(k + 1))
            next_center = _model_center(problem, y, config.p, cert.h_value, fx=step.F_cand)
            taylor_err = taylor_grad_error(step, next_center)
            new_stat = (center_stationarity(problem, next_center) if exact_stat
                        else _stationarity_bound(taylor_err, cert, step.M, config.p))
            M_next = secant_M(taylor_err, cert.step_norm, config.p, config.M0)
        wall = (time.perf_counter() - t0) * 1000.0

        row = TraceRow(
            k=k, f=fk, R=R, M=step.M, step_norm=cert.step_norm,
            stationarity=new_stat, inner_iters=step.step_iters,
            backtracks=step.doublings, wall_millis=wall,
        )
        trace.rows.append(row)
        if row_sink is not None:
            row_sink(row)
        trace.x_final, trace.f_final, trace.R_final, trace.stat_final = y, f_new, R_new, new_stat
        yield center, step

        center, fk, R, stat, M = next_center, f_new, R_new, new_stat, M_next

    trace.status = status


def nhota_run(
    problem: CompositeProblem,
    x0: Vector,
    config: RunConfig,
    row_sink: Optional[Callable[[TraceRow], None]] = None,
) -> IterateTrace:
    """Run the solver from x0 and return the full iterate trace.

    Drives ``nhota_steps`` to its end; ``row_sink``, when given, receives
    each row as soon as it is recorded, so callers can stream the trace to
    disk.
    """
    trace = IterateTrace()
    # maxlen=0 drops each yielded step at once, so no stale center (with its
    # Hessian) stays alive through the next step's solve
    deque(nhota_steps(problem, x0, config, trace, row_sink), maxlen=0)
    return trace
