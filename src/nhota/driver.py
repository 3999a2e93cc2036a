"""Outer loop: adaptive regularization with nonmonotone reference descent.

Each iteration solves the regularized Taylor subproblem at the current point,
doubling M until the candidate passes the acceptance test

    f(y) <= R_k - Mtilde/(p+1)! * ||y - x_k||^(p+1)

against a reference value R_k >= f(x_k), then relaxes M and pulls the
reference toward the new objective value:

    R_{k+1} = (1 - u_{k+1}) R_k + u_{k+1} f(x_{k+1}),   u_{k+1} in (u_min, 1].

With u = 1 the reference equals the objective and descent is monotone;
smaller u lets the objective fluctuate under a decreasing envelope.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from math import factorial
from typing import Callable, Iterator, Optional, Union

import numpy as np

from .core import CompositeProblem, OracleFailure, Vector, as_vector
from .inner import (
    InnerSolveFailure,
    StepCertificate,
    center_is_stationary,
    center_stationarity,
    solve_subproblem,
)
from .taylor import ModelCenter, taylor_grad

STATUS_STATIONARY = "stationary"
STATUS_MAX_ITERS = "max_iters"
STATUS_CRITERION = "stopped-by-criterion"


class LineSearchFailure(RuntimeError):
    """M doubled past its budget without an acceptable step."""

    def __init__(self, message: str, k: int = -1, x: Optional[Vector] = None):
        super().__init__(message)
        self.k = k
        self.x = x


@dataclass
class RunConfig:
    """Knobs for one solver run.

    ``u`` is either a constant in (u_min, 1] or a callable k -> u_k giving
    the reference weight used when forming R_k.  ``stop_f`` and ``stop_stat``
    are objective / stationarity stopping thresholds; set stop_f = -inf and
    stop_stat < 0 to disable them.
    """

    p: int = 2
    M0: float = 1e-2
    Mtilde: float = 1e-2
    theta: float = 0.1
    u: Union[float, Callable[[int], float]] = 0.5
    u_min: float = 1e-3
    max_outer: int = 1000
    stop_f: float = 1e-3
    stop_stat: float = 1e-3
    max_inner: int = 500
    step_guess: float = 1.0
    max_doublings: int = 60

    def __post_init__(self):
        if self.p not in (1, 2):
            raise ValueError(f"p must be 1 or 2, got {self.p}")
        for name in ("M0", "Mtilde", "theta", "step_guess"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if not 0.0 < self.u_min < 1.0:
            raise ValueError(f"u_min must lie in (0, 1), got {self.u_min}")
        for name, least in (("max_outer", 0), ("max_inner", 1), ("max_doublings", 0)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be at least {least}, got {getattr(self, name)}")
        if not callable(self.u):
            self._check_u(float(self.u))

    def _check_u(self, u: float) -> float:
        if not self.u_min < u <= 1.0:
            raise ValueError(f"u must lie in (u_min, 1] = ({self.u_min}, 1], got {u}")
        return u

    def u_at(self, k: int) -> float:
        """The reference weight u_k, validated against (u_min, 1]."""
        u = self.u(k) if callable(self.u) else self.u
        return self._check_u(float(u))


def update_reference(R: float, f_new: float, u: float) -> float:
    """Convex combination (1 - u) R + u f_new; with u = 1 returns f_new exactly."""
    if not 0.0 < u <= 1.0:
        raise ValueError(f"u must lie in (0, 1], got {u}")
    return (1.0 - u) * R + u * f_new


def accept_test(R: float, f_cand: float, step_norm: float, Mtilde: float, p: int) -> bool:
    """f_cand <= R - Mtilde/(p+1)! * step_norm^(p+1), exact comparison."""
    if not Mtilde > 0:
        raise ValueError(f"Mtilde must be positive, got {Mtilde}")
    if p not in (1, 2):
        raise ValueError(f"p must be 1 or 2, got {p}")
    return f_cand <= R - Mtilde / factorial(p + 1) * step_norm ** (p + 1)


@dataclass(frozen=True)
class TryStepResult:
    y: Vector
    cert: StepCertificate
    witness: Optional[Vector]
    M_used: float
    doublings: int
    inner_iters: int
    # F(y) + h(y); NaN on a ``stationary`` result, which evaluates no
    # candidate it would discard.
    f_cand: float
    # The center is stationary to working precision; the driver stops there
    # rather than stepping to y.
    stationary: bool = False


def try_step(
    problem: CompositeProblem,
    center: ModelCenter,
    R: float,
    M_in: float,
    config: RunConfig,
) -> TryStepResult:
    """Find an acceptable step from the center, doubling M as needed.

    Each trial runs the certified inner solve at the current M; an inner
    failure or a failed acceptance test doubles M and retries, seeding the
    next solve with the rejected candidate.

    A solve that stalled at the floating-point floor or returned a
    collapsed step (``cert.stalled``) forces a decision: if the center is
    stationary to working precision (``center_is_stationary``), the result
    is flagged ``stationary``, without evaluating the objective at y, and
    the driver stops at the center; otherwise
    the candidate — typically the model minimizer pinned down as far as
    floats allow — goes through the ordinary acceptance test like any other
    step.
    Raises ``LineSearchFailure`` after ``config.max_doublings`` doublings.
    """
    M = M_in
    warm = None
    total_inner = 0
    for i in range(config.max_doublings + 1):
        try:
            y, cert, witness = solve_subproblem(
                problem, center, M, config.theta,
                max_inner=config.max_inner, step_guess=config.step_guess,
                warm=warm,
            )
        except InnerSolveFailure as exc:
            total_inner += exc.iterations
            M *= 2.0
            continue
        total_inner += cert.inner_iters
        if cert.stalled and center_is_stationary(problem, center):
            return TryStepResult(y, cert, witness, M, i, total_inner, np.nan,
                                 stationary=True)
        f_cand = problem.f(y)
        if np.isnan(f_cand):
            raise OracleFailure(f"f is NaN at candidate with ||y - x|| = {cert.step_norm:.3e}")
        if accept_test(R, f_cand, cert.step_norm, config.Mtilde, config.p):
            return TryStepResult(y, cert, witness, M, i, total_inner, f_cand)
        warm = y
        M *= 2.0
    raise LineSearchFailure(
        f"no acceptable step after {config.max_doublings} doublings "
        f"(M reached {M:.3e} from {M_in:.3e})",
        x=center.x,
    )


@dataclass(frozen=True)
class TraceRow:
    """One outer iteration: the step from x_k to x_{k+1}.

    ``f`` and ``R`` are the values at x_k; ``stationarity`` is measured at
    the new point x_{k+1}; ``backtracks`` counts M doublings.
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


TRACE_HEADER = "k,f,R,M,step_norm,stationarity,inner_iters,backtracks,wall_millis"


def format_trace_row(row: TraceRow) -> str:
    """One CSV line matching TRACE_HEADER, shortest exact float formatting."""
    return (
        f"{row.k},{row.f!r},{row.R!r},{row.M!r},{row.step_norm!r},"
        f"{row.stationarity!r},{row.inner_iters},{row.backtracks},{row.wall_millis!r}"
    )


@dataclass
class IterateTrace:
    """Full record of a run: per-step rows plus the final iterate's values.

    Row k describes the step leaving x_k, so the objective series over
    points x_0 .. x_K is the rows' f column plus ``f_final``; likewise for
    R. ``stationarity_kind`` is "exact" when h supplied a subdifferential
    distance, "bound" when rows carry the certificate-implied upper bound.
    """

    rows: list[TraceRow] = field(default_factory=list)
    status: str = ""
    f_final: float = np.nan
    R_final: float = np.nan
    stat_initial: Optional[float] = None
    stat_final: Optional[float] = None
    stationarity_kind: str = "exact"
    x_final: Optional[Vector] = None

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


def _stationarity_bound(center, next_center, cert, M_used) -> float:
    """Computable upper bound on dist(0, df(x_{k+1})) from the certificate.

    Triangle inequality: the true gradient error ||grad F(y) - grad T_p(y)||
    plus the certified model residual plus the regularization gradient norm
    M/p! * ||step||^p.
    """
    taylor_err = float(np.linalg.norm(next_center.gx - taylor_grad(center, next_center.x)))
    reg = M_used / factorial(center.p) * cert.step_norm**center.p
    return taylor_err + cert.residual + reg


def nhota_steps(
    problem: CompositeProblem,
    x0: Vector,
    config: RunConfig,
    trace: IterateTrace,
    row_sink: Optional[Callable[[TraceRow], None]] = None,
) -> Iterator[tuple[ModelCenter, TryStepResult]]:
    """The outer loop, one accepted step at a time, recorded into ``trace``.

    Starts with R_0 = f(x_0) and M = M0; each iteration takes a certified,
    accepted step (``try_step``), relaxes M to max(M_used/2, M0), updates
    the reference with weight u_{k+1}, records one trace row (handing it to
    ``row_sink`` when given) and yields the step with the center it was
    taken from.  Stops when f <= stop_f ("stopped-by-criterion"), the
    stationarity measure drops to stop_stat or the step collapses onto the
    current point ("stationary"), or max_outer iterations complete
    ("max_iters"), and then sets ``trace.status``.

    The trace's final fields always describe the latest iterate, so a run
    cut short by an exception leaves a consistent record of its steps.
    """
    x = as_vector(x0, dim=problem.dim)
    h = problem.nonsmooth
    exact_stat = h.subdiff_dist is not None
    trace.stationarity_kind = "exact" if exact_stat else "bound"

    center = ModelCenter.from_oracle(problem.smooth, x, config.p)
    fk = center.fx + float(h.value(x))
    if not np.isfinite(fk):
        raise OracleFailure("f(x0) is not finite")
    R = fk
    stat: Optional[float] = center_stationarity(problem, center) if exact_stat else None
    trace.stat_initial = stat
    trace.x_final, trace.f_final, trace.R_final, trace.stat_final = x, fk, R, stat

    M = config.M0
    status = STATUS_MAX_ITERS
    for k in range(config.max_outer + 1):
        if fk <= config.stop_f:
            status = STATUS_CRITERION
            break
        if stat is not None and stat <= config.stop_stat:
            status = STATUS_STATIONARY
            break
        if k == config.max_outer:
            status = STATUS_MAX_ITERS
            break

        t0 = time.perf_counter()
        try:
            step = try_step(problem, center, R, M, config)
        except LineSearchFailure as exc:
            exc.k = k
            raise
        y, cert = step.y, step.cert

        if step.stationary:
            status = STATUS_STATIONARY
            break

        f_new = step.f_cand
        if not np.isfinite(f_new):
            raise OracleFailure(f"f is not finite at accepted iterate k={k + 1}")
        R_new = update_reference(R, f_new, config.u_at(k + 1))
        next_center = ModelCenter.from_oracle(problem.smooth, y, config.p)
        new_stat = (center_stationarity(problem, next_center) if exact_stat
                    else _stationarity_bound(center, next_center, cert, step.M_used))
        wall = (time.perf_counter() - t0) * 1000.0

        row = TraceRow(
            k=k, f=fk, R=R, M=step.M_used, step_norm=cert.step_norm,
            stationarity=new_stat, inner_iters=step.inner_iters,
            backtracks=step.doublings, wall_millis=wall,
        )
        trace.rows.append(row)
        if row_sink is not None:
            row_sink(row)
        trace.x_final, trace.f_final, trace.R_final, trace.stat_final = y, f_new, R_new, new_stat
        yield center, step

        center, fk, R, stat = next_center, f_new, R_new, new_stat
        M = max(step.M_used / 2.0, config.M0)

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
