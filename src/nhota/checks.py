"""Named self-check suite behind ``nhota check``.

Every check is small, independent, and reports one pass/fail line with a
margin.  The "quick" scale finishes in well under a minute; "full" adds
desk-scale problem sizes.  ``CHECKS`` is the one registry: ``nhota check``
runs it, and the test suite runs each quick-scale check as its own test.

The reference oracles the checks measure against (central differences, the
grid prox, the grid subdifferential distance, and the fresh re-certification
of every step the solver's own outer loop accepts) live here once; the
acceptance criteria in the tests call these same copies.
"""

from __future__ import annotations

import tempfile
from contextlib import suppress
from dataclasses import dataclass, replace
from math import factorial
from pathlib import Path
from typing import Callable
from unittest import mock

import numpy as np

from . import driver
from .core import OracleFailure, SmoothOracle, dense_hessian, prox_l1, subdiff_dist_l1
from .driver import (
    IterateTrace,
    LineSearchFailure,
    RunConfig,
    check_reference_descent,
    nhota_run,
    nhota_steps,
)
from .inner import (
    InnerSolveFailure,
    _solve_closed_form,
    certify,
    residual_floor,
    solve_subproblem,
)
from .metrics import kl_probe, rate_fit, remainder_check, stationarity
from .problems import (
    DiagQuadL1Data,
    data_hash,
    exact_solution_diag,
    gen_diag_quad_l1,
    gen_phase_retrieval,
)
from .taylor import ModelCenter, model_grad, model_value, taylor_grad, taylor_value

SCALES = ("quick", "full")


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def render_results(results: list[CheckResult]) -> str:
    lines = [
        f"{'PASS' if r.passed else 'FAIL'}  {r.name}  ({r.detail})" for r in results
    ]
    bad = sum(not r.passed for r in results)
    lines.append(f"{len(results) - bad}/{len(results)} checks passed")
    return "\n".join(lines)


# name -> check(scale) -> (passed, detail), in report order
CHECKS: dict[str, Callable[[str], tuple[bool, str]]] = {}
FULL_ONLY = ("desk_scale_phase_retrieval", "scaled_phase_retrieval_ends")


def _named(name: str, scaled: bool = False):
    """Register a check; only a ``scaled`` check receives the scale."""
    def register(fn):
        CHECKS[name] = fn if scaled else (lambda scale: fn())
        return fn
    return register


def check_names(scale: str = "quick") -> list[str]:
    if scale not in SCALES:
        raise ValueError(f"scale must be 'quick' or 'full', got {scale!r}")
    return [name for name in CHECKS if scale == "full" or name not in FULL_ONLY]


def run_check(name: str, scale: str = "quick") -> CheckResult:
    try:
        passed, detail = CHECKS[name](scale)
    except Exception as exc:  # a crashed check is a failed check
        passed, detail = False, f"raised {exc!r}"
    return CheckResult(name=name, passed=passed, detail=detail)


def check_suite(scale: str = "quick") -> list[CheckResult]:
    """Run every named check; ``scale`` is "quick" or "full"."""
    return [run_check(name, scale) for name in check_names(scale)]


# ---------------------------------------------------------- reference oracles


def fd_jac(fun: Callable, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central differences: column j is (fun(x + h e_j) - fun(x - h e_j)) / 2h.

    For a scalar ``fun`` the result is the gradient.
    """
    cols = []
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = h
        cols.append((np.asarray(fun(x + e), float) - np.asarray(fun(x - e), float)) / (2 * h))
    return np.stack(cols, axis=-1)


def _rel_err(a, b) -> float:
    a, b = np.asarray(a, float), np.asarray(b, float)
    return float(np.linalg.norm(a - b) / max(1.0, np.linalg.norm(b)))


def fd_errors(problem, points) -> tuple[float, float, float]:
    """Largest relative central-difference gap of grad and of hess, and the
    largest Hessian asymmetry max|H - H^T|, over ``points``."""
    smooth = problem.smooth
    grad_err = hess_err = asym = 0.0
    for x in points:
        g, H = smooth.grad(x), dense_hessian(smooth.hess(x))
        grad_err = max(grad_err, _rel_err(fd_jac(smooth.value, x), g))
        hess_err = max(hess_err, _rel_err(fd_jac(smooth.grad, x), H))
        asym = max(asym, float(np.max(np.abs(H - H.T))))
    return grad_err, hess_err, asym


def grid_prox_1d(v: float, tau: float, step: float = 1e-4) -> float:
    """Brute-force argmin of tau*|y| + (1/2)(y - v)^2 on a grid over [-2, 2]."""
    ys = np.arange(-2.0, 2.0 + step, step)
    return float(ys[np.argmin(tau * np.abs(ys) + 0.5 * (ys - v) ** 2)])


def random_prox_pairs(seed: int, count: int) -> list[tuple[float, float]]:
    rng = np.random.default_rng(seed)
    return [(float(rng.uniform(-1.5, 1.5)), float(rng.uniform(0.05, 1.0)))
            for _ in range(count)]


def prox_grid_gap(pairs) -> float:
    """Largest |prox_l1(v, tau) - grid argmin| over (v, tau) pairs."""
    return max(abs(float(prox_l1(np.array([v]), tau)[0]) - grid_prox_1d(v, tau))
               for v, tau in pairs)


def grid_subdiff_dist(g, x, lam: float) -> float:
    """dist(0, g + lam*s), s in the product of subgradient intervals, by
    per-coordinate refined grid search (the objective is separable, so
    coordinates minimize independently)."""
    total = 0.0
    for gi, xi in zip(np.asarray(g, float), np.asarray(x, float)):
        if xi != 0.0:
            total += (gi + lam * np.sign(xi)) ** 2
            continue
        lo, hi = -1.0, 1.0
        for _ in range(8):
            ss = np.linspace(lo, hi, 101)
            vals = np.abs(gi + lam * ss)
            j = int(np.argmin(vals))
            width = (hi - lo) / 100
            lo, hi = max(-1.0, ss[j] - width), min(1.0, ss[j] + width)
        total += float(vals[j]) ** 2
    return float(np.sqrt(total))


def random_subdiff_cases(seed: int, count: int) -> list:
    """(g, x, lam) with 1-3 coordinates, each x_i zero with probability 1/2."""
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(count):
        n = int(rng.integers(1, 4))
        x = rng.normal(size=n)
        x[rng.random(n) < 0.5] = 0.0
        cases.append((rng.normal(size=n), x, float(rng.uniform(0.05, 1.0))))
    return cases


def subdiff_grid_gap(cases) -> float:
    """Largest |subdiff_dist_l1 - grid enumeration| over (g, x, lam) cases."""
    return max(abs(subdiff_dist_l1(g, x, lam) - grid_subdiff_dist(g, x, lam))
               for g, x, lam in cases)


def recertify_run(problem, x0, cfg: RunConfig) -> tuple[int, list[str]]:
    """Drive the solver's own outer loop and re-certify every accepted step.

    A fresh ``certify`` must show the model decrease and a residual at most
    theta*||s||^p + 1e-8.  Returns (steps checked, failure lines).
    """
    checked, failures = 0, []
    for k, (center, step) in enumerate(nhota_steps(problem, x0, cfg, IterateTrace())):
        fresh = certify(problem, center, step.y, step.M, cfg.theta,
                        witness_p=step.witness)
        checked += 1
        if not fresh.decrease_ok:
            failures.append(f"k={k}: model decrease failed")
        bound = cfg.theta * fresh.step_norm**cfg.p
        if fresh.residual > bound + 1e-8:
            failures.append(f"k={k}: residual {fresh.residual:.3e} above "
                            f"threshold {bound:.3e} + 1e-8")
    return checked, failures


def with_dense_hessian(problem):
    """Same problem with ``hess`` returning the dense n-by-n matrix, also
    where the problem's own callback returns a diagonal as a vector; a
    diagonal problem then takes the proximal-gradient loop, not the
    closed-form p = 2 step."""
    hess = problem.smooth.hess
    return replace(problem, smooth=replace(problem.smooth,
                                           hess=lambda x: dense_hessian(hess(x))))


def closed_form_against_loop(problem, x0, M: float,
                             theta: float) -> tuple[float, list[str]]:
    """The p = 2 subproblem at x0 solved both ways: in closed form, with the
    diagonal Hessian as its vector, and by the proximal-gradient loop, with
    it as the dense matrix (``with_dense_hessian``).

    The closed form must certify (it raises ``InnerSolveFailure`` where it
    does not); each step must re-certify from scratch (``certify``: model decrease, residual
    at most theta*||s||^2 + ``residual_floor``); and the closed form's model
    value plus h, the subproblem's objective, must be at most the loop's
    plus its rounding.  Returns (the closed form's model value less the
    loop's, failure lines).
    """
    center = ModelCenter.from_oracle(problem.smooth, x0, 2)
    closed = _solve_closed_form(problem, center, M, theta, max_inner=500)
    dense = with_dense_hessian(problem)
    loop_center = ModelCenter.from_oracle(dense.smooth, x0, 2)
    loop = solve_subproblem(dense, loop_center, M, theta)
    failures, values = [], []
    for label, prob, c, (y, _, witness) in (("closed form", problem, center, closed),
                                             ("loop", dense, loop_center, loop)):
        fresh = certify(prob, c, y, M, theta, witness_p=witness)
        if not (fresh.decrease_ok and fresh.residual <= fresh.threshold + residual_floor(c)):
            failures.append(f"{label} step does not re-certify: decrease "
                            f"{fresh.decrease_ok}, residual {fresh.residual:.3e}, "
                            f"threshold {fresh.threshold:.3e}")
        values.append(model_value(c, y, M) + float(prob.nonsmooth.value(y)))
    gap = values[0] - values[1]
    rounding = 8.0 * np.finfo(float).eps * (abs(center.fx) + abs(values[1]))
    if gap > rounding:
        failures.append(f"closed-form model value {values[0]!r} above the loop's "
                        f"{values[1]!r} by more than {rounding:.1e}")
    return gap, failures


def random_quadratic(n: int, seed: int) -> SmoothOracle:
    """F(x) = x.Hx/2 + b.x with H = AA^T + I, A and b standard normal."""
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n, n))
    H = A @ A.T + np.eye(n)
    b = rng.normal(size=n)
    return SmoothOracle(
        dim=n,
        order=2,
        value=lambda x: 0.5 * float(x @ (H @ x)) + float(b @ x),
        grad=lambda x: H @ x + b,
        hess=lambda x: H,
    )


# ---------------------------------------------------------------- core checks


@_named("prox_soft_threshold_examples")
def _check_prox_examples() -> tuple[bool, str]:
    exact = np.array_equal(prox_l1(np.array([3.0, -0.5, 0.0]), 1.0),
                           np.array([2.0, 0.0, 0.0]))
    got = prox_l1(np.array([3.0, -3.0, 0.2]), 1.0)
    err = float(np.max(np.abs(got - np.array([2.0, -2.0, 0.0]))))
    got2 = prox_l1(np.array([0.7]), 0.5)
    err = max(err, abs(float(got2[0]) - 0.2))
    return exact and err <= 1e-15, (
        f"max deviation {err:.1e}, exact case {'ok' if exact else 'wrong'}"
    )


@_named("prox_tiny_tau_identity")
def _check_prox_tiny_tau() -> tuple[bool, str]:
    err = 0.0
    for v in (np.array([1.0, -2.0, 0.0, 0.3]), np.array([0.3, -1.7, 0.0, 4.2])):
        err = max(err, float(np.max(np.abs(prox_l1(v, 1e-300) - v))))
    return err <= 1e-12, f"max deviation {err:.1e}"


@_named("prox_grid_agreement")
def _check_prox_grid() -> tuple[bool, str]:
    pairs = [(0.7, 0.5), (-1.3, 0.4), (0.2, 0.9), (1.5, 1e-3)] + random_prox_pairs(1, 40)
    worst = prox_grid_gap(pairs)
    oracle = abs(grid_prox_1d(0.7, 0.5) - 0.2)
    return max(worst, oracle) <= 2e-4, (
        f"max gap to grid argmin {worst:.2e} over {len(pairs)} pairs; "
        f"grid oracle off the worked example by {oracle:.1e}"
    )


@_named("prox_nonexpansive")
def _check_prox_nonexpansive() -> tuple[bool, str]:
    rng = np.random.default_rng(11)
    worst = -np.inf
    for _ in range(200):
        a, b = rng.normal(size=8), rng.normal(size=8)
        tau = float(rng.uniform(1e-3, 2.0))
        lhs = np.linalg.norm(prox_l1(a, tau) - prox_l1(b, tau))
        worst = max(worst, float(lhs - np.linalg.norm(a - b)))
    return worst <= 1e-12, f"max ||Pa-Pb|| - ||a-b|| = {worst:.2e}"


@_named("prox_optimality_vs_perturbations")
def _check_prox_optimality() -> tuple[bool, str]:
    rng = np.random.default_rng(12)
    v = rng.normal(size=6)
    tau = 0.7
    y = prox_l1(v, tau)
    fy = tau * np.abs(y).sum() + 0.5 * np.sum((y - v) ** 2)
    worst = -np.inf
    for _ in range(1000):
        z = y + rng.normal(scale=rng.uniform(1e-4, 1.0), size=6)
        fz = tau * np.abs(z).sum() + 0.5 * np.sum((z - v) ** 2)
        worst = max(worst, float(fy - fz))
    return worst <= 1e-12, f"max f(prox) - f(perturbed) = {worst:.2e}"


@_named("subdiff_dist_examples")
def _check_subdiff_examples() -> tuple[bool, str]:
    a = np.array  # (g, x, lam, expected, tolerance); tolerance 0 means exact
    cases = [
        (a([-0.5, 0.2]), a([2.0, 0.0]), 0.5, 0.0, 1e-15),
        (a([1.0]), a([1.0]), 0.5, 1.5, 1e-15),
        (a([0.8]), a([0.0]), 0.5, 0.3, 1e-15),
        (a([-0.5]), a([1.0]), 0.5, 0.0, 0.0),
        (a([2.0]), a([0.0]), 0.5, 1.5, 0.0),
        (a([-0.2]), a([1.0]), 0.5, 0.3, 1e-15),
        (a([-0.5, 2.0, -0.2]), a([1.0, 0.0, 1.0]), 0.5, np.sqrt(1.5**2 + 0.3**2), 1e-14),
    ]
    errs = [abs(subdiff_dist_l1(g, x, lam) - want) for g, x, lam, want, _ in cases]
    ok = all(err <= tol for err, (*_, tol) in zip(errs, cases))
    return ok, f"max example error {max(errs):.1e}"


@_named("subdiff_zero_iff_prox_fixed_point")
def _check_subdiff_zero_iff_opt() -> tuple[bool, str]:
    rng = np.random.default_rng(13)
    lam = 0.3
    ok = True
    for _ in range(100):
        v = rng.normal(size=5)
        x = prox_l1(v, lam)  # optimality: 0 in (x - v) + lam*d||x||_1
        d = subdiff_dist_l1(x - v, x, lam)
        ok = ok and d <= 1e-12
    x = np.array([1.0, 0.0])
    d_off = subdiff_dist_l1(np.array([1.0, 2.0]), x, lam)
    ok = ok and d_off > 0.1
    return ok, "prox fixed points give 0; off-optimal points give > 0"


@_named("subdiff_grid_enumeration")
def _check_subdiff_grid() -> tuple[bool, str]:
    cases = random_subdiff_cases(14, 25) + random_subdiff_cases(2, 30)
    worst = subdiff_grid_gap(cases)
    return worst <= 1e-10, f"max gap to grid enumeration {worst:.2e} over {len(cases)} cases"


# -------------------------------------------------------------- taylor checks


def _quartic_problem():
    problem, _, x0 = gen_phase_retrieval(6, 30, seed=21, noise_scale=1.0)
    return problem, x0


@_named("taylor_matches_finite_differences")
def _check_taylor_fd() -> tuple[bool, str]:
    problem, x0 = _quartic_problem()
    y0 = x0 + 0.3 * np.arange(1, 7) / 7.0
    cases = [(problem.smooth, x0, y0, p, 2.5) for p in (1, 2)]
    quadratic = random_quadratic(6, seed=8)
    rng = np.random.default_rng(9)
    for p in (1, 2):
        for _ in range(10):
            x = rng.normal(size=6)
            y = x + rng.normal(scale=0.5, size=6)
            cases.append((quadratic, x, y, p, float(rng.uniform(0.5, 20.0))))
    worst = 0.0
    for oracle, x, y, p, M in cases:
        center = ModelCenter.from_oracle(oracle, x, p)
        worst = max(worst, _rel_err(fd_jac(lambda t: taylor_value(center, t), y),
                                    taylor_grad(center, y)))
        worst = max(worst, _rel_err(fd_jac(lambda t: model_value(center, t, M), y),
                                    model_grad(center, y, M)))
    return worst <= 1e-6, f"max relative FD error {worst:.2e} over {len(cases)} cases"


@_named("taylor_exact_on_quadratics")
def _check_taylor_exact_quadratic() -> tuple[bool, str]:
    problem, _, x0 = gen_diag_quad_l1(8, seed=3)
    rng = np.random.default_rng(15)
    pairs = [(problem.smooth, x0, x0 + rng.normal(size=8)) for _ in range(20)]
    quadratic = random_quadratic(5, seed=6)
    rng = np.random.default_rng(7)
    pairs += [(quadratic, rng.normal(size=5), rng.normal(size=5)) for _ in range(10)]
    worst_v = worst_g = 0.0
    for oracle, x, y in pairs:
        center = ModelCenter.from_oracle(oracle, x, 2)
        worst_v = max(worst_v, abs(taylor_value(center, y) - float(oracle.value(y))))
        worst_g = max(worst_g, float(np.max(np.abs(taylor_grad(center, y) - oracle.grad(y)))))
    return max(worst_v, worst_g) <= 1e-10, (
        f"on quadratics max |T_2 - F| = {worst_v:.2e}, "
        f"max |grad T_2 - grad F| = {worst_g:.2e}"
    )


@_named("model_regularization_monotone")
def _check_model_reg_monotone() -> tuple[bool, str]:
    problem, x0 = _quartic_problem()
    center = ModelCenter.from_oracle(problem.smooth, x0, 2)
    direction = np.ones(6) / np.sqrt(6.0)
    radii = np.linspace(0.1, 2.0, 15)
    gaps = [model_value(center, x0 + r * direction, 3.0) - taylor_value(center, x0 + r * direction)
            for r in radii]
    ok = all(g >= 0 for g in gaps) and all(b > a for a, b in zip(gaps, gaps[1:]))
    return ok, "regularization gap nonnegative and radially increasing"


# ------------------------------------------------------------ problem checks


def _phase_fd_errors(cases) -> tuple[float, float, float]:
    """``fd_errors`` maxima over phase instances (n, m, seed, point seed,
    point std), ten random points each."""
    worst = np.zeros(3)
    for n, m, seed, point_seed, std in cases:
        problem, _, _ = gen_phase_retrieval(n, m, seed=seed, noise_scale=1.0)
        rng = np.random.default_rng(point_seed)
        points = [rng.normal(0.0, std, size=n) for _ in range(10)]
        worst = np.maximum(worst, fd_errors(problem, points))
    return tuple(float(w) for w in worst)


@_named("phase_gradient_finite_differences")
def _check_phase_grad_fd() -> tuple[bool, str]:
    grad_err, _, _ = _phase_fd_errors([(8, 40, 5, 16, 1.0), (8, 32, 3, 30, 0.8)])
    return grad_err <= 1e-5, f"max relative FD error {grad_err:.2e}"


@_named("phase_hessian_finite_differences")
def _check_phase_hess_fd() -> tuple[bool, str]:
    _, hess_err, asym = _phase_fd_errors([(8, 40, 5, 17, 1.0), (6, 24, 4, 31, 0.8)])
    return hess_err <= 1e-5 and asym <= 1e-12, (
        f"max relative FD error {hess_err:.2e}, asymmetry {asym:.1e}"
    )


@_named("phase_hessian_two_loop_reference")
def _check_phase_hess_reference() -> tuple[bool, str]:
    err = sym = 0.0
    for m, seed, point_seed in ((20, 6, 18), (12, 5, 32)):
        problem, data, _ = gen_phase_retrieval(5, m, seed=seed, noise_scale=0.5)
        x = np.random.default_rng(point_seed).normal(size=5)
        H = problem.smooth.hess(x)
        # H = (2/m) * sum_i (3 s_i^2 - y_i) a_i a_i^T, built entry by entry
        ref = np.zeros((5, 5))
        for i in range(data.m):
            a = data.A[i]
            s = float(a @ x)
            w = (2.0 / data.m) * (3.0 * s * s - data.y[i])
            for j in range(5):
                for l in range(5):
                    ref[j, l] += w * a[j] * a[l]
        sym = max(sym, float(np.max(np.abs(H - H.T))))
        err = max(err, float(np.max(np.abs(H - ref))))
    return err <= 1e-10 and sym <= 1e-12, f"entrywise gap {err:.1e}, asymmetry {sym:.1e}"


@_named("generation_determinism")
def _check_generation_determinism() -> tuple[bool, str]:
    _, d1, x1 = gen_phase_retrieval(7, 23, seed=42, noise_scale=1.0)
    _, d2, x2 = gen_phase_retrieval(7, 23, seed=42, noise_scale=1.0)
    same = (
        np.array_equal(d1.A, d2.A) and np.array_equal(d1.y, d2.y)
        and np.array_equal(d1.z, d2.z) and np.array_equal(d1.noise, d2.noise)
        and np.array_equal(x1, x2) and data_hash(d1) == data_hash(d2)
    )
    a, b, c = (gen_phase_retrieval(6, 18, seed=s, noise_scale=1.0) for s in (9, 9, 10))
    same = same and data_hash(a[1]) == data_hash(b[1]) and np.array_equal(a[2], b[2])
    differs = data_hash(a[1]) != data_hash(c[1])
    _, q1, _ = gen_diag_quad_l1(9, seed=4)
    _, q2, _ = gen_diag_quad_l1(9, seed=4)
    same = same and np.array_equal(q1.d, q2.d) and np.array_equal(q1.c, q2.c)
    return same and differs, "regeneration is bit-identical; another seed changes the hash"


@_named("diag_exact_solution")
def _check_diag_exact_solution() -> tuple[bool, str]:
    data = DiagQuadL1Data(d=np.array([1.0]), c=np.array([2.0]), lam=0.5)
    x_star, f_star = exact_solution_diag(data)
    ok = x_star[0] == 1.5 and f_star == 0.875
    problem, data2, _ = gen_diag_quad_l1(30, seed=8)
    xs, _ = exact_solution_diag(data2)
    d = stationarity(problem, xs)
    return ok and d <= 1e-10, f"stationarity at closed-form optimum {d:.1e}"


# -------------------------------------------------------------- inner checks


def _small_instances(count: int, seed: int = 100):
    rng = np.random.default_rng(seed)
    for i in range(count):
        if i % 2 == 0:
            n = int(rng.integers(2, 11))
            problem, _, x0 = gen_phase_retrieval(
                n, 5 * n, seed=int(rng.integers(0, 10_000)),
                noise_scale=float(rng.choice([0.0, 1.0, 5.0])),
                lam=float(rng.choice([0.0, 1e-3, 0.1])),
            )
        else:
            n = int(rng.integers(1, 11))
            problem, _, x0 = gen_diag_quad_l1(
                n, seed=int(rng.integers(0, 10_000)),
                lam=float(rng.choice([1e-3, 0.1, 1.0])),
            )
        yield problem, x0, int(rng.integers(1, 3))


@_named("certificate_soundness")
def _check_certificate_soundness() -> tuple[bool, str]:
    count = 0
    for problem, x0, p in _small_instances(30, seed=101):
        config = RunConfig(p=p, stop_stat=-1.0, max_outer=3)
        checked, failures = recertify_run(problem, x0, config)
        if failures:
            return False, failures[0]
        count += checked
    return True, f"{count} accepted steps re-certified (slack 1e-8)"


@_named("inner_monotone_and_witness")
def _check_inner_monotone_witness() -> tuple[bool, str]:
    problem, _, x0 = gen_phase_retrieval(6, 30, seed=9, noise_scale=1.0, lam=0.05)
    lam = 0.05
    center = ModelCenter.from_oracle(problem.smooth, x0, 2)
    f0 = problem.f(x0)
    y, cert, witness = solve_subproblem(problem, center, M=5.0, theta=0.1)
    decrease = model_value(center, y, 5.0) + problem.nonsmooth.value(y) - f0
    wit_ok = True
    if witness is not None:
        wit_ok = bool(np.all(np.abs(witness) <= lam + 1e-10))
        nz = y != 0
        wit_ok = wit_ok and bool(np.all(np.abs(witness[nz] - lam * np.sign(y[nz])) <= 1e-10))
    return decrease <= 1e-12 and cert.valid and wit_ok, (
        f"model decrease {decrease:.2e}, residual {cert.residual:.2e} "
        f"<= threshold {cert.threshold:.2e}"
    )


@_named("closed_form_p2_step_against_loop", scaled=True)
def _check_closed_form_against_loop(scale: str) -> tuple[bool, str]:
    """p = 2 subproblems on diagonal instances, solved in closed form and by
    the dense proximal-gradient loop (``closed_form_against_loop``)."""
    rng = np.random.default_rng(22)
    count, largest_n = (12, 60) if scale == "quick" else (60, 300)
    worst = -np.inf
    for i in range(count):
        n, seed = int(rng.integers(1, largest_n + 1)), int(rng.integers(0, 10_000))
        lam = 0.0 if i % 3 == 0 else float(rng.choice([1e-3, 0.1, 1.0]))
        M = float(10.0 ** rng.uniform(-4.0, 4.0))
        problem, _, x0 = gen_diag_quad_l1(n, seed=seed, lam=lam)
        gap, failures = closed_form_against_loop(problem, x0, M, theta=0.1)
        if failures:
            return False, f"n={n} seed={seed} lam={lam:g} M={M:.2e}: {failures[0]}"
        worst = max(worst, gap)
    return True, (f"{count} diagonal subproblems: both steps re-certified, closed-form "
                  f"model value minus the loop's at most {worst:.1e}")


# -------------------------------------------------------------- driver checks


def _seeded_runs(scale: str):
    seeds = (1, 2) if scale == "quick" else (1, 2, 3, 4, 5)
    for seed in seeds:
        for p in (1, 2):
            for u in (0.05, 1.0):
                problem, _, x0 = gen_phase_retrieval(10, 60, seed=seed, noise_scale=1.0)
                cfg = RunConfig(p=p, u=u, max_outer=40, stop_stat=1e-3)
                yield "phase", seed, p, u, nhota_run(problem, x0, cfg), cfg
                problem, _, x0 = gen_diag_quad_l1(20, seed=seed)
                cfg = RunConfig(p=p, u=u, max_outer=40, stop_stat=1e-9)
                yield "diag", seed, p, u, nhota_run(problem, x0, cfg), cfg


@_named("reference_descent_invariants", scaled=True)
def _check_reference_invariants(scale: str) -> tuple[bool, str]:
    runs = 0
    for name, seed, p, u, trace, cfg in _seeded_runs(scale):
        violations = trace.check_invariants(cfg)
        if violations:
            return False, f"{name} seed={seed} p={p} u={u}: {violations[0]}"
        runs += 1
    return True, f"reference descent and level set: clean over {runs} runs"


@_named("monotone_objective_at_u1")
def _check_monotone_u1() -> tuple[bool, str]:
    runs = [
        (gen_phase_retrieval(10, 60, seed=3, noise_scale=1.0),
         dict(stop_stat=-1.0)),
        (gen_phase_retrieval(8, 40, seed=2, noise_scale=0.5), {}),
    ]
    ok, steps, tied = True, [], 0.0
    for (problem, _, x0), stops in runs:
        trace = nhota_run(problem, x0, RunConfig(p=2, u=1.0, max_outer=40, **stops))
        f_vals, r_vals = trace.f_values(), trace.r_values()
        tied = max(tied, float(np.max(np.abs(r_vals - f_vals))))
        ok = ok and len(trace.rows) > 0 and bool(np.all(np.diff(f_vals) <= 0.0))
        steps.append(str(trace.iterations()))
    return ok and tied == 0.0, (
        f"objective monotone over {' and '.join(steps)} steps, max |R - f| = {tied:.1e}"
    )


def _sign_flipped_accept(R, f_cand, step_norm, Mtilde, p) -> bool:
    """``accept_test`` with Mtilde's sign flipped: admits uphill steps."""
    return f_cand <= R + Mtilde / factorial(p + 1) * step_norm ** (p + 1)


# Phase 8/40 instances for the corrupted rule: on seeds 3, 8, 9 and 11 it
# admits a step that ends above the reference.
FAULT_SEEDS = range(3, 12)


def _corrupted_run(seed: int) -> tuple[int, int, int]:
    """One run under ``_sign_flipped_accept``: the steps it admitted that the
    true ``accept_test`` rejects, how many of those are uphill (f(y) > R), and
    the reference-descent violations the checker flags in the run."""
    problem, _, x0 = gen_phase_retrieval(8, 40, seed=seed, noise_scale=1.0)
    config = RunConfig(p=2, Mtilde=10.0, u=1.0, max_outer=12, stop_stat=-1.0)
    true_test = driver.accept_test
    wrong = uphill = 0

    def corrupted(R, f_cand, step_norm, Mtilde, p):
        nonlocal wrong, uphill
        admitted = _sign_flipped_accept(R, f_cand, step_norm, Mtilde, p)
        if admitted and not true_test(R, f_cand, step_norm, Mtilde, p):
            wrong += 1
            uphill += f_cand > R
        return admitted

    trace = IterateTrace()
    # The corrupted iterates quickly go wild; a solver failure along the way
    # just ends the run early, keeping the rows recorded before it.
    with mock.patch.object(driver, "accept_test", corrupted), \
            suppress(LineSearchFailure, InnerSolveFailure, OracleFailure):
        for _ in nhota_steps(problem, x0, config, trace):
            pass
    return wrong, uphill, len(trace.check_invariants(config))


@_named("fault_injection_catches_corruption")
def _check_fault_injection() -> tuple[bool, str]:
    """A corrupted acceptance test (Mtilde sign flipped) must be caught by
    the reference-descent checker; this guards the checker itself.

    Over the ``FAULT_SEEDS`` runs it counts the steps the corrupted rule
    admitted that the true test rejects.  Not each of those breaks the
    invariant the checker states, which allows any u >= u_min and so only
    asks R to fall by u_min * Mtilde/(p+1)! ||s||^(p+1); an uphill one
    (f(y) > R, so R rises for every u) does.  So at least one uphill step
    must occur, and every run with one must be flagged.  The checker must
    also pass a clean run and flag one of its reference values pushed above
    its predecessor."""
    runs = [_corrupted_run(seed) for seed in FAULT_SEEDS]
    wrong = sum(w for w, _, _ in runs)
    uphill_runs = [flagged for _, uphill, flagged in runs if uphill]
    violations = sum(flagged for _, _, flagged in runs)

    problem, _, x0 = gen_diag_quad_l1(12, seed=5)
    cfg = RunConfig(p=2, u=0.5, max_outer=30)
    trace = nhota_run(problem, x0, cfg)
    f_vals, r_vals, steps = trace.f_values(), trace.r_values(), trace.step_norms()
    clean = check_reference_descent(f_vals, r_vals, steps, cfg.u_min, cfg.Mtilde, cfg.p)
    r_vals[len(r_vals) // 2] = r_vals[len(r_vals) // 2 - 1] + 1.0
    raised = check_reference_descent(f_vals, r_vals, steps, cfg.u_min, cfg.Mtilde, cfg.p)
    caught = len(uphill_runs) > 0 and all(uphill_runs)
    return caught and not clean and len(raised) > 0, (
        f"corrupted rule admitted {wrong} steps the true test rejects over "
        f"{len(runs)} runs, uphill in {len(uphill_runs)} runs; checker flagged "
        f"{violations} violations, in {sum(map(bool, uphill_runs))} of those runs, "
        f"{len(raised)} of a raised reference value, {len(clean)} on a clean run"
    )


# ------------------------------------------------------------- metric checks


@_named("rate_fit_power_law")
def _check_rate_fit() -> tuple[bool, str]:
    ok, worst_secant = True, 0.0
    for scale, exponent, size in ((1.0, -2.0 / 3.0, 60), (3.0, -1.7, 50),
                                  (1.0, -2.0 / 3.0, 200)):
        series = np.concatenate(([1.0], scale * np.arange(1, size, dtype=float) ** exponent))
        fit = rate_fit(series)
        # independent secants: across the window endpoints and across k = 10..40
        for a, b in ((fit.window[0], fit.window[1] - 1), (10, 40)):
            secant = (np.log(series[b]) - np.log(series[a])) / (np.log(b) - np.log(a))
            worst_secant = max(worst_secant, abs(fit.slope - secant))
        ok = (ok and abs(fit.slope - exponent) <= 1e-6 and fit.r2 >= 1.0 - 1e-12
              and fit.window == (3, size))
    return ok and worst_secant <= 1e-3, (
        f"slopes exact to 1e-6 on k^-2/3 (60 and 200 points) and 3k^-1.7, "
        f"secant gap {worst_secant:.1e}"
    )


@_named("kl_probe_synthetic")
def _check_kl_probe() -> tuple[bool, str]:
    # 2^-k must read as geometric with rho = 1/2 and k^-2 as a power law with
    # beta = 2; slot k = 0 of the power series is a throwaway head
    k = np.arange(1, 60, dtype=float)
    rho_err = beta_err = 0.0
    for size, power in ((40, np.r_[2.0, k[:39] ** -2.0]), (60, np.r_[1.5, 1.0 / k**2])):
        lin = kl_probe(2.0 ** -np.arange(size, dtype=float), f_star=0.0)
        sub = kl_probe(power, f_star=0.0)
        if (lin.kind, lin.beta, sub.kind, sub.rho) != ("linear", None, "sublinear", None):
            return False, f"{size} points: 2^-k -> {lin.kind}, k^-2 -> {sub.kind}"
        rho_err = max(rho_err, abs(lin.rho - 0.5))
        beta_err = max(beta_err, abs(sub.beta - 2.0))
    return rho_err <= 1e-9 and beta_err <= 1e-6, (
        f"2^-k linear, k^-2 sublinear on 40 and 60 points; rho error "
        f"{rho_err:.1e}, beta error {beta_err:.1e}"
    )


@_named("remainder_bound_phase", scaled=True)
def _check_remainder_phase(scale: str) -> tuple[bool, str]:
    if scale == "quick":
        problem, _, x0 = gen_phase_retrieval(8, 40, seed=7, noise_scale=1.0)
        samples, pairs = 60, 60
    else:
        problem, _, x0 = gen_phase_retrieval(20, 200, seed=7, noise_scale=1.0)
        samples, pairs = 500, 200
    # Only the p=2 value bound is asserted.  For p=1 the audited quotient is
    # the very statistic L_hat estimates, so a fresh-sample sup can beat the
    # empirical-sup estimate by more than the 1.05 headroom; those margins
    # are reported as diagnostics.
    rep2 = remainder_check(problem, x0, radius=1.0, samples=samples, p=2, pairs=pairs)
    rep1 = remainder_check(problem, x0, radius=1.0, samples=samples, p=1, pairs=pairs)
    return rep2.passed, (
        f"p=2 margin {rep2.margin:.3e} (diagnostics: p=2 grad "
        f"{rep2.grad_margin:.3e}, p=1 value {rep1.margin:.3e})"
    )


@_named("remainder_bound_diag")
def _check_remainder_diag() -> tuple[bool, str]:
    problem, _, x0 = gen_diag_quad_l1(50, seed=5)
    ok = True
    detail = []
    for p in (1, 2):
        rep = remainder_check(problem, x0, radius=1.0, samples=60, p=p, pairs=100)
        ok = ok and rep.passed
        detail.append(f"p={p}: margin {rep.margin:.2e}, L_hat {rep.L_hat:.2e}")
    # constant Hessian: no third derivative, so p=2 is exact up to roundoff
    problem, _, _ = gen_diag_quad_l1(8, seed=3)
    rep = remainder_check(problem, np.zeros(8), radius=1.0, samples=100)
    ok = (ok and rep.passed and rep.L_hat <= 1e-10
          and rep.margin >= 0.0 and rep.grad_margin >= 0.0)
    detail.append(f"n=8 at 0, p=2: L_hat {rep.L_hat:.2e}, margins "
                  f"{rep.margin:.2e} / {rep.grad_margin:.2e}")
    return ok, "; ".join(detail)


@_named("lipschitz_constant_grows_with_box")
def _check_lipschitz_growth() -> tuple[bool, str]:
    """The empirical derivative Lipschitz constant must grow with the box,
    confirming why a fixed global constant is not usable here."""
    problem, _, x0 = gen_phase_retrieval(8, 40, seed=7, noise_scale=1.0)
    reps = [remainder_check(problem, x0, radius=r, samples=50, p=2, pairs=80)
            for r in (1.0, 8.0)]
    grew = reps[1].L_hat > 1.5 * reps[0].L_hat
    return grew, f"L_hat {reps[0].L_hat:.2f} at radius 1 -> {reps[1].L_hat:.2f} at radius 8"


@_named("stationarity_perturbation_envelope")
def _check_stationarity_perturbation() -> tuple[bool, str]:
    problem, _, x0 = gen_phase_retrieval(8, 40, seed=10, noise_scale=1.0, lam=0.05)
    rng = np.random.default_rng(19)
    n = 8
    worst = -np.inf
    s0 = stationarity(problem, x0)
    g0 = np.asarray(problem.smooth.grad(x0), float)
    for _ in range(50):
        delta = rng.normal(size=n) * rng.uniform(1e-6, 1e-1)
        gd = np.asarray(problem.smooth.grad(x0 + delta), float)
        envelope = float(np.linalg.norm(gd - g0)) + 2 * 0.05 * np.sqrt(n)
        worst = max(worst, abs(stationarity(problem, x0 + delta) - s0) - envelope)
    return worst <= 1e-12, f"max excess over perturbation envelope {worst:.2e}"


@_named("diag_quad_convergence")
def _check_diag_convergence() -> tuple[bool, str]:
    problem, data, x0 = gen_diag_quad_l1(30, seed=6)
    _, f_star = exact_solution_diag(data)
    cfg = RunConfig(p=2, u=0.5, max_outer=50, stop_stat=-1.0)
    trace = nhota_run(problem, x0, cfg)
    gap = trace.f_final - f_star
    return gap <= 1e-8, f"f - f* = {gap:.2e} after {trace.iterations()} iterations"


@_named("trace_and_summary_files")
def _check_trace_files() -> tuple[bool, str]:
    from .cli import ExperimentConfig, run_experiment
    from .driver import TRACE_HEADER

    with tempfile.TemporaryDirectory() as tmp:
        cfg = ExperimentConfig(problem="diag_quad_l1", n=10, seed=3, lam=0.1,
                               run=RunConfig(p=2, max_outer=20, stop_stat=1e-8),
                               out_dir=str(Path(tmp) / "out"))
        run_experiment(cfg)
        lines = (Path(tmp) / "out" / "trace.csv").read_text().splitlines()
        header_ok = lines[0] == TRACE_HEADER
        rows_ok = all(len(line.split(",")) == 9 for line in lines[1:])
        summary = (Path(tmp) / "out" / "summary.txt").read_text()
        keys_ok = all(f"{key}=" in summary for key in
                      ("status", "final_f", "final_stationarity", "fitted_slope"))
    return header_ok and rows_ok and keys_ok, (
        f"header exact, {len(lines) - 1} rows well-formed, summary keys present"
    )


@_named("desk_scale_phase_retrieval")
def _check_desk_scale() -> tuple[bool, str]:
    problem, _, x0 = gen_phase_retrieval(100, 1000, seed=1, noise_scale=1.0)
    cfg = RunConfig(p=2, u=0.5, max_outer=500, stop_stat=1e-3)
    trace = nhota_run(problem, x0, cfg)
    done = trace.status == "stationary"
    return done, (
        f"status {trace.status} after {trace.iterations()} iterations, "
        f"final stationarity {trace.stat_final:.2e}"
    )


@_named("scaled_phase_retrieval_ends")
def _check_scaled_phase() -> tuple[bool, str]:
    """Badly scaled desk-size instances end stationary or at the precision
    floor, not in a LineSearchFailure.  While the p = 2 resolution ignored
    the model's curvature, both p = 2 runs stalled above it at every M and
    doubled M to exhaustion; while the p = 1 resolution ignored M, both
    p = 1 runs did."""
    ends = []
    for p, gen_variance, seed in ((2, 2.0, 2), (2, 500.0, 0), (1, 500.0, 0), (1, 100.0, 1)):
        problem, _, x0 = gen_phase_retrieval(100, 1000, seed=seed, noise_scale=1.0,
                                             gen_variance=gen_variance)
        cfg = RunConfig(p=p, u=0.5, stop_stat=1e-3)
        cell = f"p={p} gen_variance {gen_variance:g} seed {seed}"
        try:
            trace = nhota_run(problem, x0, cfg)
        except LineSearchFailure as exc:
            return False, f"{cell}: {exc}"
        if trace.status not in ("stationary", "precision-floor"):
            return False, f"{cell}: status {trace.status}"
        ends.append(f"{cell}: {trace.status} after {trace.iterations()} steps "
                    f"at {trace.stat_final:.1e}")
    return True, "; ".join(ends)
