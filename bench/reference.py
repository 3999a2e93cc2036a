"""Correctness checks computed apart from the program.

Everything here is the benchmark's own numpy code: instance generation
follows the draw order the generators document, and objective values,
gradients, stationarity and the closed-form diagonal optimum are recomputed
from the raw arrays.  No helper of ``nhota`` is called, so a fault in the
program cannot hide itself by also being in the check.
"""

from __future__ import annotations

from math import factorial

import numpy as np

EPS = float(np.finfo(float).eps)


# ------------------------------------------------------------ generation


def phase_arrays(n: int, m: int, seed: int, noise_scale: float = 1.0,
                 gen_variance: float = 0.5):
    """(A, y, z, noise, x0) drawn from PCG64 in the documented order A, z, noise, x0."""
    rng = np.random.default_rng(seed)
    std = float(np.sqrt(gen_variance))
    A = rng.normal(0.0, std, size=(m, n))
    z = rng.normal(0.0, std, size=n)
    noise = rng.normal(0.0, noise_scale, size=m)
    x0 = rng.normal(0.0, 1.0, size=n)
    y = (A @ z) ** 2 + noise
    return A, y, z, noise, x0


def diag_arrays(n: int, seed: int, d_range=(0.5, 5.0), c_std: float = 2.0):
    """(d, c, x0) in the documented draw order: d uniform, c normal, x0 normal."""
    rng = np.random.default_rng(seed)
    d = rng.uniform(d_range[0], d_range[1], size=n)
    c = rng.normal(0.0, c_std, size=n)
    x0 = rng.normal(0.0, 1.0, size=n)
    return d, c, x0


# ------------------------------------------------------------ objectives


def l1_stationarity(g: np.ndarray, x: np.ndarray, lam: float) -> float:
    """dist(0, g + lam * d||x||_1), summed over nonzero and zero coordinates."""
    nz = x != 0.0
    on = g[nz] + lam * np.sign(x[nz])
    off = np.maximum(np.abs(g[~nz]) - lam, 0.0)
    return float(np.sqrt(on @ on + off @ off))


def phase_point(A, y, lam, x):
    """(f, grad F, roundoff scale of grad F) at x for F = 1/(2m) sum (y - (Ax)^2)^2."""
    m = y.shape[0]
    s = A @ x
    r = y - s * s
    w = -r * s
    f = float(r @ r) / (2.0 * m) + lam * float(np.abs(x).sum())
    g = (2.0 / m) * (A.T @ w)
    # Roundoff in g_j scales with sum_i |a_ij w_i| <= ||a_j|| ||w|| (einsum
    # makes no m-by-n temporary, which would count in peak_rss_mb).
    col_norms = np.sqrt(np.einsum("ij,ij->j", A, A))
    g_scale = (2.0 / m) * float(np.linalg.norm(col_norms)) * float(np.linalg.norm(w))
    return f, g, g_scale


def diag_point(d, c, lam, x):
    """(f, grad F) at x for F = 1/2 sum d_i (x_i - c_i)^2."""
    r = x - c
    return 0.5 * float(d @ (r * r)) + lam * float(np.abs(x).sum()), d * r


def diag_optimum(d, c, lam):
    """Closed-form minimizer by soft thresholding c_i at lam / d_i, and f*."""
    x_star = np.where(np.abs(c) > lam / d, c - np.sign(c) * lam / d, 0.0)
    f_star, _ = diag_point(d, c, lam, x_star)
    return x_star, f_star


# ------------------------------------------------------------ checks


def close(a: float, b: float, tol: float) -> bool:
    return bool(np.isfinite(a) and np.isfinite(b) and abs(a - b) <= tol)


def check_reference_descent(trace, u: float, p: int, u_min: float, Mtilde: float) -> list[str]:
    """Properties the acceptance rule guarantees, read from the trace's rows.

    R_k >= f_k at every iterate; R falls by at least
    u_min * Mtilde / (p+1)! * ||s_k||^(p+1) per step; with u = 1, f never rises.
    """
    f = np.array([r.f for r in trace.rows] + [trace.f_final])
    R = np.array([r.R for r in trace.rows] + [trace.R_final])
    s = np.array([r.step_norm for r in trace.rows])
    slack = 1e-12 * max(1.0, float(np.max(np.abs(R))))
    out = []
    if np.any(R < f - slack):
        out.append(f"R_k < f_k at k = {np.flatnonzero(R < f - slack).tolist()}")
    need = u_min * Mtilde / factorial(p + 1) * s ** (p + 1)
    bad = R[1:] > R[:-1] - need + slack
    if np.any(bad):
        out.append(f"R fell by less than u_min*Mtilde/(p+1)!*||s||^(p+1) at k = "
                   f"{np.flatnonzero(bad).tolist()}")
    if u == 1.0 and np.any(f[1:] > f[:-1] + slack):
        out.append("f rose although u = 1")
    return out


def check_phase(trace, A, y, lam, x0, stop_stat: float) -> list[str]:
    """Recompute f and stationarity at x_final; check the stop and descent."""
    out = []
    x = trace.x_final
    f, g, g_scale = phase_point(A, y, lam, x)
    stat = l1_stationarity(g, x, lam)
    f0, _, _ = phase_point(A, y, lam, x0)
    if trace.status != "stationary":
        out.append(f"status {trace.status!r}, expected 'stationary'")
    if not close(f, trace.f_final, 1e-10 * (1.0 + abs(f))):
        out.append(f"f_final {trace.f_final!r} but recomputed f {f!r}")
    if trace.stat_final is None or not close(stat, trace.stat_final,
                                             1e-9 * stat + 1e3 * EPS * g_scale):
        out.append(f"stat_final {trace.stat_final!r} but recomputed {stat!r}")
    if not stat <= stop_stat:
        out.append(f"recomputed stationarity {stat!r} above stop_stat {stop_stat!r}")
    if not f <= f0:
        out.append(f"f_final {f!r} above f(x0) {f0!r}")
    return out


def check_diag(trace, d, c, lam, stop_stat: float) -> list[str]:
    """Strong-convexity bounds against the closed-form optimum."""
    out = []
    x = trace.x_final
    f, g = diag_point(d, c, lam, x)
    stat = l1_stationarity(g, x, lam)
    x_star, f_star = diag_optimum(d, c, lam)
    mu = float(np.min(d))
    # roundoff in f - f*: a few ulps of the largest term summed
    tol_f = 1e3 * EPS * (1.0 + 0.5 * float(d @ (x - c) ** 2) + lam * float(np.abs(x).sum()))
    tol_x = 1e3 * EPS * (1.0 + float(np.linalg.norm(x_star)))
    if trace.status != "stationary":
        out.append(f"status {trace.status!r}, expected 'stationary'")
    if not close(f, trace.f_final, tol_f):
        out.append(f"f_final {trace.f_final!r} but recomputed f {f!r}")
    tol_stat = 1e-9 * stat + 1e3 * EPS * (1.0 + float(np.linalg.norm(g)))
    if trace.stat_final is None or not close(stat, trace.stat_final, tol_stat):
        out.append(f"stat_final {trace.stat_final!r} but recomputed {stat!r}")
    if not stat <= stop_stat:
        out.append(f"recomputed stationarity {stat!r} above stop_stat {stop_stat!r}")
    gap = f - f_star
    if not -tol_f <= gap <= stat * stat / (2.0 * mu) + tol_f:
        out.append(f"f - f* = {gap!r} outside [0, stat^2/(2 min d)] = [0, {stat * stat / (2 * mu)!r}]")
    dist = float(np.linalg.norm(x - x_star))
    if not dist <= stat / mu + tol_x:
        out.append(f"||x - x*|| = {dist!r} above stat/min d = {stat / mu!r}")
    return out
