"""Acceptance gate: eight end-to-end criteria, one printed verdict line each.

Every criterion test prints exactly one "CRITERION n: PASS|FAIL — detail"
line before asserting, so the harness log always carries the verdict even
when pytest captures the output.  Inputs and tolerances are pinned here and
nowhere else; the reference oracles the criteria measure against (central
differences, the grid prox, the grid subdifferential distance, and the
re-certifying outer loop) are the one copy in ``nhota.checks``.
"""

import time

import numpy as np
import pytest

from nhota import (
    RunConfig,
    exact_solution_diag,
    gen_diag_quad_l1,
    gen_phase_retrieval,
    kl_probe,
    min_prefix,
    nhota_run,
    rate_fit,
    remainder_check,
)
from nhota.checks import (
    fd_errors,
    prox_grid_gap,
    random_prox_pairs,
    random_subdiff_cases,
    recertify_run,
    subdiff_grid_gap,
)

DISABLED = dict(stop_stat=0.0)


def report(n: int, ok: bool, detail: str) -> None:
    print(f"CRITERION {n}: {'PASS' if ok else 'FAIL'} — {detail}")


# -------------------------------------------------------------- criterion 1


def test_criterion_1_reference_descent_invariants():
    t0 = time.time()
    violations: list[str] = []
    runs = 0
    instances = [gen_phase_retrieval(20, 200, seed=s, noise_scale=1.0)
                 for s in range(1, 6)]
    instances += [gen_diag_quad_l1(50, seed=s) for s in range(1, 6)]
    for problem, _, x0 in instances:
        for p in (1, 2):
            for u in (0.05, 0.5, 1.0):
                cfg = RunConfig(p=p, u=u)
                trace = nhota_run(problem, x0, cfg)
                violations += trace.check_invariants(cfg, rel_slack=1e-9)
                runs += 1
    wall = time.time() - t0
    ok = not violations and wall < 120.0
    report(1, ok, f"{runs} runs, {len(violations)} invariant violations, "
                  f"{wall:.1f}s (< 120s)")
    assert ok, violations[:5]


# -------------------------------------------------------------- criterion 2


# the rate O(k^{-p/(p+1)}) with 0.2 of slack, per model order p
SLOPE_LIMIT = {2: -2.0 / 3.0 + 0.2, 1: -0.5 + 0.2}


def rate_clause(stat, slope_limit: float) -> tuple[bool, str]:
    """Verdict of one criterion-2 clause on a stationarity series.

    The paper promises an upper bound O(k^{-p/(p+1)}) on the running-minimum
    stationarity, and faster KL-dependent rates on KL functions; it promises
    no power-law shape.  A decay that is geometric or faster fits no power
    law, so the clause passes when the log-log slope clears ``slope_limit``
    and either the power law explains the decay (r2 >= 0.8) or ``kl_probe``
    classifies it as "linear" (geometric or faster).  The slope clause still
    fails a decay that is too slow, a plateau, or a fast decay that stalls.

    The fit runs on the longest strictly positive, finite prefix of the
    running minimum; a prefix too short for ``rate_fit``'s default window
    (which skips k < 3 and needs 5 points) is a FAIL, not an exception.
    """
    s = min_prefix(stat)
    positive = (s > 0.0) & np.isfinite(s)
    prefix = len(s) if positive.all() else int(np.argmin(positive))
    if prefix < 3 + 5:
        return False, (f"only {prefix} positive stationarity values, the "
                       f"rate fit needs >= 8")
    fit = rate_fit(s[:prefix])
    probe = kl_probe(s[:prefix], 0.0)
    ok = fit.slope <= slope_limit and (fit.r2 >= 0.8 or probe.kind == "linear")
    return ok, (f"slope {fit.slope:.3f} (need <= {slope_limit:.3f}), r2 "
                f"{fit.r2:.3f} (need >= 0.8) or kl '{probe.kind}' (r2 linear "
                f"{probe.r2_linear:.3f}, r2 power {probe.r2_power:.3f})")


def test_criterion_2_stationarity_rate_shape():
    problem, _, x0 = gen_phase_retrieval(20, 200, seed=7, noise_scale=1.0)
    parts, ok = [], True
    for p in (2, 1):
        cfg = RunConfig(p=p, u=0.5, max_outer=200, **DISABLED)
        trace = nhota_run(problem, x0, cfg)
        good, detail = rate_clause(trace.stationarity_values(), SLOPE_LIMIT[p])
        ok = ok and good
        parts.append(f"p={p}: {detail}")
    report(2, ok, "; ".join(parts))
    assert ok, "; ".join(parts)


_K = np.arange(201, dtype=float)
_K1 = np.maximum(_K, 1.0)  # s_0 = s_1, so s_k = k^-a exactly for k >= 1


@pytest.mark.parametrize("name, series, expect", [
    ("k^-2/3", _K1 ** (-2.0 / 3.0), {2: True, 1: True}),
    ("2^-k", 2.0 ** -_K, {2: True, 1: True}),
    ("2^-(2^k), quadratic", 0.5 ** (2.0 ** _K[:10]), {2: True, 1: True}),
    ("k^-0.2", _K1 ** -0.2, {2: False, 1: False}),
    ("k^-0.4", _K1 ** -0.4, {2: False, 1: True}),
    ("plateau", np.full(201, 0.5), {2: False, 1: False}),
    ("2^-k stalled at 1e-3", np.maximum(2.0 ** -_K, 1e-3), {2: False, 1: False}),
    ("2^-k stalled at 1e-6", np.maximum(2.0 ** -_K, 1e-6), {2: False, 1: False}),
    ("6 positive values, then 0", np.where(_K < 6, 2.0 ** -_K, 0.0), {2: False, 1: False}),
])
def test_criterion_2_clause_passes_promised_rates_and_fails_slow_or_stalled(
        name, series, expect):
    for p, want in expect.items():
        got, detail = rate_clause(series, SLOPE_LIMIT[p])
        assert got == want, f"{name}, p={p}: {detail}"


# -------------------------------------------------------------- criterion 3


# the promised O(k^-p) bound on f - f* with 0.3 of slack, for p = 2
CONVEX_SLOPE_LIMIT = -2.0 + 0.3


def convex_rate_clause(f_values, f_star: float) -> tuple[bool, str]:
    """Verdict of criterion 3's rate clause on delta_k = f(x_k) - f*.

    It reads the longest strictly positive prefix of delta.  When that
    prefix holds the 5 points k >= 1 that ``rate_fit`` needs, the clause
    passes when the log-log slope over k = 1 .. prefix - 1 is at most
    ``CONVEX_SLOPE_LIMIT`` or ``kl_probe`` classifies the decay as "linear"
    (geometric or faster).  A run that reaches f* in fewer steps leaves too
    few points to fit, so the promised upper bound is judged on its points
    directly, with the fit's own exponent: delta_k * k^1.7 <= delta_1 for
    k >= 2.
    """
    delta = np.asarray(f_values, dtype=float) - f_star
    prefix = 0
    while prefix < len(delta) and delta[prefix] > 0.0:
        prefix += 1
    if prefix - 1 >= 5:
        fit = rate_fit(delta[:prefix], window=(1, prefix))
        probe = kl_probe(f_values, f_star)
        return fit.slope <= CONVEX_SLOPE_LIMIT or probe.kind == "linear", (
            f"slope {fit.slope:.2f} (need <= {CONVEX_SLOPE_LIMIT:.1f}) or kl '{probe.kind}'")
    k = np.arange(2, prefix, dtype=float)
    ratio = float(np.max(delta[2:prefix] * k ** -CONVEX_SLOPE_LIMIT, initial=0.0))
    ratio /= delta[1] if prefix > 1 else 1.0
    return ratio <= 1.0, (f"{prefix - 1} positive values after k=0, too few to fit: "
                          f"max delta_k*k^{-CONVEX_SLOPE_LIMIT:.1f}/delta_1 over k >= 2 "
                          f"{ratio:.1e} (need <= 1)")


def test_criterion_3_convex_rate_on_exact_optimum():
    problem, data, x0 = gen_diag_quad_l1(50, seed=3)
    _, f_star = exact_solution_diag(data)
    cfg = RunConfig(p=2, u=0.5, max_outer=60, **DISABLED)
    trace = nhota_run(problem, x0, cfg)
    delta = trace.f_values() - f_star

    hits = np.nonzero(delta <= 1e-10)[0]
    hit_k = int(hits[0]) if len(hits) else -1
    rate_ok, detail = convex_rate_clause(trace.f_values(), f_star)

    ok = 0 <= hit_k <= 60 and rate_ok
    report(3, ok, f"delta <= 1e-10 at k={hit_k} (need <= 60); {detail}")
    assert ok


_SHORT = np.arange(5, dtype=float)


@pytest.mark.parametrize("name, series, expect", [
    ("k^-2", _K1 ** -2.0, True),
    ("2^-k", 2.0 ** -_K[:60], True),
    ("k^-0.2", _K1 ** -0.2, False),
    ("plateau", np.full(201, 0.5), False),
    ("short k^-2, then 0", np.append(np.maximum(_SHORT, 1.0) ** -2.0, 0.0), True),
    ("short 10^-(2^k), then 0", np.append(10.0 ** -(2.0 ** _SHORT), 0.0), True),
    ("short k^-0.2, then 0", np.append(np.maximum(_SHORT, 1.0) ** -0.2, 0.0), False),
    ("short plateau, then 0", np.append(np.full(5, 0.5), 0.0), False),
    ("short k^-1.5, then 0", np.append(np.maximum(_SHORT, 1.0) ** -1.5, 0.0), False),
])
def test_criterion_3_clause_passes_promised_rates_and_fails_slow_or_flat(
        name, series, expect):
    got, detail = convex_rate_clause(series, 0.0)
    assert got == expect, f"{name}: {detail}"


# -------------------------------------------------------------- criterion 4


def test_criterion_4_kl_regime_classification():
    problem, data, x0 = gen_diag_quad_l1(50, seed=1)
    _, f_star = exact_solution_diag(data)
    cfg = RunConfig(p=1, u=0.5, max_outer=400, **DISABLED)
    probe = kl_probe(nhota_run(problem, x0, cfg), f_star)

    geo = kl_probe(2.0 ** -np.arange(0, 60, dtype=float), 0.0)
    pow_series = np.concatenate([[1.5], 1.0 / np.arange(1, 60, dtype=float) ** 2])
    pow_probe = kl_probe(pow_series, 0.0)

    ok = (probe.kind == "linear"
          and geo.kind == "linear" and abs(geo.rho - 0.5) <= 1e-6
          and pow_probe.kind == "sublinear" and abs(pow_probe.beta - 2.0) <= 0.1)
    report(4, ok, f"strongly convex run: '{probe.kind}' (rho "
                  f"{probe.rho if probe.rho else float('nan'):.3f}); synthetic "
                  f"2^-k: '{geo.kind}' rho {geo.rho:.3f}; synthetic k^-2: "
                  f"'{pow_probe.kind}' beta {pow_probe.beta}")
    assert ok


# -------------------------------------------------------------- criterion 5


def test_criterion_5_desk_scale_reproduction():
    problem, _, x0 = gen_phase_retrieval(100, 1000, seed=0, noise_scale=1.0,
                                         lam=1e-5)
    parts, ok = [], True
    for u in (0.05, 0.25, 0.5, 0.75, 1.0):
        t0 = time.time()
        cfg = RunConfig(p=2, u=u, max_outer=500, stop_stat=1e-3)
        trace = nhota_run(problem, x0, cfg)
        wall = time.time() - t0
        reached = trace.f_final <= 1e-3 or trace.stat_final <= 1e-3
        good = reached and len(trace.rows) <= 500 and wall < 300.0
        if u == 1.0:
            good = good and bool(np.all(np.diff(trace.f_values()) <= 0.0))
        ok = ok and good
        parts.append(f"u={u:g}: k={len(trace.rows)}, stat "
                     f"{trace.stat_final:.1e}, {wall:.1f}s")
    report(5, ok, "; ".join(parts) + "; u=1 monotone")
    assert ok, parts


# -------------------------------------------------------------- criterion 6


def test_criterion_6_certificate_soundness():
    rng = np.random.default_rng(2026)
    failures: list[str] = []
    checked = 0
    for i in range(100):
        seed = 1000 + i
        if i % 2 == 0:
            n = int(rng.integers(3, 11))
            noise = float(rng.choice([0.0, 0.5, 1.0]))
            problem, _, x0 = gen_phase_retrieval(n, 4 * n, seed=seed,
                                                 noise_scale=noise)
        else:
            n = int(rng.integers(2, 11))
            problem, _, x0 = gen_diag_quad_l1(n, seed=seed)
        p = int(rng.choice([1, 2]))
        u = float(rng.choice([0.05, 0.5, 1.0]))
        steps, fails = recertify_run(problem, x0, RunConfig(p=p, u=u, max_outer=60))
        checked += steps
        failures += [f"i={i} {line}" for line in fails]
    ok = not failures and checked > 0
    report(6, ok, f"{checked} accepted steps re-certified across 100 "
                  f"instances, {len(failures)} failures (slack 1e-8)")
    assert ok, failures[:5]


# -------------------------------------------------------------- criterion 7


def test_criterion_7_oracle_correctness():
    problem, _, _ = gen_phase_retrieval(10, 40, seed=5, noise_scale=1.0)
    rng = np.random.default_rng(123)
    points = [rng.normal(0.0, 0.8, size=10) for _ in range(10)]
    grad_err, hess_err, _ = fd_errors(problem, points)
    prox_err = prox_grid_gap([(0.7, 0.5)] + random_prox_pairs(124, 40))
    sub_err = subdiff_grid_gap(random_subdiff_cases(125, 25))

    ok = grad_err <= 1e-5 and hess_err <= 1e-5 and prox_err <= 2e-4 and sub_err <= 1e-10
    report(7, ok, f"FD grad err {grad_err:.2e}, FD hess err {hess_err:.2e} "
                  f"(<= 1e-5); prox-grid err {prox_err:.2e} (<= 2e-4); "
                  f"subdiff-grid err {sub_err:.2e} (<= 1e-10)")
    assert ok


# -------------------------------------------------------------- criterion 8


def test_criterion_8_remainder_bound_on_shipped_problems():
    shipped = {
        "phase-20": gen_phase_retrieval(20, 200, seed=7, noise_scale=1.0),
        "phase-100": gen_phase_retrieval(100, 1000, seed=0, noise_scale=1.0),
        "diag-50": gen_diag_quad_l1(50, seed=3),
    }
    parts, ok = [], True
    for name, (problem, _, x0) in shipped.items():
        rep = remainder_check(problem, x0, radius=1.0, samples=500)
        ok = ok and rep.passed and rep.margin >= 0.0
        parts.append(f"{name}: margin {rep.margin:+.3e}")
    report(8, ok, "; ".join(parts) + " (all need >= 0)")
    assert ok, parts
