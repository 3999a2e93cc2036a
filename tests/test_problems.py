"""Seeded problem generators: formulas, draw order, closed forms, round-trips."""

import hashlib
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nhota import (
    RunConfig,
    SmoothOracle,
    exact_solution_diag,
    gen_diag_quad_l1,
    gen_phase_retrieval,
    load_phase_retrieval,
    nhota_run,
    save_phase_retrieval,
    subdiff_dist_l1,
)
from nhota import problems
from nhota.core import CompositeProblem, norm, scale_resolution
from nhota.driver import format_trace_row
from nhota.problems import DiagQuadL1Data, data_hash, diag_quad_problem, phase_oracle
from support import with_callback_counts


# --------------------------------------------------------- phase retrieval


def test_phase_value_and_gradient_at_origin():
    prob, data, _ = gen_phase_retrieval(12, 60, seed=0, noise_scale=1.0)
    zero = np.zeros(12)
    expected = 0.5 / 60 * float(np.sum(data.y**2))
    assert abs(prob.smooth.value(zero) - expected) <= 1e-12 * max(1.0, expected)
    assert np.array_equal(prob.smooth.grad(zero), np.zeros(12))


def test_phase_oracle_rejects_an_order_above_two():
    _, data, x0 = gen_phase_retrieval(4, 12, seed=0, noise_scale=1.0)
    with pytest.raises(ValueError, match="order must be 0, 1 or 2"):
        phase_oracle(data, x0, 3)


def test_phase_measurement_formula():
    prob, data, _ = gen_phase_retrieval(9, 45, seed=1, noise_scale=0.7)
    assert np.array_equal(data.y, (data.A @ data.z) ** 2 + data.noise)


def test_phase_noiseless_signal_is_global_minimum():
    prob, data, _ = gen_phase_retrieval(10, 50, seed=2, noise_scale=0.0)
    assert prob.smooth.value(data.z) <= 1e-18
    lam = data.lam
    assert abs(prob.f(data.z) - lam * np.abs(data.z).sum()) <= 1e-15


def test_objective_checks_its_point():
    # f is a public entry point: the callbacks behind it take x unchecked
    prob, data, _ = gen_phase_retrieval(6, 30, seed=0, noise_scale=1.0)
    assert prob.f(data.z.tolist()) == prob.f(data.z)
    for bad in (data.z[:5], np.full(6, np.nan)):
        with pytest.raises(ValueError):
            prob.f(bad)


def test_phase_draw_order_is_frozen():
    # one PCG64 stream per instance: A, then z, then noise, then x0
    n, m, seed, noise_scale = 7, 21, 11, 0.8
    prob, data, x0 = gen_phase_retrieval(n, m, seed=seed, noise_scale=noise_scale)
    rng = np.random.default_rng(seed)
    std = np.sqrt(0.5)
    assert np.array_equal(data.A, rng.normal(0.0, std, size=(m, n)))
    assert np.array_equal(data.z, rng.normal(0.0, std, size=n))
    assert np.array_equal(data.noise, rng.normal(0.0, noise_scale, size=m))
    assert np.array_equal(x0, rng.normal(0.0, 1.0, size=n))


def test_phase_hessian_scratch_reuse_keeps_bytes_and_results():
    # the problem's Hessian callback reuses one scratch block: its output
    # must match phase_oracle's, which allocates a block per call, bit for
    # bit, and a later call must not overwrite an earlier result
    prob, data, x0 = gen_phase_retrieval(7, 30, seed=11, noise_scale=0.5)
    x1 = x0 + 0.3
    H0 = prob.smooth.hess(x0)
    H0_before = H0.copy()
    H1 = prob.smooth.hess(x1)
    assert np.array_equal(H0, H0_before)
    assert np.array_equal(H0, phase_oracle(data, x0, 2))
    assert np.array_equal(H1, phase_oracle(data, x1, 2))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(1, 9),
    seed=st.integers(0, 10_000),
    gen_variance=st.sampled_from([0.05, 0.5, 5.0, 50.0]),
    noise_scale=st.sampled_from([0.0, 1.0]),
    block_rows=st.integers(1, 24),
    shape=st.sampled_from(["below", "equal", "multiple", "ragged"]),
    j=st.integers(1, 23),
    point=st.sampled_from(["x0", "near z", "z/sqrt(3)", "0", "10 x0"]),
)
def test_phase_hessian_is_the_row_sum_to_rounding(n, seed, gen_variance, noise_scale,
                                                  block_rows, shape, j, point):
    # H = 2/m (P^T P - N^T N), summed over row blocks of each sign of
    # w_i = 3 s_i^2 - y_i, against 2/m sum_i w_i a_i a_i^T formed row by row
    # from the same s = A.x: within c * eps * m of the entries' absolute sum,
    # for m below, equal to, a multiple of and not a multiple of the block's
    # rows; at z / sqrt(3), where 3 s_i^2 = y_i - noise_i and the terms
    # cancel; at 0, where every w_i = -y_i; and at 10 x0, where nearly every
    # w_i is positive, so each side in turn is empty or fills several blocks
    j = 1 + (j - 1) % block_rows
    m = {"below": max(1, block_rows - j), "equal": block_rows,
         "multiple": 3 * block_rows, "ragged": 2 * block_rows + j}[shape]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(problems, "_HESS_BLOCK_BYTES", 8 * n * block_rows)
        prob, data, x0 = gen_phase_retrieval(n, m, seed=seed, noise_scale=noise_scale,
                                             gen_variance=gen_variance)
        rng = np.random.default_rng(seed)
        x = {"x0": x0, "near z": data.z + 1e-3 * rng.normal(size=n),
             "z/sqrt(3)": data.z / np.sqrt(3.0), "0": np.zeros(n), "10 x0": 10.0 * x0}[point]
        H = prob.smooth.hess(x)
        assert np.array_equal(H, phase_oracle(data, x, 2))
    s = data.A @ x
    ref = np.zeros((n, n))
    scale = np.zeros((n, n))
    for a, s_i, y_i in zip(data.A, s, data.y):
        ref += (3.0 * s_i * s_i - y_i) * np.outer(a, a)
        scale += (3.0 * s_i * s_i + abs(y_i)) * np.outer(np.abs(a), np.abs(a))
    ref *= 2.0 / m
    scale *= 2.0 / m
    assert np.array_equal(H, H.T)
    assert np.max(np.abs(H - ref)) <= 8.0 * np.finfo(float).eps * m * np.max(scale)


def test_phase_hessian_working_set_is_one_block():
    # the first Hessian forms the scratch block and allocates H, one
    # product and a few m-vectors; a later one (at a point whose A.x is
    # cached, as in a run) the same without the block; the problem keeps the
    # block and the cached A.x, no n-by-n array, and at no time an m-by-n
    # array
    n = 200
    rows = problems._HESS_BLOCK_BYTES // (8 * n)
    _, data, x0 = gen_phase_retrieval(n, 3 * rows + 17, seed=0, noise_scale=1.0)
    block, square = rows * n * 8, n * n * 8
    assert block + 4 * square < data.A.nbytes
    peaks = []
    tracemalloc.start()
    try:
        prob = problems.phase_retrieval_problem(data)
        for point in (x0, x0 + 0.1):
            prob.smooth.value(point)
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            prob.smooth.hess(point)
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert peaks[0] < block + 3 * square
    assert peaks[1] < 4 * square
    assert held < block + 2 * data.y.nbytes


def test_phase_hessian_block_is_formed_once_per_problem_and_never_at_p1(monkeypatch):
    formed = []
    form = problems._hessian_block
    monkeypatch.setattr(problems, "_hessian_block", lambda data: formed.append(1) or form(data))
    prob, _, x0 = gen_phase_retrieval(10, 50, seed=3, noise_scale=1.0)
    prob, calls = with_callback_counts(prob)
    cfg = RunConfig(stop_stat=1e-9, stop_f=-np.inf, max_outer=30)
    nhota_run(prob, x0, replace(cfg, p=1))
    assert not formed and calls["hess"] == 0 and calls["grad"] > 1
    nhota_run(prob, x0, replace(cfg, p=2))
    assert formed == [1] and calls["hess"] > 1


def test_phase_product_cache_misses_after_in_place_change():
    # the cache is keyed on a copy of the point's bytes, so changing the
    # caller's array in place must not serve the old A.x
    prob, data, x0 = gen_phase_retrieval(7, 30, seed=11, noise_scale=0.5)
    x = x0.copy()
    assert prob.smooth.value(x) == phase_oracle(data, x0, 0)
    x[3] += 0.25
    assert prob.smooth.value(x) == phase_oracle(data, x, 0)
    assert np.array_equal(prob.smooth.grad(x), phase_oracle(data, x, 1))
    assert np.array_equal(prob.smooth.hess(x), phase_oracle(data, x, 2))
    assert prob.smooth.value(x0) == phase_oracle(data, x0, 0)


@pytest.mark.parametrize("p", [1, 2])
@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(
    family=st.sampled_from(["phase", "diag"]),
    seed=st.integers(0, 10_000),
    u=st.floats(0.01, 1.0),
    lam=st.one_of(st.just(0.0), st.floats(1e-6, 1.0)),
)
def test_phase_product_cache_keeps_traces_byte_identical(p, family, seed, u, lam):
    # a problem object carries state from one run into the next (the phase
    # callbacks' cached A.x; the centers' Hessians are formed from its
    # callbacks): a second run on the same object repeats the first byte for
    # byte, and a phase run matches the uncached phase_oracle
    if family == "phase":
        prob, data, x0 = gen_phase_retrieval(12, 60, seed=seed, noise_scale=1.0, lam=lam)
        uncached = replace(prob, smooth=SmoothOracle(
            dim=data.n, order=2,
            value=lambda x: phase_oracle(data, x, 0),
            grad=lambda x: phase_oracle(data, x, 1),
            hess=lambda x: phase_oracle(data, x, 2),
        ))
        problems = (prob, prob, uncached)
    else:
        prob, _, x0 = gen_diag_quad_l1(12, seed=seed, lam=lam)
        problems = (prob, prob)
    cfg = RunConfig(p=p, u=u, stop_stat=1e-9, stop_f=-np.inf, max_outer=60)
    runs = [nhota_run(problem, x0, cfg) for problem in problems]
    lines = [[format_trace_row(replace(row, wall_millis=0.0)) for row in run.rows]
             for run in runs]
    assert lines[0] and all(other == lines[0] for other in lines[1:])
    assert all(run.status == runs[0].status for run in runs)
    assert all(run.x_final.tobytes() == runs[0].x_final.tobytes() for run in runs)


def test_phase_generator_validation():
    with pytest.raises(ValueError):
        gen_phase_retrieval(0, 10, seed=0, noise_scale=1.0)
    with pytest.raises(ValueError):
        gen_phase_retrieval(5, 0, seed=0, noise_scale=1.0)
    with pytest.raises(ValueError):
        gen_phase_retrieval(5, 10, seed=0, noise_scale=-1.0)


# ------------------------------------------------------------ diag-quad-l1


def test_exact_solution_zero_weight_recovers_target():
    data = DiagQuadL1Data(d=np.array([2.0, 3.0]), c=np.array([1.0, -4.0]), lam=0.0)
    x_star, f_star = exact_solution_diag(data)
    assert np.array_equal(x_star, data.c) and f_star == 0.0


def test_exact_solution_zero_target_is_zero():
    data = DiagQuadL1Data(d=np.array([1.0, 2.0]), c=np.zeros(2), lam=0.3)
    x_star, f_star = exact_solution_diag(data)
    assert np.array_equal(x_star, np.zeros(2)) and f_star == 0.0


def test_exact_solution_satisfies_optimality():
    for seed in range(5):
        prob, data, _ = gen_diag_quad_l1(12, seed=seed)
        x_star, f_star = exact_solution_diag(data)
        g = prob.smooth.grad(x_star)
        assert subdiff_dist_l1(g, x_star, data.lam) <= 1e-12
        rng = np.random.default_rng(100 + seed)
        for _ in range(50):
            perturbed = x_star + rng.normal(0.0, 0.3, size=12)
            assert prob.f(perturbed) >= f_star - 1e-12


def test_diag_problem_attaches_known_opt():
    prob, data, _ = gen_diag_quad_l1(8, seed=6)
    x_star, f_star = exact_solution_diag(data)
    assert np.array_equal(prob.known_opt[0], x_star)
    assert prob.known_opt[1] == f_star
    assert abs(prob.f(x_star) - f_star) <= 1e-12 * max(1.0, abs(f_star))


def test_badly_scaled_diag_instances_keep_their_known_opt():
    # curvatures up to 1e6 and targets of size 1e3: the residual of the
    # computed minimizer rounds to ~2e-7, above an absolute 1e-8, which
    # rejected every one of these seeds; the check is relative to the
    # problem's scale
    for seed in range(20):
        prob, data, _ = gen_diag_quad_l1(50, seed, d_range=(1e5, 1e6), c_std=1e3)
        assert np.array_equal(prob.known_opt[0], exact_solution_diag(data)[0])


def test_known_opt_allows_for_the_curvature_at_x_star():
    # d(x* - c) rounds at eps * d * |c| ~ 2e-5 here, above the scale term
    # sqrt(eps) * (1 + |f| + ||grad||) ~ 2.5e-8 but below the curvature term
    # sqrt(eps * (1 + |f|) * max d) ~ 3e-5; one step of 1e-9 off x* is not
    # rounding and still fails
    data = DiagQuadL1Data(d=np.array([1e6, 3e6, 7e5]),
                          c=np.array([1.2345e4, -3.3e4, 2.1e4]), lam=1e-5)
    prob = diag_quad_problem(data)
    x_star, f_star = exact_solution_diag(data)
    g = prob.smooth.grad(x_star)
    assert subdiff_dist_l1(g, x_star, data.lam) > scale_resolution(prob.f(x_star), norm(g))
    with pytest.raises(ValueError, match="known_opt fails stationarity"):
        CompositeProblem(smooth=prob.smooth, nonsmooth=prob.nonsmooth,
                         known_opt=(x_star + np.array([0.0, 1e-9, 0.0]), f_star))


def test_diag_generator_validation():
    with pytest.raises(ValueError):
        gen_diag_quad_l1(0, seed=0)
    with pytest.raises(ValueError):
        gen_diag_quad_l1(5, seed=0, d_range=(0.0, 1.0))
    with pytest.raises(ValueError):
        diag_quad_problem(DiagQuadL1Data(d=np.array([-1.0]), c=np.array([0.0]),
                                         lam=0.1))


# ------------------------------------------------------------- persistence


def test_save_load_round_trip_is_bit_exact(tmp_path):
    _, data, x0 = gen_phase_retrieval(7, 28, seed=13, noise_scale=0.6, lam=2e-4)
    path = tmp_path / "data.npz"
    save_phase_retrieval(data, path)
    prob2, data2, x0_2 = load_phase_retrieval(path)
    for field in ("A", "y", "z", "noise", "x0"):
        assert np.array_equal(getattr(data, field), getattr(data2, field))
    assert data2.lam == data.lam and data2.seed == data.seed
    assert data2.noise_scale == data.noise_scale
    assert np.array_equal(x0_2, x0)
    assert data_hash(data) == data_hash(data2)
    assert prob2.f(x0) == prob2.f(x0_2)


def test_data_hash_is_sha256_of_the_array_bytes():
    _, data, _ = gen_phase_retrieval(6, 18, seed=14, noise_scale=0.5)
    expected = hashlib.sha256(data.A.tobytes() + data.y.tobytes()).hexdigest()
    assert data_hash(data) == expected
    _, diag, _ = gen_diag_quad_l1(6, seed=1)
    expected = hashlib.sha256(diag.d.tobytes() + diag.c.tobytes()).hexdigest()
    assert data_hash(diag) == expected


def test_data_hash_rejects_other_data():
    with pytest.raises(TypeError, match="unsupported data type"):
        data_hash({"A": np.zeros((2, 2))})


def test_data_hash_distinguishes_instances():
    _, data, _ = gen_phase_retrieval(6, 18, seed=14, noise_scale=0.5)
    _, other, _ = gen_phase_retrieval(6, 18, seed=14, noise_scale=0.9)
    assert data_hash(data) != data_hash(other)
    _, diag_a, _ = gen_diag_quad_l1(6, seed=1)
    _, diag_b, _ = gen_diag_quad_l1(6, seed=2)
    assert data_hash(diag_a) != data_hash(diag_b)
