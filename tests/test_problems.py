"""Seeded problem generators: formulas, draw order, closed forms, round-trips."""

import hashlib
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
from nhota.driver import format_trace_row
from nhota.problems import DiagQuadL1Data, data_hash, diag_quad_problem, phase_oracle


# --------------------------------------------------------- phase retrieval


def test_phase_value_and_gradient_at_origin():
    prob, data, _ = gen_phase_retrieval(12, 60, seed=0, noise_scale=1.0)
    zero = np.zeros(12)
    expected = 0.5 / 60 * float(np.sum(data.y**2))
    assert abs(prob.smooth.value(zero) - expected) <= 1e-12 * max(1.0, expected)
    assert np.array_equal(prob.smooth.grad(zero), np.zeros(12))


def test_phase_measurement_formula():
    prob, data, _ = gen_phase_retrieval(9, 45, seed=1, noise_scale=0.7)
    assert np.array_equal(data.y, (data.A @ data.z) ** 2 + data.noise)


def test_phase_noiseless_signal_is_global_minimum():
    prob, data, _ = gen_phase_retrieval(10, 50, seed=2, noise_scale=0.0)
    assert prob.smooth.value(data.z) <= 1e-18
    lam = data.lam
    assert abs(prob.f(data.z) - lam * np.abs(data.z).sum()) <= 1e-15


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
    # the problem's Hessian callback reuses one m-by-n scratch array: its
    # output must match a fresh-temporary evaluation bit for bit, and a later
    # call must not overwrite an earlier result
    prob, data, x0 = gen_phase_retrieval(7, 30, seed=11, noise_scale=0.5)
    x1 = x0 + 0.3
    H0 = prob.smooth.hess(x0)
    H0_before = H0.copy()
    H1 = prob.smooth.hess(x1)
    assert np.array_equal(H0, H0_before)
    assert np.array_equal(H0, phase_oracle(data, x0, 2))
    assert np.array_equal(H1, phase_oracle(data, x1, 2))


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


def test_data_hash_distinguishes_instances():
    _, data, _ = gen_phase_retrieval(6, 18, seed=14, noise_scale=0.5)
    _, other, _ = gen_phase_retrieval(6, 18, seed=14, noise_scale=0.9)
    assert data_hash(data) != data_hash(other)
    _, diag_a, _ = gen_diag_quad_l1(6, seed=1)
    _, diag_b, _ = gen_diag_quad_l1(6, seed=2)
    assert data_hash(diag_a) != data_hash(diag_b)
