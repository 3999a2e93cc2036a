"""Vector plumbing, the l1 prox, and the exact l1 subdifferential distance.

The worked examples and the grid-oracle agreement of the prox and the
subdifferential distance are named checks in ``nhota.checks``.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nhota import (
    CompositeProblem,
    NonsmoothTerm,
    SmoothOracle,
    l1_term,
    prox_l1,
    subdiff_dist_l1,
)
from nhota.core import as_vector, norm


# -------------------------------------------------------------- as_vector


def test_as_vector_accepts_lists_and_scalars():
    v = as_vector([1, 2, 3])
    assert v.dtype == np.float64 and v.shape == (3,)
    assert as_vector(2.5).shape == (1,)
    for x, expected in ((np.arange(3), [0.0, 1.0, 2.0]), (np.array(4.0), [4.0]),
                        (np.array([1.5], dtype=np.float32), [1.5])):
        v = as_vector(x)
        assert v.dtype == np.float64 and v.ndim == 1 and v.tolist() == expected


def test_as_vector_returns_a_float_vector_as_it_is():
    v = np.array([1.0, -2.0, 3.5])
    assert as_vector(v) is v and as_vector(v, dim=3) is v


def test_as_vector_rejects_bad_input():
    for form in (list, np.array):  # a float array is checked as a list is
        with pytest.raises(ValueError):
            as_vector(form([[1.0, 2.0]]))
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError):
                as_vector(form([1.0, bad]))
        with pytest.raises(ValueError):
            as_vector(form([1.0, 2.0]), dim=3)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 4000), low=st.floats(-150.0, 150.0), width=st.floats(0.0, 300.0),
       seed=st.integers(0, 2**32 - 1))
def test_norm_is_numpys_norm_bit_for_bit(n, low, width, seed):
    # entries of magnitude 10**low to 10**(low + width), capped at 1e150
    rng = np.random.default_rng(seed)
    v = rng.normal(size=n) * 10.0 ** rng.uniform(low, min(low + width, 150.0), size=n)
    assert norm(v) == float(np.linalg.norm(v))


# ---------------------------------------------------------------- prox_l1


def test_prox_l1_rejects_nonpositive_tau():
    with pytest.raises(ValueError):
        prox_l1(np.array([1.0]), 0.0)
    with pytest.raises(ValueError):
        prox_l1(np.array([1.0]), -0.5)


def test_prox_l1_shrinks_toward_zero():
    rng = np.random.default_rng(0)
    for _ in range(50):
        v = rng.normal(0.0, 2.0, size=6)
        tau = float(rng.uniform(0.01, 1.5))
        out = prox_l1(v, tau)
        assert np.all(np.abs(out) <= np.abs(v) + 1e-15)
        nz = out != 0.0
        assert np.array_equal(np.sign(out[nz]), np.sign(v[nz]))


# --------------------------------------------------------- subdiff_dist_l1


def test_subdiff_dist_l1_validation():
    with pytest.raises(ValueError):
        subdiff_dist_l1(np.array([1.0, 2.0]), np.array([1.0]), 0.5)
    with pytest.raises(ValueError):
        subdiff_dist_l1(np.array([1.0]), np.array([1.0]), -0.1)


# ---------------------------------------------------------------- l1_term


def test_l1_term_is_consistent_with_free_functions():
    term = l1_term(0.3)
    v = np.array([1.0, -2.0, 0.0, 0.4])
    assert abs(term.value(v) - 0.3 * np.abs(v).sum()) <= 1e-15
    assert np.array_equal(term.prox(v, 2.0), prox_l1(v, 2.0 * 0.3))
    g = np.array([0.1, -0.8, 0.5, 0.0])
    assert term.subdiff_dist(g, v) == subdiff_dist_l1(g, v, 0.3)


def test_l1_term_zero_weight_is_identity_prox():
    term = l1_term(0.0)
    v = np.array([1.0, -2.0])
    assert term.value(v) == 0.0
    assert np.array_equal(term.prox(v, 5.0), v)
    with pytest.raises(ValueError):
        term.prox(v, 0.0)
    # the subdifferential is the zero set, so the distance is ||g||
    g = np.array([3.0, 4.0])
    assert abs(term.subdiff_dist(g, v) - 5.0) <= 1e-15


@pytest.mark.parametrize("lam", [0.3, 0.0])
def test_l1_term_prox_takes_a_threshold_per_coordinate(lam):
    # an array tau is the prox in the metric diag(1/tau): coordinate i is
    # soft-thresholded at tau_i * lam, as the scalar prox would at that tau
    term = l1_term(lam)
    v = np.array([1.0, -2.0, 0.0, 0.4])
    tau = np.array([0.5, 4.0, 1.0, 2.0])
    expected = [term.prox(v[i:i + 1], float(tau[i]))[0] for i in range(4)]
    assert np.array_equal(term.prox(v, tau), expected)
    for bad in (np.array([0.5, 0.0, 1.0, 2.0]), np.array([0.5, -4.0, 1.0, 2.0]),
                np.array([0.5, np.nan, 1.0, 2.0]), np.full(3, 0.5), np.full((4, 1), 0.5),
                np.full((4, 4), 0.5), 0.0, -1.0, np.nan):
        with pytest.raises(ValueError, match="tau must be positive"):
            term.prox(v, bad)


def test_l1_term_rejects_negative_weight():
    with pytest.raises(ValueError):
        l1_term(-0.1)


# ------------------------------------------------------- CompositeProblem


def quad_oracle(dim: int) -> SmoothOracle:
    return SmoothOracle(
        dim=dim,
        order=2,
        value=lambda x: 0.5 * float(np.asarray(x) @ np.asarray(x)),
        grad=lambda x: np.asarray(x, dtype=float),
        hess=lambda x: np.eye(dim),
    )


def test_composite_f_is_sum_of_parts():
    prob = CompositeProblem(smooth=quad_oracle(3), nonsmooth=l1_term(0.2))
    rng = np.random.default_rng(3)
    for _ in range(10):
        x = rng.normal(size=3)
        expected = 0.5 * float(x @ x) + 0.2 * float(np.abs(x).sum())
        assert abs(prob.f(x) - expected) <= 1e-14


def test_composite_validates_known_opt():
    # x* = 0 is the true minimizer of (1/2)||x||^2 + 0.2||x||_1
    CompositeProblem(
        smooth=quad_oracle(2),
        nonsmooth=l1_term(0.2),
        known_opt=(np.zeros(2), 0.0),
    )
    with pytest.raises(ValueError):
        CompositeProblem(
            smooth=quad_oracle(2),
            nonsmooth=l1_term(0.2),
            known_opt=(np.array([1.0, 1.0]), 1.4),
        )
    for f_star in (np.nan, np.inf):
        with pytest.raises(ValueError, match="f_star is not finite"):
            CompositeProblem(smooth=quad_oracle(2), nonsmooth=l1_term(0.2),
                             known_opt=(np.zeros(2), f_star))


def test_smooth_oracle_validation():
    with pytest.raises(ValueError):
        SmoothOracle(dim=0, order=1, value=lambda x: 0.0, grad=lambda x: x)
    with pytest.raises(ValueError):
        SmoothOracle(dim=1, order=3, value=lambda x: 0.0, grad=lambda x: x)
    with pytest.raises(ValueError):
        SmoothOracle(dim=1, order=2, value=lambda x: 0.0, grad=lambda x: x)


def test_nonsmooth_term_subdiff_optional():
    term = NonsmoothTerm(value=lambda x: 0.0, prox=lambda v, tau: np.asarray(v))
    assert term.subdiff_dist is None
