"""Taylor polynomial and regularized model: hand-worked values and FD checks."""

import numpy as np
import pytest

from nhota import CapabilityError, ModelCenter, OracleFailure, SmoothOracle
from nhota.core import OracleContractError
from nhota.checks import random_quadratic
from nhota.taylor import model_grad, model_value, taylor_grad, taylor_value
from support import quartic_1d

FACT = {1: 1.0, 2: 2.0, 3: 6.0}


# ------------------------------------------------------ hand-worked values


def test_taylor_value_quartic_by_hand():
    # F(t) = t^4 at x = 1: F = 1, F' = 4, F'' = 12.
    # T_2(1.1) = 1 + 4*(0.1) + 6*(0.01) = 1.46
    center = ModelCenter.from_oracle(quartic_1d().smooth, np.array([1.0]), p=2)
    assert abs(taylor_value(center, np.array([1.1])) - 1.46) <= 1e-12


def test_model_value_quartic_by_hand():
    # regularizer with M = 6, p = 2 adds 6/3! * 0.1^3 = 0.001
    center = ModelCenter.from_oracle(quartic_1d().smooth, np.array([1.0]), p=2)
    assert abs(model_value(center, np.array([1.1]), 6.0) - 1.461) <= 1e-12


def test_taylor_grad_quartic_by_hand():
    # dT_2(1.1) = 4 + 12*0.1 = 5.2; model adds M/p! * ||d||^(p-1) * d = 3*0.1*0.1
    center = ModelCenter.from_oracle(quartic_1d().smooth, np.array([1.0]), p=2)
    assert abs(taylor_grad(center, np.array([1.1]))[0] - 5.2) <= 1e-12
    assert abs(model_grad(center, np.array([1.1]), 6.0)[0] - 5.23) <= 1e-12


def test_first_order_model_is_linear_plus_reg():
    # p = 1: T_1(y) = F(x) + g.(y-x); model adds M/2 ||y-x||^2, grad M*(y-x)
    center = ModelCenter.from_oracle(quartic_1d().smooth, np.array([1.0]), p=1)
    assert center.Hx is None
    assert abs(taylor_value(center, np.array([1.1])) - 1.4) <= 1e-12
    assert abs(model_value(center, np.array([1.1]), 6.0) - 1.43) <= 1e-12
    assert abs(model_grad(center, np.array([1.1]), 6.0)[0] - 4.6) <= 1e-12


# -------------------------------------------------------------- identities


def test_model_minus_taylor_is_the_regularizer():
    oracle = random_quadratic(7, seed=4)
    rng = np.random.default_rng(5)
    for p in (1, 2):
        for _ in range(10):
            x = rng.normal(size=7)
            y = rng.normal(size=7)
            M = float(rng.uniform(0.1, 50.0))
            center = ModelCenter.from_oracle(oracle, x, p=p)
            reg = M / FACT[p + 1] * np.linalg.norm(y - x) ** (p + 1)
            got = model_value(center, y, M) - taylor_value(center, y)
            assert abs(got - reg) <= 1e-12 * max(1.0, abs(reg))


def test_model_grad_at_center_is_gx():
    oracle = random_quadratic(4, seed=10)
    x = np.array([0.3, -1.0, 0.5, 2.0])
    for p in (1, 2):
        center = ModelCenter.from_oracle(oracle, x, p=p)
        assert np.array_equal(model_grad(center, x, 3.0), center.gx)


# -------------------------------------------------------------- validation


def test_from_oracle_rejects_order_mismatch():
    first_order = SmoothOracle(
        dim=1, order=1, value=lambda x: float(x[0]), grad=lambda x: np.ones(1)
    )
    with pytest.raises(CapabilityError):
        ModelCenter.from_oracle(first_order, np.zeros(1), p=2)
    # p = 1 against the same oracle is fine
    ModelCenter.from_oracle(first_order, np.zeros(1), p=1)
    with pytest.raises(ValueError, match="p must be 1 or 2"):
        ModelCenter.from_oracle(first_order, np.zeros(1), p=3)


def test_from_oracle_rejects_a_gradient_of_another_shape():
    long_grad = SmoothOracle(dim=1, order=1, value=lambda x: 0.0, grad=lambda x: np.zeros(2))
    with pytest.raises(OracleContractError, match=r"gradient shape \(2,\) != point shape"):
        ModelCenter.from_oracle(long_grad, np.zeros(1), p=1)


def _oracle_with_hessian(n: int, H) -> SmoothOracle:
    return SmoothOracle(dim=n, order=2, value=lambda x: 0.0, grad=lambda x: np.zeros(n),
                        hess=lambda x: H)


def test_asymmetric_hessian_is_rejected_on_first_read():
    bad = _oracle_with_hessian(2, np.array([[1.0, 0.5], [0.2, 1.0]]))
    center = ModelCenter.from_oracle(bad, np.zeros(2), p=2)
    with pytest.raises(ValueError, match="not symmetric"):
        center.Hx


@pytest.mark.parametrize("scale, rel_asym, accepted", [
    (1e4, 1e-6, False),   # real asymmetry stays an error at any scale
    (1e4, 4e-16, True),   # product roundoff (2 ulps) at its own scale passes
    (1e-3, 1e-10, True),  # below unit scale the bound is 1e-12 absolute
    (1e-3, 1e-8, False),
])
def test_hessian_symmetry_tolerance_is_relative(scale, rel_asym, accepted):
    H = scale * np.array([[2.0, 1.0], [1.0 + rel_asym, 3.0]])
    center = ModelCenter.from_oracle(_oracle_with_hessian(2, H), np.zeros(2), p=2)
    if accepted:
        assert center.Hx is not None
    else:
        with pytest.raises(OracleFailure):
            center.Hx


def test_diagonal_hessian_as_a_vector_is_accepted():
    d = np.array([2.0, -7.5, 0.0, 3.0])
    vector = ModelCenter.from_oracle(_oracle_with_hessian(4, d), np.zeros(4), p=2)
    dense = ModelCenter.from_oracle(_oracle_with_hessian(4, np.diag(d)), np.zeros(4), p=2)
    assert np.array_equal(vector.Hx, d)
    assert vector.hess_absmax == 7.5 == dense.hess_absmax


@pytest.mark.parametrize("shape", [(2,), (4,), (3, 1), (1, 3), (3, 4)])
def test_hessian_of_the_wrong_shape_is_rejected(shape):
    center = ModelCenter.from_oracle(_oracle_with_hessian(3, np.ones(shape)), np.zeros(3), p=2)
    with pytest.raises(OracleContractError, match="Hessian shape"):
        center.Hx


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_nonfinite_diagonal_hessian_is_rejected(bad):
    center = ModelCenter.from_oracle(_oracle_with_hessian(3, np.array([1.0, bad, 2.0])),
                                     np.zeros(3), p=2)
    with pytest.raises(OracleFailure, match="Hessian is non-finite"):
        center.Hx


def test_deferred_hessian_is_formed_once_on_demand():
    quartic = quartic_1d().smooth
    for as_returned in (np.asarray, np.diagonal):  # the dense matrix, the diagonal
        calls = []

        def hess(x):
            calls.append(1)
            return as_returned(quartic.hess(x))

        oracle = SmoothOracle(dim=1, order=2, value=quartic.value, grad=quartic.grad,
                              hess=hess)
        x = np.array([1.0])
        center = ModelCenter.from_oracle(oracle, x, p=2)
        assert calls == []
        assert abs(model_value(center, np.array([1.1]), 6.0) - 1.461) <= 1e-12
        assert len(calls) == 1
        assert np.array_equal(center.Hx, as_returned(quartic.hess(x))) and len(calls) == 1
        assert ModelCenter.from_oracle(oracle, x, p=1).Hx is None and len(calls) == 1


def test_from_oracle_rejects_nonfinite_values():
    nan_value = SmoothOracle(
        dim=1, order=1, value=lambda x: float("nan"), grad=lambda x: np.zeros(1)
    )
    with pytest.raises(OracleFailure):
        ModelCenter.from_oracle(nan_value, np.zeros(1), p=1)
    nan_grad = SmoothOracle(
        dim=1, order=1, value=lambda x: 0.0, grad=lambda x: np.array([np.nan])
    )
    with pytest.raises(OracleFailure):
        ModelCenter.from_oracle(nan_grad, np.zeros(1), p=1)


def test_model_requires_positive_M():
    center = ModelCenter.from_oracle(quartic_1d().smooth, np.array([1.0]), p=2)
    with pytest.raises(ValueError):
        model_value(center, np.array([1.1]), 0.0)
    with pytest.raises(ValueError):
        model_grad(center, np.array([1.1]), -1.0)


def test_model_rejects_a_point_of_another_shape():
    # the public model functions check y; the solver's own _model does not
    center = ModelCenter.from_oracle(quartic_1d().smooth, np.array([1.0]), p=2)
    with pytest.raises(ValueError, match="point shape"):
        taylor_value(center, np.array([1.0, 1.1]))
    with pytest.raises(ValueError, match="point shape"):
        model_grad(center, np.array([[1.1]]), 1.0)
