"""Problems and oracle wrappers shared by the unit tests.

The one-dimensional problems have h = 0."""

from dataclasses import replace

import numpy as np

from nhota import CompositeProblem, SmoothOracle, l1_term


def _problem_1d(value, grad, hess) -> CompositeProblem:
    smooth = SmoothOracle(dim=1, order=2, value=value, grad=grad, hess=hess)
    return CompositeProblem(smooth=smooth, nonsmooth=l1_term(0.0))


def quadratic_1d(target: float) -> CompositeProblem:
    """F(t) = (1/2)(t - target)^2."""
    return _problem_1d(lambda x: 0.5 * float((x[0] - target) ** 2),
                       lambda x: np.array([x[0] - target]),
                       lambda x: np.array([[1.0]]))


def quartic_1d() -> CompositeProblem:
    """F(t) = t^4."""
    return _problem_1d(lambda x: float(x[0] ** 4),
                       lambda x: np.array([4.0 * x[0] ** 3]),
                       lambda x: np.array([[12.0 * x[0] ** 2]]))


def without_subdiff(problem: CompositeProblem) -> CompositeProblem:
    """Same problem, but h no longer reports exact subdifferential distances."""
    return replace(problem, nonsmooth=replace(problem.nonsmooth, subdiff_dist=None))


def with_hessian_calls(problem, corrupt_from=None, corrupt=None):
    """Same problem with the Hessian callback counted in the returned list;
    from call number ``corrupt_from`` on, ``corrupt`` rewrites its matrix."""
    calls = []
    hess = problem.smooth.hess

    def counted(x):
        calls.append(1)
        H = hess(x)
        return H if corrupt_from is None or len(calls) < corrupt_from else corrupt(H)

    return replace(problem, smooth=replace(problem.smooth, hess=counted)), calls


def nan_hessian(H):
    return np.full_like(H, np.nan)


def asymmetric_hessian(H):
    H = H.copy()
    H[0, -1] += 1e-6 * max(1.0, float(np.abs(H).max()))
    return H
