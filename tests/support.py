"""One-dimensional problems shared by the unit tests; h is the zero term."""

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
