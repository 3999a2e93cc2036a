"""Problems and oracle wrappers shared by the unit tests.

The one-dimensional problems have h = 0."""

from collections import Counter
from dataclasses import replace

import numpy as np

from nhota import CompositeProblem, SmoothOracle, l1_term
from nhota.checks import with_dense_hessian  # noqa: F401  (shared with nhota check)


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


def times(problem: CompositeProblem, lam: float, c: float) -> CompositeProblem:
    """c * (F + lam * ||x||_1): the same minimizers, every value, derivative
    and stationarity residual scaled by c."""
    s = problem.smooth
    smooth = replace(s, value=lambda x: c * s.value(x), grad=lambda x: c * s.grad(x),
                     hess=lambda x: c * s.hess(x))
    return replace(problem, smooth=smooth, nonsmooth=l1_term(c * lam), known_opt=None)


def shifted(problem: CompositeProblem, C: float) -> CompositeProblem:
    """Same problem with C added to F: same minimizers, larger |f|."""
    s = problem.smooth
    return replace(problem, smooth=replace(s, value=lambda x: s.value(x) + C),
                   known_opt=None)


def without_subdiff(problem: CompositeProblem) -> CompositeProblem:
    """Same problem, but h no longer reports exact subdifferential distances."""
    return replace(problem, nonsmooth=replace(problem.nonsmooth, subdiff_dist=None))


def with_oracle_calls(problem):
    """Same problem with F's value and gradient calls counted in the returned
    dict, under the keys "value" and "grad"."""
    calls = {"value": 0, "grad": 0}

    def counted(name, fn):
        def call(x):
            calls[name] += 1
            return fn(x)
        return call

    smooth = replace(problem.smooth, value=counted("value", problem.smooth.value),
                     grad=counted("grad", problem.smooth.grad))
    problem = replace(problem, smooth=smooth)
    calls.update(value=0, grad=0)  # drop the known_opt check's gradient
    return problem, calls


def with_callback_counts(problem):
    """Same problem with every callback of F and h counted in the returned
    Counter, under "value", "grad", "hess", "h_value", "prox" and "subdiff"."""
    calls = Counter()

    def counted(name, fn):
        if fn is None:
            return None

        def call(*args):
            calls[name] += 1
            return fn(*args)
        return call

    s, h = problem.smooth, problem.nonsmooth
    problem = replace(
        problem,
        smooth=replace(s, value=counted("value", s.value), grad=counted("grad", s.grad),
                       hess=counted("hess", s.hess)),
        nonsmooth=replace(h, value=counted("h_value", h.value), prox=counted("prox", h.prox),
                          subdiff_dist=counted("subdiff", h.subdiff_dist)))
    calls.clear()  # drop the known_opt check's calls
    return problem, calls


def with_hessian_calls(problem, corrupt_from=None, corrupt=None):
    """Same problem with the Hessian callback recorded in the returned list,
    one entry (the point's bytes) per call; from call number
    ``corrupt_from`` on, ``corrupt`` rewrites its matrix."""
    calls = []
    hess = problem.smooth.hess

    def counted(x):
        calls.append(np.asarray(x, dtype=float).tobytes())
        H = hess(x)
        return H if corrupt_from is None or len(calls) < corrupt_from else corrupt(H)

    return replace(problem, smooth=replace(problem.smooth, hess=counted)), calls


def nan_hessian(H):
    return np.full_like(H, np.nan)


def asymmetric_hessian(H):
    H = H.copy()
    H[0, -1] += 1e-6 * max(1.0, float(np.abs(H).max()))
    return H
