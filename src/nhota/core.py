"""Shared problem types and the l1 nonsmooth term.

Conventions used throughout the package: iterates are 1-D float64 numpy
arrays and ``||.||`` is the Euclidean norm.  A Hessian is either a dense
symmetric n-by-n matrix or, for a diagonal Hessian, the length-n vector of
its diagonal; ``dense_hessian`` expands the second form for code that reads
matrices.  No NaN or Inf is ever stored in an iterate; oracle outputs are
checked at the points where they enter the solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt
from typing import Callable, Optional

import numpy as np

Vector = np.ndarray
Matrix = np.ndarray


class CapabilityError(RuntimeError):
    """A requested derivative or operation is not provided by this instance."""


class OracleFailure(RuntimeError):
    """An oracle callback returned a non-finite value."""


class OracleContractError(OracleFailure, ValueError):
    """An oracle callback returned a value of the wrong shape or structure,
    such as a gradient of the wrong length, a Hessian of the wrong shape or
    an asymmetric Hessian."""


def as_vector(x, dim: int | None = None) -> Vector:
    """Convert to a 1-D float64 array, rejecting non-finite entries.

    A 1-D float64 ndarray is returned as it is, without a copy (as
    ``np.asarray`` would), after the same shape, dimension and finiteness
    checks; anything else (int, list, scalar, 0-d) goes through
    ``np.asarray`` and ``np.atleast_1d`` first.
    """
    if type(x) is np.ndarray and x.ndim == 1 and x.dtype == np.float64:
        v = x
    else:
        v = np.atleast_1d(np.asarray(x, dtype=float))
        if v.ndim != 1:
            raise ValueError(f"expected a 1-D vector, got shape {v.shape}")
    if dim is not None and v.shape[0] != dim:
        raise ValueError(f"expected dimension {dim}, got {v.shape[0]}")
    if not np.isfinite(v).all():
        raise ValueError("vector contains non-finite entries")
    return v


def norm(v: Vector) -> float:
    """Euclidean norm of a real 1-D array, as a float.

    ``sqrt(v @ v)`` is what ``np.linalg.norm`` computes for such an array,
    bit for bit, without its dispatch on dtype, ``ord`` and ``axis``; the
    solver calls this on every trial point.
    """
    return sqrt(float(v @ v))


_SQRT_EPS = sqrt(float(np.finfo(float).eps))


def scale_resolution(value: float, grad_norm: float) -> float:
    """sqrt(eps) * (1 + |value| + grad_norm): the smallest stationarity
    residual double precision resolves at a point with this objective value
    and gradient norm, the problem's own scale.  The solver's working
    precision (``inner.stationarity_resolution``) and the ``known_opt`` check
    both use it."""
    return _SQRT_EPS * (1.0 + abs(value) + grad_norm)


def dense_hessian(H) -> Matrix:
    """A Hessian as ``SmoothOracle.hess`` returns it, as a float n-by-n matrix:
    a 1-D array is the diagonal of a diagonal Hessian and becomes
    ``np.diag(H)``; a matrix is returned as it is."""
    H = np.asarray(H, dtype=float)
    return np.diag(H) if H.ndim == 1 else H


def _soft_threshold(v: Vector, tau: float | Vector) -> Vector:
    """``prox_l1`` without its checks, for float arrays the solver built;
    an array ``tau`` thresholds each coordinate at its own entry."""
    return np.sign(v) * np.maximum(np.abs(v) - tau, 0.0)


def _subdiff_dist_l1(g: Vector, x: Vector, lam: float) -> float:
    """``subdiff_dist_l1`` without its checks, for float arrays the solver built."""
    r = np.where(
        x != 0.0,
        g + lam * np.sign(x),
        np.sign(g) * np.maximum(np.abs(g) - lam, 0.0),
    )
    return norm(r)


def prox_l1(v: Vector, tau: float) -> Vector:
    """Soft threshold: argmin_y tau*||y||_1 + (1/2)||y - v||^2, coordinatewise.

    ``tau`` is the full threshold; any scale factor on the l1 term must be
    folded into it by the caller.
    """
    if not tau > 0:
        raise ValueError(f"tau must be positive, got {tau}")
    return _soft_threshold(as_vector(v), tau)


def subdiff_dist_l1(g: Vector, x: Vector, lam: float) -> float:
    """Euclidean distance from 0 to g + lam * d||x||_1 (exact, coordinatewise).

    Coordinates with x_i != 0 contribute g_i + lam*sign(x_i); coordinates at
    zero contribute the residual left after the interval [-lam, lam] absorbs
    as much of g_i as it can.
    """
    g = as_vector(g)
    x = as_vector(x)
    if g.shape != x.shape:
        raise ValueError(f"shape mismatch: g {g.shape} vs x {x.shape}")
    if lam < 0:
        raise ValueError(f"lam must be nonnegative, got {lam}")
    return _subdiff_dist_l1(g, x, lam)


@dataclass(frozen=True)
class SmoothOracle:
    """Callbacks for the smooth part F of a composite objective.

    ``order`` is the highest derivative available (1 or 2).  All callbacks
    must be deterministic and side-effect free.  ``hess`` returns either the
    dense symmetric (n, n) matrix or, when the Hessian is diagonal (F is
    separable), the length-n vector of its diagonal; the solver then forms
    the second-order Taylor model in O(n) instead of O(n^2).
    """

    dim: int
    order: int
    value: Callable[[Vector], float]
    grad: Callable[[Vector], Vector]
    hess: Optional[Callable[[Vector], Matrix]] = None

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        if self.order not in (1, 2):
            raise ValueError(f"order must be 1 or 2, got {self.order}")
        if self.order == 2 and self.hess is None:
            raise ValueError("order=2 requires a hess callback")


@dataclass(frozen=True)
class NonsmoothTerm:
    """Callbacks for the nonsmooth part h (convex, prox-friendly).

    ``prox(v, tau)`` returns argmin_y h(y) + (1/2 tau)||y - v||^2.  ``tau``
    is a positive float or a positive array of v's shape; an array is the
    prox in the metric diag(1/tau), argmin_y h(y) + sum_i (y_i - v_i)^2 /
    (2 tau_i), which for a separable h is coordinate i's prox at tau_i.
    ``subdiff_dist(g, x)`` returns dist(0, g + dh(x)) when the instance can
    compute it exactly; leave it ``None`` otherwise and callers fall back to
    a prox-residual surrogate.  Instances must be bounded below by an affine
    function (trivially true for the shipped l1 term).

    Only the closed-form p = 2 step passes an array ``tau``, and it is
    selected by a diagonal Hessian that ``SmoothOracle.hess`` returns as its
    length-n vector together with an exact ``subdiff_dist``: a term that
    provides ``subdiff_dist`` to a problem with such a Hessian must accept
    array thresholds.  Every other solve passes a float.
    """

    value: Callable[[Vector], float]
    prox: Callable[[Vector, float | Vector], Vector]
    subdiff_dist: Optional[Callable[[Vector, Vector], float]] = None


def l1_term(lam: float) -> NonsmoothTerm:
    """The term h(x) = lam*||x||_1; lam=0 gives the zero term (prox = identity).

    Its callbacks skip the vector checks of ``prox_l1`` and
    ``subdiff_dist_l1``: the solver calls them on every inner iteration with
    float arrays it built itself, so they take 1-D float arrays as given.
    """
    if lam < 0:
        raise ValueError(f"lam must be nonnegative, got {lam}")

    def value(x: Vector) -> float:
        return lam * float(np.abs(np.asarray(x, dtype=float)).sum())

    def prox(v: Vector, tau: float | Vector) -> Vector:
        """Soft threshold at tau * lam, for a positive float ``tau`` or a
        positive array of v's shape.  A float is tested with one
        comparison and an array with one elementwise test; neither goes
        through an exception."""
        if isinstance(tau, float):
            bad = not tau > 0
        elif np.shape(tau) == np.shape(v):  # one threshold per coordinate
            bad = not np.all(tau > 0)
        else:  # another scalar type or a one-element array, broadcast over v
            bad = np.size(tau) != 1 or not tau > 0
        if bad:
            raise ValueError(f"tau must be positive, a float or an array of shape "
                             f"{np.shape(v)}, got {tau!r}")
        return np.array(v, dtype=float) if lam == 0.0 else _soft_threshold(v, tau * lam)

    def subdiff_dist(g: Vector, x: Vector) -> float:
        return _subdiff_dist_l1(g, x, lam)

    return NonsmoothTerm(value=value, prox=prox, subdiff_dist=subdiff_dist)


@dataclass(frozen=True)
class CompositeProblem:
    """A composite objective f(x) = F(x) + h(x).

    ``known_opt`` optionally carries (x_star, f_star) when a closed-form
    minimizer exists.  When h reports subdifferential distances, x_star is
    checked at construction to be stationary to working precision:
    dist(0, grad F(x*) + dh(x*)) at most ``scale_resolution`` of f(x*) and
    ||grad F(x*)||, with f(x*) from the callbacks.
    """

    smooth: SmoothOracle
    nonsmooth: NonsmoothTerm
    known_opt: Optional[tuple[Vector, float]] = None

    def __post_init__(self):
        if self.known_opt is not None:
            x_star, f_star = self.known_opt
            x_star = as_vector(x_star, dim=self.smooth.dim)
            if not np.isfinite(f_star):
                raise ValueError("known_opt f_star is not finite")
            if self.nonsmooth.subdiff_dist is not None:
                g = as_vector(self.smooth.grad(x_star), dim=self.smooth.dim)
                d = self.nonsmooth.subdiff_dist(g, x_star)
                if d > scale_resolution(self.f(x_star), norm(g)):
                    raise ValueError(
                        f"known_opt fails stationarity: dist(0, df(x*)) = {d:.3e}"
                    )

    @property
    def dim(self) -> int:
        return self.smooth.dim

    def f(self, x: Vector) -> float:
        """Full objective value F(x) + h(x)."""
        return float(self.smooth.value(x)) + float(self.nonsmooth.value(x))
