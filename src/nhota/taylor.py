"""Truncated Taylor models of the smooth part and their power regularization.

The regularized model used by the solver is

    model_value(y) = T_p(y; x) + M/(p+1)! * ||y - x||^(p+1)

where T_p is the p-th order Taylor expansion of F around x (p = 1 or 2).
The nonsmooth term h is *not* part of the model; callers add h(y) on top
when they need the full subproblem objective.

The solver works with the model relative to its center, T_p(y) - F(x) plus
the regularization (``_model``): a difference of model values then rounds
at the scale of the change, not of F(x), which may carry a large constant.
The public ``taylor_value`` and ``model_value`` add F(x) back.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import factorial, isfinite
from typing import Optional

import numpy as np

from .core import (
    CapabilityError,
    Matrix,
    OracleContractError,
    OracleFailure,
    SmoothOracle,
    Vector,
    norm,
)

# Per-entry tolerance on hess(x) - hess(x).T, relative to max(1, max|H|): a
# Hessian formed as a matrix product is symmetric only to roundoff at the
# scale of its own entries.
HESS_SYMMETRY_RTOL = 1e-12


# Rows per block in ``_max_asymmetry``: blocks of at most this many entries
# (64 KB) stay small heap temporaries instead of n-by-n ones.
_SYMMETRY_BLOCK_ENTRIES = 8192


def _max_asymmetry(H: Matrix) -> float:
    """max |H - H^T|, one block of rows at a time."""
    n = H.shape[0]
    rows = max(1, _SYMMETRY_BLOCK_ENTRIES // n)
    worst = 0.0
    for i in range(0, n, rows):
        d = H[i:i + rows] - H[:, i:i + rows].T
        worst = max(worst, float(d.max()), -float(d.min()))
    return worst


@dataclass(frozen=True)
class ModelCenter:
    """Cached derivatives of F at an expansion point x, and h(x).

    Holds everything needed to evaluate T_p and its gradient without
    further oracle calls.  ``Hx`` is None when p = 1; when p = 2 it is
    formed from ``oracle`` the first time it (or ``hess_absmax``) is read,
    so a center that is only tested for stationarity never forms its
    Hessian.  ``Hx`` keeps the shape the oracle returned: the dense (n, n)
    matrix, or the length-n diagonal of a diagonal Hessian, which ``_model``
    multiplies elementwise.

    The scales the inner solve reads at every trial are formed once per
    center: ``x_norm`` = ||x|| and ``g_norm`` = ||grad F(x)|| when it is
    built, and ``hx`` = h(x) when the caller knows it.  The driver does: it
    passes h(x0), and at each accepted candidate y the h(y) its solve
    formed.  A center built without ``hx`` leaves it None, and the solve
    evaluates h(x) itself.  A norm that overflows raises ``OracleFailure``.
    """

    x: Vector
    fx: float
    gx: Vector
    p: int
    oracle: SmoothOracle
    hx: Optional[float] = None
    x_norm: float = field(init=False, repr=False)
    g_norm: float = field(init=False, repr=False)

    def __post_init__(self):
        # finite entries can still overflow a norm's sum of squares; under
        # this errstate numpy raises FloatingPointError where it would warn,
        # as in the driver's guard around each inner solve
        try:
            with np.errstate(over="raise"):
                object.__setattr__(self, "x_norm", norm(self.x))
                object.__setattr__(self, "g_norm", norm(self.gx))
        except FloatingPointError as exc:
            raise OracleFailure(
                f"||x|| or ||grad F(x)|| overflowed at a model center: {exc}") from exc

    @classmethod
    def from_oracle(cls, oracle: SmoothOracle, x: Vector, p: int,
                    fx: Optional[float] = None, hx: Optional[float] = None) -> "ModelCenter":
        """Value and gradient at x, checked; the Hessian waits for ``Hx``.

        x is taken unchecked, as the solver builds it; the checks are on what
        the oracle returns.  ``fx``, when given, is F(x) as the caller already
        evaluated it (the driver's acceptance test does at every accepted
        point); it is used instead of a second ``oracle.value`` call and
        checked the same way.  ``hx``, when given, is h(x), kept as it is.
        """
        if p not in (1, 2):
            raise ValueError(f"p must be 1 or 2, got {p}")
        if p > oracle.order:
            raise CapabilityError(
                f"model order p={p} exceeds oracle derivative order {oracle.order}"
            )
        fx = float(oracle.value(x) if fx is None else fx)
        if not isfinite(fx):
            raise OracleFailure(f"F(x) is non-finite at x = {x!r}")
        gx = np.asarray(oracle.grad(x), dtype=float)
        if gx.shape != x.shape:
            raise OracleContractError(f"gradient shape {gx.shape} != point shape {x.shape}")
        if not np.isfinite(gx).all():
            raise OracleFailure("gradient is non-finite")
        return cls(x=x, fx=fx, gx=gx, p=p, oracle=oracle, hx=hx)

    @cached_property
    def _hessian(self) -> tuple[Matrix, float]:
        """The Hessian at x, formed once and checked (shape, finite,
        symmetric), with max |H_ij|, the scale its symmetry check uses.

        A length-n vector is a diagonal, symmetric by construction; its
        max |d_i| equals the dense matrix's max |H_ij| for n >= 1."""
        n = self.oracle.dim
        Hx = np.asarray(self.oracle.hess(self.x), dtype=float)
        if Hx.shape not in ((n,), (n, n)):
            raise OracleContractError(
                f"Hessian shape {Hx.shape} is neither ({n}, {n}) nor ({n},)")
        if not np.all(np.isfinite(Hx)):
            raise OracleFailure("Hessian is non-finite")
        absmax = max(float(Hx.max()), -float(Hx.min()))
        if Hx.ndim == 2:
            asym = _max_asymmetry(Hx)
            tol = HESS_SYMMETRY_RTOL * max(1.0, absmax)
            if asym > tol:
                raise OracleContractError(
                    f"Hessian is not symmetric: max |H - H^T| = {asym:.3e} "
                    f"exceeds {HESS_SYMMETRY_RTOL:g} * max(1, max|H|) = {tol:.3e}"
                )
        return Hx, absmax

    @cached_property
    def Hx(self) -> Optional[Matrix]:
        """The Hessian at x, formed and checked on first read, as the (n, n)
        matrix or the length-n diagonal the oracle returned; None when p = 1."""
        return None if self.p == 1 else self._hessian[0]

    @cached_property
    def hess_absmax(self) -> float:
        """max |H_ij| at x (forming ``Hx`` if it is not formed yet), kept from
        the Hessian's checks, so no second pass over it; 0.0 when p = 1."""
        return 0.0 if self.p == 1 else self._hessian[1]


def _model(center: ModelCenter, y: Vector,
           M: float) -> tuple[float, Vector, float, float, Vector]:
    """The regularized model at y and the terms it is built from.

    Returns (m, grad m, r, t, grad t): m = T_p(y; x) - F(x) + M/(p+1)! * r^(p+1)
    and its gradient, r = ||y - x||, and the bare Taylor terms t =
    T_p(y; x) - F(x) and grad t = grad T_p(y; x), which the regularization
    is added to.  Values are relative to the center: 0 at y = x, with no
    F(x) term to round against.  All come from one displacement d = y - x
    and one H.d, an elementwise product when ``Hx`` is a diagonal; the
    regularization gradient is M/p! * r^(p-1) * d.  At p = 1, grad t is
    ``center.gx`` itself.  No validation: callers check their inputs first.
    """
    d = y - center.x
    r = norm(d)
    p = center.p
    t, grad_t = float(center.gx @ d), center.gx
    if p == 2:
        H = center.Hx
        Hd = H * d if H.ndim == 1 else H @ d
        t, grad_t = t + 0.5 * float(d @ Hd), grad_t + Hd
    return (t + M / factorial(p + 1) * r ** (p + 1),
            grad_t + (M / factorial(p)) * r ** (p - 1) * d, r, t, grad_t)


def _checked(center: ModelCenter, y: Vector,
             M: Optional[float] = None) -> tuple[float, Vector]:
    """``_model`` at a validated y with F(x) added back; without M, the bare
    Taylor polynomial."""
    if M is not None and not M > 0:
        raise ValueError(f"M must be positive, got {M}")
    y = np.asarray(y, dtype=float)
    if y.shape != center.x.shape:
        raise ValueError(f"point shape {y.shape} != center shape {center.x.shape}")
    value, grad = _model(center, y, 0.0 if M is None else M)[:2]
    return center.fx + value, grad


def taylor_value(center: ModelCenter, y: Vector) -> float:
    """T_p(y; x): the pure Taylor polynomial, no regularization, no h."""
    return _checked(center, y)[0]


def taylor_grad(center: ModelCenter, y: Vector) -> Vector:
    """Gradient of T_p(.; x) at y."""
    return _checked(center, y)[1]


def model_value(center: ModelCenter, y: Vector, M: float) -> float:
    """T_p(y; x) + M/(p+1)! * ||y - x||^(p+1), for M > 0."""
    return _checked(center, y, M)[0]


def model_grad(center: ModelCenter, y: Vector, M: float) -> Vector:
    """Gradient of the regularized model at y, for M > 0."""
    return _checked(center, y, M)[1]
