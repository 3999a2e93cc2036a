"""Shipped benchmark problems: sparse phase retrieval and a diagonal quadratic.

Both generators draw from numpy's PCG64 (``np.random.default_rng``), which is
a fixed, named, portable 64-bit generator: the same seed reproduces the same
data bit for bit on any platform.  The draw order is part of the contract and
is documented on each generator.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import CompositeProblem, Matrix, SmoothOracle, Vector, as_vector, l1_term


@dataclass(frozen=True)
class PhaseRetrievalData:
    """One sparse phase retrieval instance.

    F(x) = 1/(2m) * sum_i (y_i - (a_i.x)^2)^2,  h(x) = lam*||x||_1,
    with y_i = (a_i.z)^2 + noise_i.  ``A`` stacks the a_i as rows.
    """

    A: Matrix
    y: Vector
    z: Vector
    noise: Vector
    x0: Vector
    lam: float
    seed: int
    noise_scale: float
    gen_variance: float

    @property
    def n(self) -> int:
        return self.A.shape[1]

    @property
    def m(self) -> int:
        return self.A.shape[0]


def gen_phase_retrieval(
    n: int,
    m: int,
    seed: int,
    noise_scale: float,
    lam: float = 1e-5,
    gen_variance: float = 0.5,
) -> tuple[CompositeProblem, PhaseRetrievalData, Vector]:
    """Generate a seeded phase retrieval instance.

    Draw order from ``default_rng(seed)`` (PCG64), all via ``normal``:
    A row-major with std sqrt(gen_variance), then the signal z (same std),
    then the noise (std noise_scale), then the start point x0 (std 1).
    ``noise_scale`` is the standard deviation of the zero-mean measurement
    noise; ``gen_variance`` is the variance of the entries of A and z.

    Returns (problem, data, x0).
    """
    if n < 1 or m < 1:
        raise ValueError(f"n and m must be >= 1, got n={n}, m={m}")
    if noise_scale < 0:
        raise ValueError(f"noise_scale must be nonnegative, got {noise_scale}")
    if gen_variance <= 0:
        raise ValueError(f"gen_variance must be positive, got {gen_variance}")
    rng = np.random.default_rng(seed)
    std = float(np.sqrt(gen_variance))
    A = rng.normal(0.0, std, size=(m, n))
    z = rng.normal(0.0, std, size=n)
    noise = rng.normal(0.0, noise_scale, size=m) if noise_scale > 0 else np.zeros(m)
    x0 = rng.normal(0.0, 1.0, size=n)
    y = (A @ z) ** 2 + noise
    data = PhaseRetrievalData(
        A=A, y=y, z=z, noise=noise, x0=x0,
        lam=lam, seed=seed, noise_scale=noise_scale, gen_variance=gen_variance,
    )
    return phase_retrieval_problem(data), data, x0


# Byte budget of the phase Hessian's scratch block of rows of A: the scratch
# is one block, not an m-by-n array, whatever m.  At n = 400 a block holds
# 655 rows, enough for syrk to run near its speed over all of A
# (BENCH_27.json's block-size table); the rows of each sign are gathered
# into it in turn.
_HESS_BLOCK_BYTES = 1 << 21


def phase_oracle(data: PhaseRetrievalData, x: Vector, order: int):
    """Value (order 0), gradient (1) or dense Hessian (2) of the smooth part.

    With s_i = a_i.x and residual r_i = y_i - s_i^2:
        F(x)    = 1/(2m) sum r_i^2
        grad    = 2/m sum (s_i^2 - y_i) s_i a_i
        hess    = 2/m sum w_i a_i a_i^T,  w_i = 3 s_i^2 - y_i
    with the weighted sum split by the sign of w_i (see
    ``_phase_from_product``).  A call allocates its own scratch block and
    forms no x-independent term, and the result equals the Hessian of
    ``phase_retrieval_problem`` bit for bit.  Results are deterministic for
    identical inputs at a fixed BLAS thread count.  The products with A go
    through BLAS, whose reduction order depends on the number of threads, so
    another thread count can change the last bits of every value and with
    them a solver's trajectory.
    """
    return _phase_from_product(data, data.A @ as_vector(x, dim=data.n), order)


def _hessian_block(data: PhaseRetrievalData) -> Matrix:
    """Scratch block of as many rows of A as fit in ``_HESS_BLOCK_BYTES``
    (at least one, at most m)."""
    rows = max(1, _HESS_BLOCK_BYTES // (8 * data.n))
    return np.empty((min(rows, data.m), data.n))


def _phase_from_product(data: PhaseRetrievalData, s: Vector, order: int,
                        block: Optional[Matrix] = None):
    """``phase_oracle`` from the product s = A.x; s is not modified.

    Order 2 forms H = 2/m (P^T P - N^T N), where P stacks the rows
    sqrt(w_i) a_i with w_i = 3 s_i^2 - y_i >= 0 and N the rows
    sqrt(-w_i) a_i with w_i < 0.  Each side's rows are gathered in
    ascending order into ``block``, one block at a time, and scaled there;
    each product of a block with its own transpose goes to BLAS ``syrk``
    and is symmetric bit for bit, so H is too.  ``block`` is
    ``_hessian_block(data)``, which a caller that evaluates many Hessians
    keeps; without it one is allocated for this call.  No m-by-n or
    x-independent n-by-n array is formed.  The syrk work over both sides is
    that of one pass over A, about m n^2 flops.  P and N hold disjoint
    rows, so no two m-term sums cancel; forming w_i rounds relative to
    3 s_i^2 + |y_i|, so each entry is within a small multiple of
    eps * m * 2/m * max_jl sum_i (3 s_i^2 + |y_i|) |a_ij| |a_il| of the
    exact one, a bound that holds at every BLAS thread count, though the
    last bits depend on it.  A NaN w_i goes to P and makes H NaN.
    """
    if order == 0:
        r = data.y - s**2
        return float(r @ r) / (2.0 * data.m)
    if order == 1:
        w = (s**2 - data.y) * s
        return (2.0 / data.m) * (data.A.T @ w)
    if order == 2:
        if block is None:
            block = _hessian_block(data)
        w = 3.0 * s**2 - data.y
        neg = w < 0
        r = np.sqrt(np.abs(w))
        H = np.zeros((data.n, data.n))
        k = block.shape[0]
        for rows, op in ((np.flatnonzero(~neg), np.add), (np.flatnonzero(neg), np.subtract)):
            for i in range(0, rows.size, k):
                idx = rows[i:i + k]
                B = np.take(data.A, idx, axis=0, out=block[:idx.size], mode="clip")
                B *= r[idx, None]
                op(H, B.T @ B, out=H)
        H *= 2.0 / data.m
        return H
    raise ValueError(f"order must be 0, 1 or 2, got {order}")


def phase_retrieval_problem(data: PhaseRetrievalData) -> CompositeProblem:
    """Wrap instance data as a CompositeProblem with second-order oracles.

    The callbacks share a one-entry cache of s = A.x, keyed on a copy of
    the point's bytes: value, gradient and Hessian at one point cost one
    m-by-n product between them, and a point changed in place since, even
    in the caller's own array, misses the cache.  The same bytes give the
    same product, so results match ``phase_oracle``'s bit for bit.  The
    Hessian callback forms its scratch block (``_hessian_block``) at the
    problem's first Hessian and keeps it for the problem's lifetime: a run
    that forms no Hessian (p = 1) never allocates it, and the problem holds
    no n-by-n array.  Nothing is locked: the callbacks of one problem must
    not be called concurrently.
    """
    last_key, last_s = b"", None  # no point has empty bytes: the first call misses
    block = None

    def at(x: Vector, order: int):
        nonlocal last_key, last_s
        x = as_vector(x, dim=data.n)
        key = x.tobytes()
        if key != last_key:
            last_key, last_s = key, data.A @ x
        return _phase_from_product(data, last_s, order, block)

    def hess(x: Vector) -> Matrix:
        nonlocal block
        if block is None:
            block = _hessian_block(data)
        return at(x, 2)

    smooth = SmoothOracle(
        dim=data.n,
        order=2,
        value=lambda x: at(x, 0),
        grad=lambda x: at(x, 1),
        hess=hess,
    )
    return CompositeProblem(smooth=smooth, nonsmooth=l1_term(data.lam))


@dataclass(frozen=True)
class DiagQuadL1Data:
    """Separable test problem F(x) = 1/2 sum d_i (x_i - c_i)^2, h = lam*||x||_1.

    The minimizer has a closed form (see ``exact_solution_diag``), which makes
    the instance a ground-truth target for convergence tests.
    """

    d: Vector
    c: Vector
    lam: float

    @property
    def n(self) -> int:
        return self.d.shape[0]


def gen_diag_quad_l1(
    n: int,
    seed: int,
    lam: float = 0.1,
    d_range: tuple[float, float] = (0.5, 5.0),
    c_std: float = 2.0,
) -> tuple[CompositeProblem, DiagQuadL1Data, Vector]:
    """Generate a seeded strongly convex diagonal instance.

    Draw order from ``default_rng(seed)`` (PCG64): curvatures d uniform on
    d_range, then targets c normal with std c_std, then x0 standard normal.

    Returns (problem, data, x0).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if d_range[0] <= 0 or d_range[1] < d_range[0]:
        raise ValueError(f"d_range must satisfy 0 < lo <= hi, got {d_range}")
    rng = np.random.default_rng(seed)
    d = rng.uniform(d_range[0], d_range[1], size=n)
    c = rng.normal(0.0, c_std, size=n)
    x0 = rng.normal(0.0, 1.0, size=n)
    data = DiagQuadL1Data(d=d, c=c, lam=lam)
    return diag_quad_problem(data), data, x0


def exact_solution_diag(data: DiagQuadL1Data) -> tuple[Vector, float]:
    """Closed-form minimizer and optimal value of the diagonal instance.

    Coordinatewise soft threshold: x*_i = sign(c_i) * max(|c_i| - lam/d_i, 0).
    """
    x_star = np.sign(data.c) * np.maximum(np.abs(data.c) - data.lam / data.d, 0.0)
    f_star = 0.5 * float(data.d @ (x_star - data.c) ** 2) + data.lam * float(
        np.abs(x_star).sum()
    )
    return x_star, f_star


def diag_quad_problem(data: DiagQuadL1Data) -> CompositeProblem:
    """Wrap a diagonal instance, attaching its known optimum.

    The Hessian callback returns the diagonal d, as one read-only view
    shared by every call, so the solver forms its second-order model in
    O(n) per evaluation.
    """
    if np.any(data.d <= 0):
        raise ValueError("all curvatures d_i must be positive")
    d = data.d
    c = data.c
    hess = d.view()
    hess.flags.writeable = False
    smooth = SmoothOracle(
        dim=data.n,
        order=2,
        value=lambda x: 0.5 * float(d @ (as_vector(x, dim=data.n) - c) ** 2),
        grad=lambda x: d * (as_vector(x, dim=data.n) - c),
        hess=lambda x: hess,
    )
    return CompositeProblem(
        smooth=smooth,
        nonsmooth=l1_term(data.lam),
        known_opt=exact_solution_diag(data),
    )


def data_hash(data) -> str:
    """SHA-256 over the instance arrays, for checking runs share identical data.

    The arrays' buffers are hashed in place; no byte copy of A is made.
    """
    hasher = hashlib.sha256()
    if isinstance(data, PhaseRetrievalData):
        hasher.update(np.ascontiguousarray(data.A))
        hasher.update(np.ascontiguousarray(data.y))
    elif isinstance(data, DiagQuadL1Data):
        hasher.update(np.ascontiguousarray(data.d))
        hasher.update(np.ascontiguousarray(data.c))
    else:
        raise TypeError(f"unsupported data type {type(data)!r}")
    return hasher.hexdigest()


def save_phase_retrieval(data: PhaseRetrievalData, path) -> None:
    """Write an instance to a flat binary bundle (.npz).

    Keys: A, y, z, noise, x0 (float64 arrays) and scalars lam, seed,
    noise_scale, gen_variance.  ``load_phase_retrieval`` round-trips the
    bundle bit for bit.
    """
    np.savez(
        path,
        A=data.A, y=data.y, z=data.z, noise=data.noise, x0=data.x0,
        lam=data.lam, seed=data.seed,
        noise_scale=data.noise_scale, gen_variance=data.gen_variance,
    )


def load_phase_retrieval(path) -> tuple[CompositeProblem, PhaseRetrievalData, Vector]:
    """Read a bundle written by ``save_phase_retrieval``; returns (problem, data, x0)."""
    with np.load(path) as bundle:
        data = PhaseRetrievalData(
            A=bundle["A"], y=bundle["y"], z=bundle["z"],
            noise=bundle["noise"], x0=bundle["x0"],
            lam=float(bundle["lam"]), seed=int(bundle["seed"]),
            noise_scale=float(bundle["noise_scale"]),
            gen_variance=float(bundle["gen_variance"]),
        )
    return phase_retrieval_problem(data), data, data.x0
