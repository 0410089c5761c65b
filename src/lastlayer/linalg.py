"""Dense float64 linear algebra primitives with bit-stable semantics.

Matrices are plain 2-D ``numpy.ndarray`` objects with dtype float64;
``Matrix`` is an alias documenting intent.  The one non-standard contract
here is ``matmul``: it accumulates strictly in index order over the shared
dimension, so its output is bit-identical to a naive triple loop and
therefore reproducible run to run regardless of BLAS threading.  Seeded
experiments depend on that stability.  When the shared dimension is the
longest, ``matmul`` forms a block of products at once and sums it with
``np.add.accumulate``, which adds strictly left to right; otherwise it
adds one rank-one product per index.  Both perform the triple loop's
additions in the triple loop's order.

``solve_spd`` and ``min_eigenvalue_symmetric`` delegate to numpy's LAPACK
(Cholesky and symmetric eigensolver), which is deterministic for fixed
inputs on a given build; everything else is implemented here.
"""

from __future__ import annotations

import numpy as np

Matrix = np.ndarray

_SYMMETRY_RTOL = 1e-10
_MATMUL_BLOCK = 8192  # products per accumulate block (64 KiB of float64)
_EIG_MAX_DIM = 200


class DimensionMismatchError(ValueError):
    """Operand shapes do not conform."""


class NotSymmetricError(ValueError):
    """A symmetric matrix was required but |a - a.T| exceeds tolerance."""


class NotPositiveDefiniteError(ValueError):
    """Cholesky hit a non-positive pivot; ``pivot_index`` is 0-based."""

    def __init__(self, pivot_index: int):
        self.pivot_index = pivot_index
        super().__init__(
            f"matrix is not positive definite: non-positive pivot at index {pivot_index}"
        )


def _check_2d(a: Matrix, name: str) -> Matrix:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise DimensionMismatchError(f"{name} must be 2-D, got ndim={a.ndim}")
    return a


def matmul(a: Matrix, b: Matrix) -> Matrix:
    """Matrix product with a fixed summation order.

    Each output entry is the sum of products taken in increasing order of
    the shared index, exactly as a scalar triple loop would compute it, so
    results are bit-reproducible and independent of BLAS.

    For a shared dimension k longer than both m and n, k is walked in
    blocks of at most _MATMUL_BLOCK // (m n) indices.  Each block forms
    its products ``p[:, t, :] = a[:, t] b[t, :]``, adds the first of them
    to the running sum and takes ``np.add.accumulate`` along t.
    accumulate is sequential by definition (``r[t] = r[t - 1] + p[t]``),
    so every entry sees the additions ``((0 + p_0) + p_1) + ...`` of the
    triple loop, signed zeros and infinities included (only the payload
    that a sum of two NaNs keeps is left to numpy).  Other shapes add one
    rank-one product per index, which is faster when m n is large.
    """
    a = _check_2d(a, "a")
    b = _check_2d(b, "b")
    if a.shape[1] != b.shape[0]:
        raise DimensionMismatchError(
            f"matmul: inner dimensions differ, {a.shape[0]}x{a.shape[1]} times "
            f"{b.shape[0]}x{b.shape[1]}"
        )
    m, k = a.shape
    n = b.shape[1]
    out = np.zeros((m, n), dtype=np.float64)
    if k > max(m, n):
        block = max(1, _MATMUL_BLOCK // max(1, m * n))
        for s in range(0, k, block):
            p = a[:, s : s + block, None] * b[None, s : s + block, :]
            np.add(out, p[:, 0, :], out=p[:, 0, :])
            np.add.accumulate(p, axis=1, out=p)
            out[...] = p[:, -1, :]
        return out
    buf = np.empty((m, n), dtype=np.float64)
    for i in range(k):
        np.multiply(a[:, i : i + 1], b[i : i + 1, :], out=buf)
        np.add(out, buf, out=out)
    return out


def sq_frobenius(a: Matrix) -> float:
    """Sum of squared entries (squared Frobenius norm)."""
    a = np.asarray(a, dtype=np.float64)
    return float(np.sum(a * a))


def max_abs(a: Matrix) -> float:
    a = np.asarray(a, dtype=np.float64)
    return float(np.max(np.abs(a))) if a.size else 0.0


def _check_finite(a: Matrix, name: str) -> Matrix:
    """Raise ValueError naming the (row, col) of the first NaN or infinite
    entry of a 2-D matrix."""
    finite = np.isfinite(a)
    if not finite.all():
        row, col = (int(i) for i in np.argwhere(~finite)[0])
        raise ValueError(f"{name} has a non-finite entry {float(a[row, col])!r} at ({row}, {col})")
    return a


def check_symmetric(a: Matrix, name: str = "matrix") -> Matrix:
    """Require a square, finite matrix symmetric within 1e-10 relative to
    its scale."""
    a = _check_2d(a, name)
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"{name} must be square, got {a.shape}")
    _check_finite(a, name)
    scale = max(max_abs(a), 1.0)
    skew = float(np.max(np.abs(a - a.T))) if a.size else 0.0
    if skew > _SYMMETRY_RTOL * scale:
        raise NotSymmetricError(
            f"{name} is not symmetric: max|a - a.T| = {skew:.3e} exceeds "
            f"{_SYMMETRY_RTOL:.0e} * {scale:.3e}"
        )
    return a


def solve_spd(a: Matrix, b: Matrix) -> Matrix:
    """Solve a @ x = b for symmetric positive-definite a.

    Cholesky factorization followed by two triangular solves.  Raises
    ValueError naming the entry when a or b holds a NaN or infinity, and
    NotSymmetricError or NotPositiveDefiniteError on bad input; the latter
    carries the failing pivot index.
    """
    a = check_symmetric(a, "a")
    b = _check_finite(_check_2d(b, "b"), "b")
    if b.shape[0] != a.shape[0]:
        raise DimensionMismatchError(
            f"solve_spd: a is {a.shape[0]}x{a.shape[1]} but b has {b.shape[0]} rows"
        )
    try:
        factor = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        raise NotPositiveDefiniteError(_failing_pivot(a)) from None
    return np.linalg.solve(factor.T, np.linalg.solve(factor, b))


def _failing_pivot(a: Matrix) -> int:
    """potrf's failing pivot: order of the first leading minor not positive definite, minus one."""
    good, bad = 0, a.shape[0]  # orders known positive definite / not
    while bad - good > 1:
        mid = (good + bad) // 2
        try:
            np.linalg.cholesky(a[:mid, :mid])
            good = mid
        except np.linalg.LinAlgError:
            bad = mid
    return bad - 1


def min_eigenvalue_symmetric(a: Matrix, tol: float = 1e-10) -> float:
    """Smallest eigenvalue of a symmetric matrix, accurate to ``tol``.

    numpy's eigvalsh (LAPACK's symmetric eigensolver) lists the spectrum in
    ascending order, to a small multiple of machine precision times the
    matrix norm, well inside any ``tol`` the package asks for.  Guarded to
    n <= 200: this supports verification work, not large-scale spectra.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    a = check_symmetric(a, "a")
    n = a.shape[0]
    if n > _EIG_MAX_DIM:
        raise DimensionMismatchError(
            f"min_eigenvalue_symmetric supports n <= {_EIG_MAX_DIM}, got n = {n}"
        )
    return float(np.linalg.eigvalsh(a)[0])
