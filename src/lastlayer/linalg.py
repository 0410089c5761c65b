"""Dense float64 linear algebra primitives with bit-stable semantics.

Matrices are plain 2-D ``numpy.ndarray`` objects with dtype float64;
``Matrix`` is an alias documenting intent.  The one non-standard contract
here is ``matmul``: it accumulates strictly in index order over the shared
dimension, so its output is bit-identical to a naive triple loop and
therefore reproducible run to run regardless of BLAS threading.  Seeded
experiments depend on that stability.  ``matmul`` has three paths, picked
by size alone.  A product of at most ``_MATMUL_BLOCK`` scalar products with
more than one output entry is one block: one ``np.multiply`` forms every
product and one ``np.add.reduce`` along the block's outer axis sums them,
which numpy does row by row.  Any other product is walked in blocks of
``_MATMUL_BLOCK // (m n)`` indices summed the same way (by the sequential
``np.add.accumulate`` where the output is a single entry), unless a block
would hold a single index; then it adds one rank-one product per index.
Above one block it works on the transposed output when that makes the
longer output axis contiguous.  Every path performs the triple loop's
additions in the triple loop's order: the shapes choose only the memory
layout.

``solve_spd`` and ``min_eigenvalue_symmetric`` delegate to numpy's LAPACK
(Cholesky and symmetric eigensolver), which is deterministic for fixed
inputs on a given build; everything else is implemented here.
"""

from __future__ import annotations

import numpy as np

Matrix = np.ndarray

_SYMMETRY_RTOL = 1e-10
_MATMUL_BLOCK = 8192  # products per summation block (64 KiB of float64)


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

    def __reduce__(self):
        return type(self), (self.pivot_index,)


def _check_2d(a: Matrix, name: str) -> Matrix:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise DimensionMismatchError(f"{name} must be 2-D, got ndim={a.ndim}")
    return a


def matmul(a: Matrix, b: Matrix) -> Matrix:
    """Matrix product with a fixed summation order.

    Each output entry is the sum of products taken in increasing order of
    the shared index, exactly as a scalar triple loop would compute it, so
    results are bit-reproducible and independent of BLAS.  Only the memory
    layout of the work depends on the shapes, never the additions or their
    order.  Three paths, chosen by m, k and n alone:

    - **One block**, when m k n <= _MATMUL_BLOCK and m n > 1.  One
      ``np.multiply`` fills a (k, m, n) array whose row t holds
      ``a[:, t] ⊗ b[t, :]``, and one ``np.add.reduce`` along axis 0 with
      initial value +0.0 sums it.  numpy adds along that outer axis row by
      row, vectorised across entries, so each entry is
      ``((0 + p_0) + p_1) + ...``.
    - **Blocks**, otherwise, when a block of _MATMUL_BLOCK // (m n)
      indices holds at least two.  Each block fills a C-contiguous
      (1 + block, m, n) array whose row 0 is the running sum and sums it
      the same way.  numpy sums pairwise only along the contiguous axis,
      which is what a block of one column becomes, so with m n = 1 the
      block is summed by the sequential ``np.add.accumulate`` instead.
    - **Rank-one loop**, when a block would hold one index (m n >
      _MATMUL_BLOCK // 2): one rank-one product per index is added into
      the running sum.

    The last two paths run on the output ``(m, n)`` or, when m > n > 1, on
    its transpose ``b.T a.T``, so that the longer output axis is the
    contiguous one (with n = 1 it already is), with the operand whose rows
    run along that axis made C-contiguous; the result is C-contiguous
    either way.

    Every path makes the triple loop's additions, signed zeros and
    infinities included; only which payload survives where two NaNs meet
    is left to numpy's kernels.
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
    if m * n > 1 and m * k * n <= _MATMUL_BLOCK:
        # C order keeps k the outer axis, which numpy reduces row by row
        prods = np.empty((k, m, n), dtype=np.float64)
        np.multiply(a.T[:, :, None], b[:, None, :], out=prods)
        return np.add.reduce(prods, axis=0, initial=0.0)
    if m > n > 1:
        return np.ascontiguousarray(_ordered_outer_sum(b, a.T).T)
    return _ordered_outer_sum(a.T, b)


def _ordered_outer_sum(rows: Matrix, cols: Matrix) -> Matrix:
    """``out[i, j] = ((0 + rows[0, i] cols[0, j]) + rows[1, i] cols[1, j]) + ...``"""
    k, p = rows.shape
    q = cols.shape[1]
    cols = np.ascontiguousarray(cols)
    left, right = rows[:, :, None], cols[:, None, :]
    out = np.zeros((p, q), dtype=np.float64)
    block = _MATMUL_BLOCK // max(1, p * q)
    if block <= 1:
        buf = np.empty((p, q), dtype=np.float64)
        for t in range(k):
            np.multiply(left[t], right[t], out=buf)
            np.add(out, buf, out=out)
        return out
    prods = np.empty((min(block, k) + 1, p, q), dtype=np.float64)
    for s in range(0, k, block):
        chunk = prods[: min(block, k - s) + 1]
        np.multiply(left[s : s + block], right[s : s + block], out=chunk[1:])
        chunk[0] = out
        if p * q > 1:
            np.add.reduce(chunk, axis=0, out=out)
        else:
            out[...] = np.add.accumulate(chunk, axis=0, out=chunk)[-1]
    return out


def sq_frobenius(a: Matrix) -> float:
    """Sum of squared entries (squared Frobenius norm)."""
    a = np.asarray(a, dtype=np.float64)
    return float(np.sum(a * a))


def max_abs(a: Matrix) -> float:
    a = np.asarray(a, dtype=np.float64)
    return float(np.max(np.abs(a), initial=0.0))


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
    skew = max_abs(a - a.T)
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


def min_eigenvalue_symmetric(a: Matrix) -> float:
    """Smallest eigenvalue of a finite symmetric matrix.

    numpy's eigvalsh (LAPACK's symmetric eigensolver) lists the spectrum in
    ascending order, accurate to a small multiple of machine precision
    times the matrix norm.  A non-symmetric or non-finite ``a`` raises, as
    in ``check_symmetric``, and so does an empty one.
    """
    a = check_symmetric(a, "a")
    if a.size == 0:
        raise ValueError("a is empty: a 0 x 0 matrix has no eigenvalues")
    return float(np.linalg.eigvalsh(a)[0])
