"""Dense float64 linear algebra primitives with bit-stable semantics.

Matrices are plain 2-D ``numpy.ndarray`` objects with dtype float64;
``Matrix`` is an alias documenting intent.  The one non-standard contract
here is ``matmul``: it accumulates strictly in index order over the shared
dimension, so its output is bit-identical to a naive triple loop and
therefore reproducible run to run regardless of BLAS threading.  Seeded
experiments depend on that stability.  ``matmul`` has two routes to those
bits, both described in its docstring: numpy's einsum loop, for products
with more than one output entry, and the numpy route for everything else.
When ``linalg`` is imported, ``_einsum_probe`` compares the two routes bit
for bit on products crafted so that a fused multiply-add, another
summation order or a running sum started from the first product would
show; ``_EINSUM_ROUTE`` records whether einsum passed.  If it did not,
every product takes the numpy route, which is also the einsum route's
oracle in the tests.

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
    order.  The result is C-contiguous.

    When ``_EINSUM_ROUTE`` is set (the import-time probe passed) and the
    output has more than one entry, the product is ``_einsum_matmul``'s:
    numpy's einsum loop adds one rank-one product per shared index, in
    increasing order, into an output it zero-filled.  It runs on the
    output ``(m, n)`` or, when m > n, on its transpose ``b.T a.T``, so
    that the longer output axis is the contiguous one.  A single entry
    (m n = 1) would go to einsum's unrolled dot kernel, which adds in
    another order, so it takes the numpy route, as every product does
    when the probe failed.

    The numpy route sums in blocks of max(1, _MATMUL_BLOCK // (m n))
    shared indices.  Each block fills a C-contiguous (1 + block, m, n)
    array whose row 0 is the running sum, which starts at +0.0, and whose
    row 1 + t holds ``a[:, s + t] ⊗ b[s + t, :]``; ``np.add.reduce`` sums
    it along axis 0 into the running sum.  numpy adds along that outer
    axis row by row, vectorised across entries, so each entry is
    ``((0 + p_0) + p_1) + ...``.  numpy sums pairwise only along the
    contiguous axis, which axis 0 becomes when m n = 1, so a single entry
    is summed by the sequential ``np.add.accumulate`` instead.  A block
    holds at most _MATMUL_BLOCK products, or one rank-one product when
    m n is larger, so the route's memory does not grow with k.

    Both routes make the triple loop's additions, signed zeros and
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
    if _EINSUM_ROUTE and a.shape[0] * b.shape[1] > 1:
        return _einsum_matmul(a, b)
    return _numpy_matmul(a, b)


def _einsum_matmul(a: Matrix, b: Matrix) -> Matrix:
    """``a b`` from numpy's einsum loop: ``out[i, j] = ((0 + a[i, 0] b[0, j])
    + a[i, 1] b[1, j]) + ...`` when the probe passed and m n > 1."""
    if a.shape[0] > b.shape[1]:
        return np.ascontiguousarray(_einsum_matmul(b.T, a.T).T)
    return np.einsum(
        "ji,jk->ik", np.ascontiguousarray(a.T), np.ascontiguousarray(b), optimize=False
    )


def _numpy_matmul(a: Matrix, b: Matrix) -> Matrix:
    """``matmul``'s numpy route, over checked operands."""
    m, k = a.shape
    n = b.shape[1]
    block = max(1, _MATMUL_BLOCK // max(1, m * n))
    left, right = a.T[:, :, None], b[:, None, :]
    out = np.zeros((m, n), dtype=np.float64)
    prods = np.empty((min(block, k) + 1, m, n), dtype=np.float64)
    for s in range(0, k, block):
        chunk = prods[: min(block, k - s) + 1]
        np.multiply(left[s : s + block], right[s : s + block], out=chunk[1:])
        chunk[0] = out
        if m * n == 1:
            out[...] = np.add.accumulate(chunk, axis=0, out=chunk)[-1]
        else:
            np.add.reduce(chunk, axis=0, out=out)
    return out


def _einsum_probe() -> bool:
    """True when ``_einsum_matmul`` gives the numpy route's bits on products
    that a different kernel would get wrong.

    Three rows of ``a`` meet ``b``'s columns ``(1, x, 1)`` with
    x = 1 + 2**-27:

    - ``-(1 + 2**-26) + x * x`` is 0 with a separate multiply and add;
      a fused multiply-add keeps x²'s lost 2**-54;
    - ``1, 2**53 x, -2**53`` sums to 2**26 in order only;
    - three -0.0 products sum to +0.0 only from a +0.0 start.

    Each is taken with 2 to 17 output columns, and transposed, so that
    einsum's vector loop and its scalar tail both run in both
    orientations."""
    x = 1.0 + 2.0**-27
    a = np.array([[-(1.0 + 2.0**-26), x, 0.0], [1.0, 2.0**53, -(2.0**53)], [-0.0, -0.0, -0.0]])
    for width in range(2, 18):
        b = np.tile([[1.0], [x], [1.0]], (1, width))
        for left, right in ((a, b), (b.T, a.T)):
            if _einsum_matmul(left, right).tobytes() != _numpy_matmul(left, right).tobytes():
                return False
    return True


_EINSUM_ROUTE = _einsum_probe()


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
