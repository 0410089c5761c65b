"""Linear algebra primitives against independent oracles.

The matmul oracle is a literal scalar triple loop and the comparison is
exact bit equality, which is the module's reproducibility contract.  The
eigenvalue oracle is inverse power iteration through an LU solve, a path
disjoint from the LAPACK symmetric eigensolver under test.
"""

import numpy as np
import pytest

from lastlayer.linalg import (
    _MATMUL_BLOCK,
    DimensionMismatchError,
    NotPositiveDefiniteError,
    NotSymmetricError,
    matmul,
    min_eigenvalue_symmetric,
    solve_spd,
    sq_frobenius,
)

# matmul's bits rest on the order in which numpy's add.reduce and
# add.accumulate add: its single-block reduce of a (k, m, n) array along
# axis 0 from initial +0.0, and its block loop
pytestmark = pytest.mark.numpy_floor


def naive_matmul(a, b):
    m, k = a.shape
    n = b.shape[1]
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            s = 0.0
            for t in range(k):
                s += a[i, t] * b[t, j]
            out[i, j] = s
    return out


def rank_one_matmul(a, b):
    """matmul's loop before its block path: one rank-one update per shared
    index, in increasing order; kept as the oracle of that path."""
    m, k = a.shape
    n = b.shape[1]
    out = np.zeros((m, n))
    buf = np.empty((m, n))
    for i in range(k):
        np.multiply(a[:, i : i + 1], b[i : i + 1, :], out=buf)
        np.add(out, buf, out=out)
    return out


def with_extremes(rng, shape):
    """Normal entries, about one in six replaced by a signed zero, a signed
    infinity or a value near the overflow threshold."""
    x = rng.standard_normal(shape)
    mask = rng.random(shape) < 1.0 / 6.0
    x[mask] = rng.choice([0.0, -0.0, np.inf, -np.inf, 1e308, -1e308], size=int(mask.sum()))
    return x


def layouts(x):
    """The same matrix as a C-ordered copy, a Fortran-ordered copy, the
    transposed view of a C-ordered transpose, and a view with a column
    stride of two."""
    wide = np.zeros((x.shape[0], 2 * x.shape[1]))
    wide[:, ::2] = x
    return {
        "C": np.ascontiguousarray(x),
        "F": np.asfortranarray(x),
        "T": np.ascontiguousarray(x.T).T,
        "strided": wide[:, ::2],
    }


def same_bits(x, y):
    """Equal shapes and equal bits, NaN payloads and zero signs included."""
    return x.shape == y.shape and np.array_equal(x.view(np.uint64), y.view(np.uint64))


# full-batch post-training's forward and gradient products at N = 3500
# training rows, 10 features and 3 classes, and the gradient transposed
HOT_SHAPES = [(3500, 10, 3), (3, 3500, 10), (10, 3500, 3)]
# SGD's and the self-check's products: batches of 50 or 40 rows through
# layers of 10, 6, 5 and 3 units, one-row inputs, and their transposes
SMALL_SHAPES = [
    (50, 10, 10), (10, 50, 10), (50, 10, 1), (1, 50, 10), (1, 10, 10), (50, 1, 10),
    (50, 10, 3), (50, 3, 10), (3, 50, 10), (40, 6, 5), (40, 5, 2),
]


class TestMatmul:
    def test_identity(self):
        rng = np.random.default_rng(0)
        b = rng.standard_normal((3, 5))
        assert np.array_equal(matmul(np.eye(3), b), b)

    def test_permutation_swaps_columns(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert np.array_equal(matmul(a, swap), np.array([[2.0, 1.0], [4.0, 3.0]]))

    def test_matches_triple_loop_bit_for_bit(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((7, 5))
        b = rng.standard_normal((5, 3))
        assert np.array_equal(matmul(a, b), naive_matmul(a, b))

    def test_matches_triple_loop_on_views(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((6, 4))
        b = rng.standard_normal((6, 3))
        assert np.array_equal(matmul(a.T, b), naive_matmul(a.T.copy(), b))

    def test_block_path_matches_rank_one_loop_bit_for_bit(self):
        # one block when m k n <= _MATMUL_BLOCK and m n > 1; above that,
        # blocks while a block holds two or more indices, else the loop
        edge = [
            (3, 0, 4), (5, 5, 5), (4, 6, 5),  # one block
            (0, 0, 0), (1, 1, 1), (0, 1, 0), (2, 1, 0),  # m n <= 1: blocks
            (2, _MATMUL_BLOCK // 4 + 1, 2),  # one index past the first block
            (2, 2 * (_MATMUL_BLOCK // 4), 2),  # exactly two blocks
            (3, _MATMUL_BLOCK // 3 + 1, 1),
            (64, 3, 64), (4096, 3, 1),  # m n = _MATMUL_BLOCK // 2: blocks of two
            (65, 3, 64), (64, 3, 65), (4097, 2, 1),  # one index per block: the loop
            (91, 92, 91),  # m n > _MATMUL_BLOCK: the loop
            (3, 3500, 10), (3500, 11, 3),
            # the loop on large outputs: m > n runs on the transpose
            (3500, 10, 3), (300, 12, 40), (40, 12, 300), (3, 10, 3500),
            # one block with a long output axis
            (700, 10, 1), (1, 10, 700), (64, 8, 4), (63, 8, 4),
            # blocks on large problems, m > n and m < n
            (10, 3500, 3), (7, 900, 2), (2, 900, 7), (4, 5000, 4),
            # m n = 1 and 2: one block past _MATMUL_BLOCK
            (1, 9000, 1), (1, 9000, 2), (2, 9000, 1),
        ]
        rng = np.random.default_rng(4)
        shapes = edge + [
            tuple(int(v) for v in rng.integers(0, 12, size=3)) for _ in range(60)
        ] + [
            (int(rng.integers(1, 6)), int(rng.integers(12, 3000)), int(rng.integers(1, 6)))
            for _ in range(20)
        ]
        for m, k, n in shapes:
            a = with_extremes(rng, (m, k))
            b = with_extremes(rng, (k, n))
            with np.errstate(over="ignore", invalid="ignore"):
                got = matmul(a, b)
                want = rank_one_matmul(a, b)
            assert same_bits(got, want), (m, k, n)

    @pytest.mark.parametrize("m, k, n", HOT_SHAPES)
    def test_hot_shapes_match_triple_loop_bit_for_bit(self, m, k, n):
        rng = np.random.default_rng(m + 7 * n)
        a = with_extremes(rng, (m, k))
        b = with_extremes(rng, (k, n))
        with np.errstate(over="ignore", invalid="ignore"):
            want = naive_matmul(a, b)
            got = matmul(a, b)
        assert got.flags.c_contiguous
        assert same_bits(got, want)

    @pytest.mark.parametrize("a_layout", ["C", "F", "T", "strided"])
    @pytest.mark.parametrize("b_layout", ["C", "F", "T", "strided"])
    def test_operand_layout_does_not_change_bits(self, a_layout, b_layout):
        rng = np.random.default_rng(5)
        for m, k, n in HOT_SHAPES + [(6, 5, 4), (4, 300, 6), (50, 10, 10), (1, 9000, 1)]:
            a = with_extremes(rng, (m, k))
            b = with_extremes(rng, (k, n))
            with np.errstate(over="ignore", invalid="ignore"):
                want = rank_one_matmul(a, b)
                got = matmul(layouts(a)[a_layout], layouts(b)[b_layout])
            assert got.flags.c_contiguous, (m, k, n)
            assert same_bits(got, want), (m, k, n)

    @pytest.mark.parametrize(
        "m, k, n",
        SMALL_SHAPES
        + [
            (4, _MATMUL_BLOCK // 16, 4),  # m k n = _MATMUL_BLOCK: one block
            (1, _MATMUL_BLOCK // 2, 2),
            (3, _MATMUL_BLOCK // 3 + 1, 1),  # m k n = _MATMUL_BLOCK + 1: blocks
            (1, _MATMUL_BLOCK // 3 + 1, 3),
            (1, 0, 2), (2, 0, 1), (1, 1, 2), (2, 1, 1), (1, 7, 2), (2, 7, 1),  # m n = 2
        ],
    )
    def test_small_products_match_triple_loop_in_every_layout(self, m, k, n):
        rng = np.random.default_rng(1000 * m + 10 * n + k)
        a = with_extremes(rng, (m, k))
        b = with_extremes(rng, (k, n))
        with np.errstate(over="ignore", invalid="ignore"):
            want = naive_matmul(a, b)
            for a_layout, a_view in layouts(a).items():
                for b_layout, b_view in layouts(b).items():
                    got = matmul(a_view, b_view)
                    assert got.flags.c_contiguous, (a_layout, b_layout)
                    assert same_bits(got, want), (a_layout, b_layout)

    def test_one_block_sums_in_order_where_pairwise_would_not(self):
        # two output entries, each the ordered sum of _MATMUL_BLOCK // 2
        # products whose pairwise sum differs from the ordered one
        rng = np.random.default_rng(7)
        k = _MATMUL_BLOCK // 2
        a = rng.standard_normal((1, k)) * np.exp(rng.uniform(-20.0, 20.0, size=(1, k)))
        b = rng.standard_normal((k, 2))
        got = matmul(a, b)
        for j in range(2):
            products = a[0] * b[:, j]
            in_order = 0.0
            for p in products:
                in_order += p
            assert np.add.reduce(products) != in_order
            assert got[0, j] == in_order

    def test_single_entry_sums_in_order_where_pairwise_would_not(self):
        # with one output entry a reduce would add the products pairwise;
        # these products make that visible, and matmul must add in order,
        # within one block and past it
        for k in (200, _MATMUL_BLOCK, 9001):
            rng = np.random.default_rng(6)
            a = rng.standard_normal((1, k)) * np.exp(rng.uniform(-20.0, 20.0, size=(1, k)))
            b = rng.standard_normal((k, 1))
            products = a[0] * b[:, 0]
            in_order = 0.0
            for p in products:
                in_order += p
            assert np.add.reduce(products) != in_order, k
            assert matmul(a, b)[0, 0] == in_order, k
            assert same_bits(matmul(a, b), naive_matmul(a, b)), k

    def test_block_path_sums_signed_zeros_like_the_loop(self):
        # 0.0 + (-0.0) is +0.0: the running sum starts at +0.0 in every path
        for m, k, n in [(1, 3, 1), (2, 3, 2), (2, 0, 2)]:
            a = np.full((m, k), -0.0)
            b = np.ones((k, n))
            assert same_bits(matmul(a, b), rank_one_matmul(a, b)), (m, k, n)
            assert not np.signbit(matmul(a, b)).any(), (m, k, n)

    def test_dimension_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionMismatchError, match="2x3.*4x2"):
            matmul(np.ones((2, 3)), np.ones((4, 2)))

    def test_associativity_within_tolerance(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = rng.standard_normal((4, 6))
            b = rng.standard_normal((6, 5))
            c = rng.standard_normal((5, 3))
            left = matmul(matmul(a, b), c)
            right = matmul(a, matmul(b, c))
            scale = max(1.0, float(np.max(np.abs(left))))
            assert float(np.max(np.abs(left - right))) <= 1e-9 * scale


class TestSolveSpd:
    def test_identity_returns_rhs(self):
        rng = np.random.default_rng(4)
        b = rng.standard_normal((4, 2))
        assert np.allclose(solve_spd(np.eye(4), b), b, rtol=0, atol=1e-14)

    def test_scalar_matrix(self):
        x = solve_spd(2.0 * np.eye(3), np.eye(3))
        assert np.allclose(x, 0.5 * np.eye(3), rtol=0, atol=1e-15)

    def test_residual_oracle(self):
        rng = np.random.default_rng(5)
        m = rng.standard_normal((6, 6))
        a = m.T @ m + np.eye(6)
        b = rng.standard_normal((6, 3))
        x = solve_spd(a, b)
        residual = float(np.max(np.abs(a @ x - b)))
        assert residual <= 1e-8 * (1.0 + float(np.max(np.abs(b))))

    def test_residual_property_on_100_random_systems(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            n = int(rng.integers(1, 51))
            m = rng.standard_normal((n, n))
            a = m.T @ m + np.eye(n)
            b = rng.standard_normal((n, int(rng.integers(1, 4))))
            x = solve_spd(a, b)
            residual = float(np.max(np.abs(a @ x - b)))
            assert residual <= 1e-8 * (1.0 + float(np.max(np.abs(b))))

    def test_rejects_non_symmetric(self):
        a = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(NotSymmetricError):
            solve_spd(a, np.eye(2))

    def test_non_positive_definite_reports_pivot(self):
        a = np.eye(4)
        a[2, 2] = -1.0
        with pytest.raises(NotPositiveDefiniteError) as err:
            solve_spd(a, np.eye(4))
        assert err.value.pivot_index == 2

    @pytest.mark.parametrize("n, k", [(1, 0), (5, 0), (5, 2), (5, 4), (12, 0), (12, 6), (12, 11)])
    def test_pivot_index_is_the_first_negative_diagonal_entry(self, n, k):
        # leading block k is a principal block of an SPD matrix; block k + 1
        # has a negative Schur complement, so the factorization fails at k
        rng = np.random.default_rng(100 * n + k)
        m = rng.standard_normal((n, n))
        a = m.T @ m + np.eye(n)
        a[k, k] = -1e3
        with pytest.raises(NotPositiveDefiniteError) as err:
            solve_spd(a, np.ones((n, 1)))
        assert err.value.pivot_index == k

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_matrix_names_first_entry(self, bad):
        a = 4.0 * np.eye(3)
        a[1, 2] = a[2, 1] = bad
        a[2, 2] = bad
        with pytest.raises(ValueError, match=r"^a has a non-finite entry .* at \(1, 2\)$"):
            solve_spd(a, np.ones((3, 1)))

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_non_finite_rhs_names_first_entry(self, bad):
        b = np.ones((3, 2))
        b[2, 0] = b[2, 1] = bad
        with pytest.raises(ValueError, match=r"^b has a non-finite entry .* at \(2, 0\)$"):
            solve_spd(4.0 * np.eye(3), b)


class TestSqFrobenius:
    def test_zero_matrix(self):
        assert sq_frobenius(np.zeros((3, 4))) == 0.0

    def test_three_four_five(self):
        assert sq_frobenius(np.array([[3.0, 4.0]])) == 25.0

    def test_matches_entrywise_accumulation(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((5, 5))
        expected = 0.0
        for v in a.reshape(-1):
            expected += v * v
        assert abs(sq_frobenius(a) - expected) <= 1e-12 * max(1.0, expected)

    def test_positive_unless_zero(self):
        assert sq_frobenius(np.array([[0.0, 1e-100]])) > 0.0


def smallest_eig_by_inverse_power(a, iterations=2000):
    """Inverse power iteration on (a - shift I) with a shift below the
    spectrum; independent of the LAPACK eigensolver under test."""
    n = a.shape[0]
    shift = -float(np.max(np.sum(np.abs(a), axis=1))) - 1.0  # Gershgorin lower bound
    shifted = a - shift * np.eye(n)
    v = np.ones(n) / np.sqrt(n)
    value = 0.0
    for _ in range(iterations):
        v = np.linalg.solve(shifted, v)
        v = v / np.linalg.norm(v)
        value = float(v @ (a @ v))
    return value


class TestMinEigenvalue:
    def test_identity(self):
        assert min_eigenvalue_symmetric(np.eye(5)) == pytest.approx(1.0, abs=1e-12)

    def test_diagonal(self):
        assert min_eigenvalue_symmetric(np.diag([3.0, -2.0, 7.0])) == pytest.approx(
            -2.0, abs=1e-12
        )

    def test_matches_inverse_power_iteration(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            m = rng.standard_normal((10, 10))
            a = 0.5 * (m + m.T)
            got = min_eigenvalue_symmetric(a)
            expected = smallest_eig_by_inverse_power(a)
            assert abs(got - expected) <= 1e-8

    def test_gram_matrices_are_psd(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            m = rng.standard_normal((int(rng.integers(1, 12)), int(rng.integers(1, 12))))
            assert min_eigenvalue_symmetric(m.T @ m) >= -1e-10

    def test_rejects_non_symmetric(self):
        with pytest.raises(NotSymmetricError):
            min_eigenvalue_symmetric(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match=r"non-finite entry nan at \(0, 1\)"):
            min_eigenvalue_symmetric(np.array([[1.0, np.nan], [np.nan, 1.0]]))
        # nor is an empty matrix, whose spectrum has no smallest entry
        with pytest.raises(ValueError, match="a is empty"):
            min_eigenvalue_symmetric(np.zeros((0, 0)))
