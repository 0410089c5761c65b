"""The random stream is a frozen contract: these tests pin it against an
independent scalar implementation and check the statistical basics."""

import math
import re

import numpy as np
import pytest

from lastlayer.rng import MASK64, Rng, derive, mix64

# the stream rests on uint64 array arithmetic wrapping modulo 2**64 without a
# warning, and on uint64 scalars keeping uint64 arrays uint64 under numpy
# 1.24's value-based casting as under 2.x's NEP 50 promotion
pytestmark = pytest.mark.numpy_floor

_GAMMA = 0x9E3779B97F4A7C15
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB


def reference_stream(seed: int, n: int):
    """Plain-integer SplitMix64, written independently of the numpy path."""
    out = []
    state = seed & MASK64
    for _ in range(n):
        state = (state + _GAMMA) & MASK64
        z = state
        z = ((z ^ (z >> 30)) * _M1) & MASK64
        z = ((z ^ (z >> 27)) * _M2) & MASK64
        z = z ^ (z >> 31)
        out.append(z)
    return out


def test_vectorized_stream_matches_scalar_reference():
    for seed in (0, 1, 123456789, 2**63 + 17):
        expected = reference_stream(seed, 40)
        got = [int(v) for v in Rng(seed).uints(40)]
        assert got == expected


def test_scalar_and_vector_draws_interleave():
    a = Rng(42)
    b = Rng(42)
    first = [a.next_uint() for _ in range(5)]
    rest = [int(v) for v in a.uints(5)]
    assert first + rest == [int(v) for v in b.uints(10)]


def test_uniforms_lie_in_unit_interval():
    u = Rng(7).uniforms(10000)
    assert np.all(u >= 0.0) and np.all(u < 1.0)
    assert abs(float(u.mean()) - 0.5) < 0.02


def test_uniform_matrix_is_row_major_of_the_stream():
    flat = Rng(9).uniforms(12)
    mat = Rng(9).uniform_matrix(3, 4)
    assert np.array_equal(mat, flat.reshape(3, 4))


def test_uniform_matrix_range_rescaling():
    mat = Rng(5).uniform_matrix(50, 4, -1.0, 1.0)
    assert np.all(mat >= -1.0) and np.all(mat < 1.0)


def test_permutation_is_a_permutation_and_deterministic():
    p1 = Rng(31).permutation(100)
    p2 = Rng(31).permutation(100)
    assert np.array_equal(p1, p2)
    assert np.array_equal(np.sort(p1), np.arange(100))
    assert not np.array_equal(p1, np.arange(100))


def scalar_permutation(rng: Rng, n: int):
    """Rng.permutation before its vectorised draw: Fisher-Yates with one
    randbelow per step; kept as its oracle."""
    perm = np.arange(n, dtype=np.int64)
    for i in range(n - 1, 0, -1):
        j = rng.randbelow(i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    return perm


def unmix64(z: int) -> int:
    """Inverse of mix64: undo each xor-shift and multiply in reverse order."""

    def unshift(v, s):
        x = v
        for _ in range(64 // s + 1):
            x = v ^ (x >> s)
        return x

    z = unshift(z, 31)
    z = unshift((z * pow(_M2, -1, 1 << 64)) & MASK64, 27)
    return unshift((z * pow(_M1, -1, 1 << 64)) & MASK64, 30)


def test_unmix64_inverts_mix64():
    for z in (0, 1, MASK64, 2**63 + 5, 0x0123456789ABCDEF):
        assert mix64(unmix64(z)) == z


def test_permutation_matches_scalar_fisher_yates():
    for seed in (0, 1, 123456789, 2**63 + 17):
        for n in (0, 1, 2, 3, 7000):
            fast, slow = Rng(seed), Rng(seed)
            got = fast.permutation(n)
            want = scalar_permutation(slow, n)
            assert got.dtype == want.dtype == np.int64
            assert np.array_equal(got, want), (seed, n)
            assert fast._state == slow._state


def test_permutation_rejection_branch_matches_scalar_fisher_yates():
    # draw number `refused` of this seed is 2**64 - 1, which randbelow(b)
    # refuses for every b that is not a power of two: here b = 3 and 6995..7000
    for refused, n in ((0, 3), (0, 7000), (5, 7000)):
        seed = (unmix64(MASK64) - (refused + 1) * _GAMMA) & MASK64
        rng = Rng(seed)
        assert [rng.next_uint() for _ in range(refused + 1)][-1] == MASK64
        fast, slow = Rng(seed), Rng(seed)
        assert np.array_equal(fast.permutation(n), scalar_permutation(slow, n))
        assert fast._state == slow._state == (seed + n * _GAMMA) & MASK64  # n - 1 draws + 1


def test_randbelow_keeps_draws_below_its_limit_and_redraws_from_it():
    # 2**64 % 7 == 2, so randbelow(7) keeps draws below 2**64 - 2 and redraws
    # the two above; a seed is placed so that its first draw is z
    limit = 2**64 - 2
    for z, draws in ((limit - 1, 1), (limit, 2)):
        seed = (unmix64(z) - _GAMMA) & MASK64
        reference = Rng(seed)
        kept = [reference.next_uint() for _ in range(draws)][-1]
        assert (kept == z) == (draws == 1) and kept < limit
        rng = Rng(seed)
        assert rng.randbelow(7) == kept % 7
        assert rng._state == reference._state


def reference_normals(seed: int, n: int):
    """Box-Muller on plain floats from the scalar reference stream:
    deviate i from outputs 2i and 2i + 1."""
    u = [(z >> 11) * 2.0**-53 for z in reference_stream(seed, 2 * n)]
    return [math.sqrt(-2.0 * math.log1p(-a)) * math.cos(2.0 * math.pi * b)
            for a, b in zip(u[0::2], u[1::2])]


def test_normals_match_scalar_reference():
    # the math module's libm and numpy's loops may differ in the last bit
    for seed in (0, 1, 123456789, 2**63 + 17):
        np.testing.assert_allclose(Rng(seed).normals(50), reference_normals(seed, 50),
                                   rtol=0, atol=1e-14)


def test_normals_first_values_are_pinned():
    # the algorithm is frozen: these values may not change for the life of
    # the repository (up to the last bit of the platform's log1p and cos)
    pinned = [1.143769344817183, 0.6275664934417265, -1.7830448963731438,
              -0.4459513936656829, -0.5450859572430475, 0.5783200873155108]
    np.testing.assert_allclose(Rng(2024).normals(6), pinned, rtol=1e-14, atol=0)


@pytest.mark.parametrize("a, b", [(0, 5), (1, 1), (3, 4), (7, 0), (10, 33)])
def test_normals_in_two_calls_equal_one_call(a, b):
    split = Rng(11)
    got = np.concatenate([split.normals(a), split.normals(b)])
    whole = Rng(11)
    assert got.tobytes() == whole.normals(a + b).tobytes()
    assert split._state == whole._state


def test_normals_at_the_ends_of_the_unit_interval_are_finite():
    # a first output of 0 gives u = 0, where log1p(-u) = 0; one of 2**64 - 1
    # gives the largest u, 1 - 2**-53, where log(1 - u) is finite
    for first, radius in ((0, 0.0), (MASK64, math.sqrt(106.0 * math.log(2.0)))):
        seed = (unmix64(first) - _GAMMA) & MASK64
        assert Rng(seed).next_uint() == first
        with np.errstate(all="raise"):
            (z,) = Rng(seed).normals(1)
        assert np.isfinite(z)
        assert abs(z) <= radius * (1 + 1e-15)


def test_normals_mean_and_variance():
    # within 5 standard errors: sd of the mean 1/sqrt(n), of the variance
    # sqrt(2 / n) for normal deviates
    n = 100_000
    z = Rng(2025).normals(n)
    assert abs(float(z.mean())) < 5.0 / math.sqrt(n)
    assert abs(float(z.var()) - 1.0) < 5.0 * math.sqrt(2.0 / n)


def test_derive_separates_streams():
    base = 99
    seeds = {derive(base, "a"), derive(base, "b"), derive(base, "a", 0), derive(base, "a", 1)}
    assert len(seeds) == 4
    assert derive(base, "a", 7) == derive(base, "a", 7)


def test_mix64_avalanche_on_single_bit():
    assert mix64(1) != mix64(2)
    # the stream adds the increment before mixing, so state 0 never reaches mix64
    assert Rng(0).next_uint() != 0


def expression_uints(seed: int, n: int) -> np.ndarray:
    """The SplitMix64 block as whole-array expressions, each step a new array."""
    z = np.arange(1, n + 1, dtype=np.uint64) * np.uint64(_GAMMA) + np.uint64(seed & MASK64)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_M1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_M2)
    return z ^ (z >> np.uint64(31))


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n", [0, 1, 7, 1000, 100000])
@pytest.mark.parametrize("seed", [0, 1, 123456789, 2**63 + 17, MASK64])
def test_in_place_draws_equal_the_array_expressions(seed, n):
    z = expression_uints(seed, n)
    assert same_bits(Rng(seed).uints(n), z)
    u = (z >> np.uint64(11)).astype(np.float64) * 2.0**-53
    assert same_bits(Rng(seed).uniforms(n), u)
    cols = 10 if n % 10 == 0 else 1
    grid = u.reshape(n // cols, cols)
    assert same_bits(Rng(seed).uniform_matrix(n // cols, cols), grid)
    low, high = -0.75, 2.5
    assert same_bits(Rng(seed).uniform_matrix(n // cols, cols, low, high),
                     low + (high - low) * grid)


@pytest.mark.parametrize("make, error, message", [
    (lambda: derive(0, True), TypeError, "bool is not a valid stream label"),
    (lambda: derive(0, 1.5), TypeError, "stream label must be int or str, got float"),
    (lambda: Rng(0).uints(-1), ValueError, "n must be nonnegative"),
    (lambda: Rng(0).randbelow(0), ValueError, "bound must be positive"),
])
def test_refuses(make, error, message):
    with pytest.raises(error, match=re.escape(message)):
        make()
