"""Seedable 64-bit random number generation with a frozen algorithm.

Every random draw in this package flows through SplitMix64 (Steele, Lea &
Flood's mixing function: additive 0x9E3779B97F4A7C15 counter followed by a
xor-shift-multiply finalizer): datasets, splits, initial weights, dropout,
shuffles and the self-checks' random instances.  No lastlayer process loads
``numpy.random``.  The algorithm is fixed for the lifetime of the repository
so that seeded datasets, splits, training runs and self-check reports stay
bit-identical across library versions; relying on numpy's Generator would
tie snapshots to numpy's internal streams.

Streams are counter-based: the n-th output depends only on (seed, n), so a
vectorized block of draws equals the same draws taken one at a time, and
per-iteration child seeds (`derive`) make training loops resumable from any
iteration without replaying history.
"""

from __future__ import annotations

import numpy as np

MASK64 = 0xFFFFFFFFFFFFFFFF
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3

# 2**-53: turns the top 53 bits of a uint64 into a double in [0, 1)
_UNIT = 1.1102230246251565e-16

# uints' constants as uint64 scalars, built once; array arithmetic on
# uint64 wraps modulo 2**64 without a warning
_GAMMA_U64 = np.uint64(_GAMMA)
_MIX1_U64 = np.uint64(_MIX1)
_MIX2_U64 = np.uint64(_MIX2)
_SHIFT11, _SHIFT27, _SHIFT30, _SHIFT31 = (np.uint64(k) for k in (11, 27, 30, 31))


def mix64(z: int) -> int:
    """SplitMix64 finalizer on a python integer."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & MASK64
    return z ^ (z >> 31)


def _label_key(label) -> int:
    """Map a stream label (int or str) to a 64-bit key (FNV-1a for strings)."""
    if isinstance(label, bool):
        raise TypeError("bool is not a valid stream label")
    if isinstance(label, int):
        return label & MASK64
    if isinstance(label, str):
        h = _FNV_OFFSET
        for byte in label.encode("utf-8"):
            h = ((h ^ byte) * _FNV_PRIME) & MASK64
        return h
    raise TypeError(f"stream label must be int or str, got {type(label).__name__}")


def derive(seed: int, *labels) -> int:
    """Derive an independent child seed from a base seed and labels.

    derive(seed, "dropout", t) gives every training iteration its own
    stream, which is what makes checkpoint-resumed runs bit-identical to
    uninterrupted ones.
    """
    h = mix64(seed & MASK64)
    for label in labels:
        h = mix64((h ^ _label_key(label)) + _GAMMA)
    return h


class Rng:
    """SplitMix64 stream.

    Scalar and vectorized draws read the same underlying counter sequence,
    so `[rng.next_uint() for _ in range(n)]` equals `rng.uints(n)`.
    """

    def __init__(self, seed: int):
        self._state = seed & MASK64

    def next_uint(self) -> int:
        self._state = (self._state + _GAMMA) & MASK64
        return mix64(self._state)

    def uints(self, n: int) -> np.ndarray:
        """n raw 64-bit outputs as a uint64 array.

        The counters are mixed in place, each shift into one scratch array
        of the same size, so a block of n draws holds two n-sized arrays at
        most; uint64 arithmetic is exact modulo 2**64 in any grouping."""
        if n < 0:
            raise ValueError("n must be nonnegative")
        z = np.arange(1, n + 1, dtype=np.uint64)
        z *= _GAMMA_U64
        z += np.uint64(self._state)
        shifted = np.empty_like(z)
        z ^= np.right_shift(z, _SHIFT30, out=shifted)
        z *= _MIX1_U64
        z ^= np.right_shift(z, _SHIFT27, out=shifted)
        z *= _MIX2_U64
        z ^= np.right_shift(z, _SHIFT31, out=shifted)
        self._state = (self._state + n * _GAMMA) & MASK64
        return z

    def uniforms(self, n: int) -> np.ndarray:
        """n doubles uniform on [0, 1), from the top 53 bits of each output.

        The shift runs in place on the raw outputs and the scaling in place
        on the doubles; the top 53 bits convert exactly, so the result is
        ``(uints(n) >> 11).astype(float64) * 2**-53`` bit for bit."""
        z = self.uints(n)
        z >>= _SHIFT11
        u = z.astype(np.float64)
        u *= _UNIT
        return u

    def normals(self, n: int) -> np.ndarray:
        """n standard normal deviates by Box-Muller, deviate i from uniforms
        2i and 2i + 1 (u, v): sqrt(-2 log(1 - u)) cos(2 pi v).  With u in
        [0, 1) the logarithm is finite; only the cosine branch is used, so
        each deviate takes its own two draws and ``normals(a)`` followed by
        ``normals(b)`` equals ``normals(a + b)``."""
        u = self.uniforms(2 * n)
        return np.sqrt(-2.0 * np.log1p(-u[0::2])) * np.cos(2.0 * np.pi * u[1::2])

    def uniform_matrix(self, rows: int, cols: int, low: float = 0.0, high: float = 1.0) -> np.ndarray:
        """rows x cols matrix of uniforms on [low, high), filled row-major."""
        u = self.uniforms(rows * cols).reshape(rows, cols)
        if low != 0.0 or high != 1.0:
            # low + (high - low) * u, in place: both operations commute exactly
            u *= high - low
            u += low
        return u

    def randbelow(self, bound: int) -> int:
        """Unbiased integer in [0, bound) via rejection sampling."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            z = self.next_uint()
            if z < limit:
                return z % bound

    def permutation(self, n: int) -> np.ndarray:
        """Fisher-Yates permutation of 0..n-1 as an int64 array.

        Step i (from n - 1 down to 1) swaps i with ``randbelow(i + 1)``.  The
        n - 1 draws are taken as one ``uints`` block and reduced together;
        from the first draw that ``randbelow``'s rejection test refuses, the
        stream is rewound to that draw and continued with ``randbelow``
        itself, so the swaps and the final state equal the scalar stream's,
        rejections included.
        """
        perm = list(range(n))
        if n < 2:
            return np.array(perm, dtype=np.int64)
        start = self._state
        bounds = np.arange(n, 1, -1, dtype=np.uint64)
        z = self.uints(n - 1)
        # randbelow refuses z >= 2**64 - 2**64 % b, i.e. z > MASK64 - 2**64 % b
        tail = (np.uint64(MASK64) % bounds + np.uint64(1)) % bounds
        refused = np.flatnonzero(z > np.uint64(MASK64) - tail)
        picks = z % bounds
        if refused.size:
            first = int(refused[0])
            self._state = (start + first * _GAMMA) & MASK64
            picks[first:] = [self.randbelow(int(b)) for b in bounds[first:]]
        # a memoryview yields Python ints without building a second list
        for i, j in zip(range(n - 1, 0, -1), memoryview(picks)):
            perm[i], perm[j] = perm[j], perm[i]
        return np.array(perm, dtype=np.int64)
