"""Deterministic random number generation.

All sampling in this package goes through ``Xoshiro256StarStar``, a
xoshiro256** generator seeded via splitmix64. Both algorithms are fixed
here bit-for-bit so that identical seeds produce identical streams on
every platform and in every implementation of this pipeline, independent
of numpy's generator internals.
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_INV_2_53 = 2.0 ** -53


def _splitmix64(state: int) -> tuple[int, int]:
    """One splitmix64 step: returns (next_state, output)."""
    state = (state + _GOLDEN) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, z ^ (z >> 31)


def derive_seed(seed: int, salt: int) -> int:
    """Derive an independent 64-bit seed from (seed, salt).

    Used to give each consumer (batch sampling, init, offsets, ...) its
    own stream without correlated prefixes.
    """
    state = (seed ^ ((salt * _GOLDEN) & _MASK64)) & _MASK64
    state, _ = _splitmix64(state)
    _, out = _splitmix64(state)
    return out


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK64


class Xoshiro256StarStar:
    """xoshiro256** with splitmix64 seeding.

    The four state words are the first four splitmix64 outputs of the
    seed, guaranteeing a non-zero state for every seed.
    """

    __slots__ = ("_s0", "_s1", "_s2", "_s3", "_spare_normal")

    def __init__(self, seed: int):
        state = seed & _MASK64
        words = []
        for _ in range(4):
            state, out = _splitmix64(state)
            words.append(out)
        self._s0, self._s1, self._s2, self._s3 = words
        self._spare_normal: float | None = None

    def next_u64(self) -> int:
        s0, s1, s2, s3 = self._s0, self._s1, self._s2, self._s3
        result = (_rotl((s1 * 5) & _MASK64, 7) * 9) & _MASK64
        t = (s1 << 17) & _MASK64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = _rotl(s3, 45)
        self._s0, self._s1, self._s2, self._s3 = s0, s1, s2, s3
        return result

    def random(self) -> float:
        """Double in [0, 1) from the top 53 bits."""
        return (self.next_u64() >> 11) * _INV_2_53

    def doubles(self, n: int) -> np.ndarray:
        """n doubles in [0, 1)."""
        out = np.empty(n, dtype=np.float64)
        nxt = self.next_u64
        for i in range(n):
            out[i] = (nxt() >> 11) * _INV_2_53
        return out

    def uniform(self, low: float, high: float, n: int) -> np.ndarray:
        return low + (high - low) * self.doubles(n)

    def below(self, n: int) -> int:
        """Unbiased integer in [0, n) via rejection sampling."""
        if n <= 0:
            raise ValueError("below() requires n >= 1")
        limit = (1 << 64) - ((1 << 64) % n)
        v = self.next_u64()
        while v >= limit:
            v = self.next_u64()
        return v % n

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]

    def sample_indices(self, n: int, k: int) -> list[int]:
        """k distinct indices from range(n), partial Fisher-Yates order."""
        if k > n:
            raise ValueError(f"cannot sample {k} distinct items from {n}")
        pool = list(range(n))
        for i in range(k):
            j = i + self.below(n - i)
            pool[i], pool[j] = pool[j], pool[i]
        return pool[:k]

    def normal(self) -> float:
        """Standard normal via the Box-Muller transform."""
        if self._spare_normal is not None:
            z = self._spare_normal
            self._spare_normal = None
            return z
        # 1 - u keeps the log argument in (0, 1]
        u1 = 1.0 - self.random()
        u2 = self.random()
        r = math.sqrt(-2.0 * math.log(u1))
        theta = 2.0 * math.pi * u2
        self._spare_normal = r * math.sin(theta)
        return r * math.cos(theta)

    def normals(self, n: int, sigma: float = 1.0) -> np.ndarray:
        return np.array([self.normal() for _ in range(n)]) * sigma
