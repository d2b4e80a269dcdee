"""Deterministic random number generation.

All sampling in this package goes through ``Xoshiro256StarStar``, a
xoshiro256** generator seeded via splitmix64. Both algorithms are fixed
here bit-for-bit so that identical seeds produce identical streams on
every platform and in every implementation of this pipeline, independent
of numpy's generator internals.

Bulk draws run over many lanes at once. ``doubles(n)`` splits its n draws
into contiguous blocks of m = ceil(n / 512) draws, one block per lane,
and lane l starts at the state l*m steps ahead. The xoshiro256** state
update is linear over GF(2), so one step is a 256x256 bit matrix T, and
the lanes are placed by jump-ahead: each start is T^m applied to the one
before it, with T^m built by repeated squaring (Blackman & Vigna,
"Scrambled linear pseudorandom number generators", TOMS 2021). The lanes
then step together as numpy ``uint64`` arrays. Below a few thousand draws
the matrix set-up costs more than it saves, so such calls step one state
in Python; the choice depends on n alone. Either way ``doubles(n)``
returns exactly the values of n scalar draws and leaves the generator in
exactly the state after them.
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


# Bulk draws: below _LANE_CUTOFF draws the scalar loop is faster than
# the jump-ahead set-up; above it the draws are split over _LANES lanes.
_LANES = 512
_LANE_CUTOFF = 4096


def _advance_lanes(s: np.ndarray, tmp: np.ndarray) -> None:
    """One xoshiro256** state update of every lane of s, a (4, lanes)
    uint64 array, in place; tmp is a scratch row of the same length."""
    s0, s1, s2, s3 = s
    np.left_shift(s1, 17, out=tmp)
    s2 ^= s0
    s3 ^= s1
    s1 ^= s2
    s0 ^= s3
    s2 ^= tmp
    np.left_shift(s3, 45, out=tmp)
    np.right_shift(s3, 19, out=s3)
    s3 |= tmp


def _to_bits(words: np.ndarray) -> np.ndarray:
    """(k, 4) uint64 states -> (k, 256) float32 bit vectors; bit b of
    word w goes to column 64*w + b."""
    raw = np.ascontiguousarray(words, dtype="<u8").view(np.uint8)
    return np.unpackbits(raw, axis=1, bitorder="little").astype(np.float32)


def _from_bits(bits: np.ndarray) -> np.ndarray:
    """Inverse of ``_to_bits``: (k, 256) uint8 bits -> (k, 4) uint64
    states."""
    raw = np.packbits(bits, axis=1, bitorder="little")
    return raw.view("<u8").astype(np.uint64)


def _gf2(x: np.ndarray) -> np.ndarray:
    """Reduce a float32 product of bit arrays mod 2. The sums are
    integers of at most 256, so float32 holds them exactly."""
    return (x.astype(np.uint16) & 1).astype(np.float32)


def _transition() -> np.ndarray:
    """T, the 256x256 GF(2) matrix of one state update: column j is
    the update of the unit state with only bit j set."""
    lanes = np.zeros((4, 256), dtype=np.uint64)
    bit = np.arange(256)
    lanes[bit // 64, bit] = np.left_shift(np.uint64(1), (bit % 64).astype(np.uint64))
    _advance_lanes(lanes, np.empty(256, dtype=np.uint64))
    return np.ascontiguousarray(_to_bits(lanes.T).T)


def _jump(m: int) -> np.ndarray:
    """T^m over GF(2), by repeated squaring."""
    result = None
    base = _transition()
    while True:
        if m & 1:
            result = base if result is None else _gf2(result @ base)
        m >>= 1
        if not m:
            return result
        base = _gf2(base @ base)


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
        """n doubles in [0, 1), each ``random()`` of the next draw.

        The result and the state left behind are bit-identical to n calls
        of ``random()``. From ``_LANE_CUTOFF`` draws on, the n draws are
        split into blocks of m = ceil(n / _LANES); lane l starts at the
        state after l*m steps (T^m jump-ahead from lane l-1) and writes
        draw t of its block straight into ``out[l*m + t]``. The last lane
        may hold fewer than m draws; the state after its last draw is the
        state after n draws, and the generator continues from it.
        """
        out = np.empty(n, dtype=np.float64)
        if n < _LANE_CUTOFF:
            nxt = self.next_u64
            for i in range(n):
                out[i] = (nxt() >> 11) * _INV_2_53
            return out
        m = -(-n // _LANES)
        lanes = -(-n // m)
        tail = n - (lanes - 1) * m
        s = self._lane_starts(m, lanes)
        head = out[:(lanes - 1) * m].reshape(lanes - 1, m)
        last = out[(lanes - 1) * m:]
        draw = np.empty(lanes, dtype=np.uint64)
        tmp = np.empty(lanes, dtype=np.uint64)
        for t in range(m):
            # result = rotl(s1 * 5, 7) * 9, then its top 53 bits
            np.multiply(s[1], 5, out=draw)
            np.left_shift(draw, 7, out=tmp)
            np.right_shift(draw, 57, out=draw)
            draw |= tmp
            draw *= 9
            draw >>= 11
            np.multiply(draw[:-1], _INV_2_53, out=head[:, t])
            if t < tail:
                np.multiply(draw[-1:], _INV_2_53, out=last[t:t + 1])
            _advance_lanes(s, tmp)
            if t == tail - 1:
                self._s0, self._s1, self._s2, self._s3 = (int(w) for w in s[:, -1])
        return out

    def _lane_starts(self, m: int, lanes: int) -> np.ndarray:
        """(4, lanes) uint64 states: lane l is the current state advanced
        l*m steps."""
        jump = _jump(m)
        bits = np.empty((lanes, 256), dtype=np.uint8)
        v = _to_bits(np.array([[self._s0, self._s1, self._s2, self._s3]],
                              dtype=np.uint64))[0]
        bits[0] = v
        for lane in range(1, lanes):
            v = _gf2(jump @ v)
            bits[lane] = v
        return np.ascontiguousarray(_from_bits(bits).T)

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
