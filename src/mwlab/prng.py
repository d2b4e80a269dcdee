"""Deterministic random number generation.

All sampling in this package goes through ``Xoshiro256StarStar``, a
xoshiro256** generator seeded via splitmix64. Both algorithms are fixed
here bit-for-bit so that identical seeds produce identical streams on
every platform and in every implementation of this pipeline, independent
of numpy's generator internals.

The xoshiro256** state update is linear over GF(2): one step is a
256x256 bit matrix T, and T^k jumps a state k steps ahead (Blackman &
Vigna, "Scrambled linear pseudorandom number generators", TOMS 2021).
A block of L lanes x S steps therefore holds exactly the next L*S values
of the one stream: lane l starts l*S steps in, and is placed by doubling
from the state words through 4-bit lookup tables of T^(32 * 2^k), 2^k <
512, built once per process, then by whole runs of lanes one jump of the
widest table on. The lanes step together as numpy ``uint64`` arrays, and
a block is laid out lane-major. Scalar draws read a buffered 512 x 32
block. Bulk reads take its unread rest, then write whole 2048 x 128 and
512 x 32 blocks straight into their output. The state words always hold
the state after the last block made, so every call leaves the generator
exactly where the same draws taken one at a time would.
"""

from __future__ import annotations

import functools
import math
from itertools import chain

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


# A buffered block: _BLOCK_LANES lanes of _BLOCK_STEPS draws each.
_BLOCK_LANES = 512
_BLOCK_STEPS = 32
_BLOCK_SIZE = _BLOCK_LANES * _BLOCK_STEPS
_WIDE_LANES, _WIDE_SIZE = 2048, 1 << 18  # a bulk read's wide block: faster than 8192 x 32
_NO_BLOCK = memoryview(np.empty(0, dtype=np.uint64))


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


def _scramble(s1: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> None:
    """out = rotl(s1 * 5, 7) * 9: the xoshiro256** output of every lane."""
    np.multiply(s1, 5, out=out)
    np.left_shift(out, 7, out=tmp)
    np.right_shift(out, 57, out=out)
    out |= tmp
    out *= 9


def _stepped_units(steps: int) -> np.ndarray:
    """(256, 4) uint64: row j is the unit state with only bit j set,
    advanced ``steps`` updates; that is, column j of T^steps."""
    lanes = np.zeros((4, 256), dtype=np.uint64)
    bit = np.arange(256)
    lanes[bit // 64, bit] = np.left_shift(np.uint64(1), (bit % 64).astype(np.uint64))
    tmp = np.empty(256, dtype=np.uint64)
    for _ in range(steps):
        _advance_lanes(lanes, tmp)
    return lanes.T


def _nibble_table(columns: np.ndarray) -> np.ndarray:
    """Lookup table of a GF(2) matrix M from its (256, 4) uint64 columns:
    a (1024, 4) uint64 array whose row 16*p + c is M applied to the state
    holding the 4-bit value c at bits 4p..4p+3 and zeros elsewhere."""
    table = np.zeros((64, 16, 4), dtype=np.uint64)
    columns = columns.reshape(64, 4, 4)
    for b in range(4):
        table[:, 1 << b:2 << b] = table[:, :1 << b] ^ columns[:, b, None]
    return table.reshape(1024, 4)


def _apply(table: np.ndarray, states: np.ndarray) -> np.ndarray:
    """M applied to each (k, 4) uint64 state row: the XOR of one table
    row per 4-bit nibble of the state."""
    raw = np.ascontiguousarray(states, dtype="<u8").view(np.uint8).T
    rows = np.empty((64, len(states)), dtype=np.intp)
    rows[0::2] = raw & 15
    rows[1::2] = raw >> 4
    rows += 16 * np.arange(64)[:, None]  # nibble p's entries start at row 16p
    return np.bitwise_xor.reduce(np.take(table, rows, axis=0), axis=0)


@functools.cache
def _jump_tables() -> tuple[np.ndarray, ...]:
    """Lookup tables of T^(32 * 2^k) for 2^k < _BLOCK_LANES. T^32 steps
    the unit states; each later one squares the one before it through
    its table."""
    columns = _stepped_units(_BLOCK_STEPS)
    tables = [_nibble_table(columns)]
    while 1 << len(tables) < _BLOCK_LANES:
        columns = _apply(tables[-1], columns)
        tables.append(_nibble_table(columns))
    for table in tables:
        table.flags.writeable = False
    return tuple(tables)


class Xoshiro256StarStar:
    """xoshiro256** with splitmix64 seeding.

    The four state words are the first four splitmix64 outputs of the
    seed, guaranteeing a non-zero state for every seed. ``_state`` is the
    state after the last block made; the buffered ``_block`` is read up to
    ``_pos``.
    """

    __slots__ = ("_state", "_block", "_pos", "_spare_normal")

    def __init__(self, seed: int):
        state = seed & _MASK64
        words = []
        for _ in range(4):
            state, out = _splitmix64(state)
            words.append(out)
        self._state = np.array(words, dtype=np.uint64)
        self._block = _NO_BLOCK
        self._pos = _BLOCK_SIZE
        self._spare_normal: float | None = None

    def _fill(self, raw: np.ndarray, lanes: int) -> None:
        """Write the next len(raw) values into uint64 ``raw`` as one block of
        ``lanes`` (a power of two) lanes, and move the state words past it."""
        steps = len(raw) // lanes  # 32 * 2^j, so tables[k] is T^(steps * 2^k)
        tables = _jump_tables()[steps.bit_length() - _BLOCK_STEPS.bit_length():]
        starts = np.empty((lanes, 4), dtype=np.uint64)
        starts[0] = self._state
        placed = 1
        while placed < lanes:  # the next run of lanes is the run before it, jumped
            run = min(placed, 1 << len(tables) - 1)  # tables[k] jumps 2^k lanes
            starts[placed:placed + run] = _apply(tables[run.bit_length() - 1],
                                                 starts[placed - run:placed])
            placed += run
        s = np.ascontiguousarray(starts.T)
        tmp = np.empty(lanes, dtype=np.uint64)
        by_lane = raw.reshape(lanes, steps)
        for t in range(steps):
            by_lane[:, t] = s[1]
            _advance_lanes(s, tmp)
        self._state = s[:, -1].copy()
        scratch = np.empty(min(len(raw), _BLOCK_SIZE), dtype=np.uint64)
        for part in np.split(raw, range(_BLOCK_SIZE, len(raw), _BLOCK_SIZE)):
            _scramble(part, part, scratch[:len(part)])

    def _refill(self) -> None:
        """Buffer the next block, rewritten in place, so a generator leaves
        no new long-lived allocation behind in the heap."""
        if not len(self._block):
            self._block = np.empty(_BLOCK_SIZE, dtype=np.uint64).data
        self._fill(np.asarray(self._block), _BLOCK_LANES)
        self._pos = 0

    def _read(self, raw: np.ndarray) -> None:
        """Write the next len(raw) values into uint64 ``raw``: the buffered
        block's unread rest, whole blocks made in place, a new block's head."""
        done = min(len(raw), _BLOCK_SIZE - self._pos)
        raw[:done] = self._block[self._pos:self._pos + done]
        self._pos += done
        for size, lanes in ((_WIDE_SIZE, _WIDE_LANES), (_BLOCK_SIZE, _BLOCK_LANES)):
            while len(raw) - done >= size:
                self._fill(raw[done:done + size], lanes)
                done += size
        if done < len(raw):
            self._refill()
            self._pos = len(raw) - done
            raw[done:] = self._block[:self._pos]

    def next_u64(self) -> int:
        pos = self._pos
        if pos == _BLOCK_SIZE:
            self._refill()
            pos = 0
        self._pos = pos + 1
        return self._block[pos]

    def random(self) -> float:
        """Double in [0, 1) from the top 53 bits."""
        return (self.next_u64() >> 11) * _INV_2_53

    def doubles(self, n: int) -> np.ndarray:
        """n doubles in [0, 1), each ``random()`` of the next draw, so the
        result and the state left behind are bit-identical to n calls of
        ``random()``. The raw values are read into the result's own bytes."""
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        out = np.empty(n, dtype=np.float64)
        raw = out.view(np.uint64)
        self._read(raw)
        raw >>= 11
        return np.multiply(raw, _INV_2_53, out=out)  # numpy copies raw, as it overlaps out

    def uniform(self, low: float, high: float, n: int) -> np.ndarray:
        """``low + (high - low) * doubles(n)``, scaled in place."""
        out = self.doubles(n)
        return np.add(np.multiply(out, high - low, out=out), low, out=out)

    def below(self, n: int) -> int:
        """Unbiased integer in [0, n) via rejection sampling."""
        if not 0 < n <= 1 << 64:
            raise ValueError(f"below() requires 1 <= n <= 2**64, got {n}")
        limit = (1 << 64) - ((1 << 64) % n)
        v = self.next_u64()
        while v >= limit:
            v = self.next_u64()
        return v % n

    def belows(self, bounds: np.ndarray) -> np.ndarray:
        """``[below(b) for b in bounds]`` (1 <= b < 2**64) as a uint64 array,
        from one read of len(bounds) values. After a rejected value (odds
        under b / 2**64), the draws go on as ``below`` takes them."""
        bounds = np.asarray(bounds, dtype=np.uint64)
        if len(bounds) and bounds.min() == 0:
            raise ValueError("belows() requires every bound >= 1")
        out = np.empty(len(bounds), dtype=np.uint64)
        self._read(out)
        # -b wraps to 2**64 - b, so r = 2**64 mod b < 2**63; v is accepted
        # when v <= 2**64 - 1 - r, that is v - 2**63 <= 2**63 - 1 - r in int64
        top = np.int64(2**63 - 1) - (-bounds % bounds).view(np.int64)
        accepted = (out ^ np.uint64(1 << 63)).view(np.int64) <= top
        if not accepted.all():
            first = int(accepted.argmin())
            stream = chain(out[first + 1:].tolist(), iter(self.next_u64, None))
            for i, b in enumerate(bounds[first:].tolist(), first):
                out[i] = next(v for v in stream if v < (1 << 64) - (1 << 64) % b)
        out %= bounds
        return out

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]

    def sample_indices(self, n: int, k: int) -> list[int]:
        """k distinct indices from range(n), partial Fisher-Yates order."""
        if n < 0 or k < 0:
            name, value = ("n", n) if n < 0 else ("k", k)
            raise ValueError(f"{name} must be >= 0, got {value}")
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
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        return np.array([self.normal() for _ in range(n)]) * sigma
