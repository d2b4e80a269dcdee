"""Tests for the deterministic generator.

Reference values for xoshiro256** and splitmix64 are produced by a
direct transcription of the published reference algorithms, evaluated
here step by step, so the generator of the library under test cannot
drift without this file noticing.
"""

import hashlib

import numpy as np
import pytest

from mwlab.encoder import EncoderConfig, init_params
from mwlab.prng import _LANE_CUTOFF, _LANES, Xoshiro256StarStar, _splitmix64, derive_seed

MASK = (1 << 64) - 1


def reference_splitmix64_sequence(seed: int, n: int) -> list[int]:
    out = []
    state = seed & MASK
    for _ in range(n):
        state = (state + 0x9E3779B97F4A7C15) & MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        out.append(z ^ (z >> 31))
    return out


def reference_xoshiro_sequence(seed: int, n: int) -> list[int]:
    s = reference_splitmix64_sequence(seed, 4)

    def rotl(x, k):
        return ((x << k) | (x >> (64 - k))) & MASK

    out = []
    for _ in range(n):
        out.append((rotl((s[1] * 5) & MASK, 7) * 9) & MASK)
        t = (s[1] << 17) & MASK
        s[2] ^= s[0]
        s[3] ^= s[1]
        s[1] ^= s[2]
        s[0] ^= s[3]
        s[2] ^= t
        s[3] = rotl(s[3], 45)
    return out


class TestStreams:
    def test_matches_reference_sequence(self):
        for seed in (0, 1, 42, (1 << 64) - 1):
            gen = Xoshiro256StarStar(seed)
            got = [gen.next_u64() for _ in range(20)]
            assert got == reference_xoshiro_sequence(seed, 20)

    def test_splitmix_matches_reference(self):
        state = 987654321
        expected = reference_splitmix64_sequence(state, 5)
        got = []
        for _ in range(5):
            state, out = _splitmix64(state)
            got.append(out)
        assert got == expected

    def test_same_seed_same_stream(self):
        a = Xoshiro256StarStar(7)
        b = Xoshiro256StarStar(7)
        assert [a.next_u64() for _ in range(100)] == [b.next_u64() for _ in range(100)]

    def test_derive_seed_changes_with_salt(self):
        seeds = {derive_seed(5, salt) for salt in range(50)}
        assert len(seeds) == 50


class TestDistributions:
    def test_doubles_in_unit_interval(self):
        x = Xoshiro256StarStar(3).doubles(10_000)
        assert (x >= 0).all() and (x < 1).all()
        # mean of U(0,1): within 5 sigma of 0.5
        assert abs(x.mean() - 0.5) < 5 * (1 / np.sqrt(12 * 10_000))

    def test_uniform_bounds(self):
        x = Xoshiro256StarStar(4).uniform(-2.5, 1.5, 5000)
        assert (x >= -2.5).all() and (x < 1.5).all()

    def test_below_is_in_range_and_covers(self):
        gen = Xoshiro256StarStar(5)
        draws = [gen.below(7) for _ in range(2000)]
        assert set(draws) == set(range(7))

    def test_below_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Xoshiro256StarStar(0).below(0)

    def test_normals_moments(self):
        x = Xoshiro256StarStar(6).normals(20_000, sigma=2.0)
        assert abs(x.mean()) < 5 * 2.0 / np.sqrt(20_000)
        assert abs(x.std() - 2.0) < 0.1

    def test_sample_indices_distinct_and_exhaustive(self):
        gen = Xoshiro256StarStar(8)
        idx = gen.sample_indices(10, 10)
        assert sorted(idx) == list(range(10))
        idx = gen.sample_indices(100, 5)
        assert len(set(idx)) == 5
        with pytest.raises(ValueError):
            gen.sample_indices(3, 4)

    def test_shuffle_is_permutation(self):
        gen = Xoshiro256StarStar(9)
        items = list(range(50))
        gen.shuffle(items)
        assert sorted(items) == list(range(50))
        assert items != list(range(50))


# Draw counts on both sides of the lane cutoff, counts that leave the
# last lane short, and the CLI encoder's embedding plus projection.
BULK_SIZES = (0, 1, _LANE_CUTOFF - 1, _LANE_CUTOFF, _LANE_CUTOFF + 1, 5000,
              _LANES * 512 + 17, 8192 * 32 + 32 * 16)


@pytest.fixture(scope="module")
def reference_streams():
    """Per seed: the first max(BULK_SIZES) + 1 reference outputs."""
    n = max(BULK_SIZES) + 1
    return {seed: np.array(reference_xoshiro_sequence(seed, n), dtype=np.uint64)
            for seed in (0, 1, MASK)}


class TestBulkDraws:
    @pytest.mark.parametrize("n", BULK_SIZES)
    def test_doubles_match_reference_and_leave_state_after_n(self, reference_streams, n):
        for seed, stream in reference_streams.items():
            gen = Xoshiro256StarStar(seed)
            expected = (stream[:n] >> np.uint64(11)) * 2.0 ** -53
            np.testing.assert_array_equal(gen.doubles(n), expected)
            assert gen.next_u64() == int(stream[n])

    def test_pending_spare_normal_survives_doubles(self):
        bulk, scalar = Xoshiro256StarStar(3), Xoshiro256StarStar(3)
        bulk.normal()
        scalar.normal()
        bulk.doubles(_LANE_CUTOFF + 5)
        for _ in range(_LANE_CUTOFF + 5):
            scalar.random()
        assert [bulk.normal() for _ in range(3)] == [scalar.normal() for _ in range(3)]

    def test_init_params_golden_digest(self):
        # recorded from the scalar generator, one draw per weight
        params = init_params(EncoderConfig(hash_dim=8192, embed_dim=32, proj_dim=16,
                                           seed=derive_seed(0, 1)))
        digest = hashlib.sha256(params.embedding.tobytes() + params.projection.tobytes())
        assert digest.hexdigest() == (
            "2dd6cf134e34994199ffd1830ad63bab17814b5ba421519bceef4042351f3c46")
