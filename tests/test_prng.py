"""Tests for the deterministic generator.

Reference values for xoshiro256** and splitmix64 are produced by a
direct transcription of the published reference algorithms, stepped one
draw at a time (``util.ReferenceXoshiro``), so the generator of the
library under test cannot drift without this file noticing.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mwlab.encoder import EncoderConfig, init_params
from mwlab.prng import _BLOCK_SIZE, _WIDE_SIZE, Xoshiro256StarStar, _splitmix64, derive_seed
from util import ReferenceXoshiro, reference_splitmix64_sequence, reference_xoshiro_sequence

MASK = (1 << 64) - 1


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


# Draw counts that end inside a block, at its end and just past it, on
# both sides of a 4096-value boundary, a count that ends 17 values into a
# block, and the CLI encoder's embedding plus projection.
BULK_SIZES = (0, 1, 4095, 4096, 4097, 5000, _BLOCK_SIZE - 1, _BLOCK_SIZE, _BLOCK_SIZE + 1,
              262161, 8192 * 32 + 32 * 16)


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
        bulk.doubles(_BLOCK_SIZE + 5)
        for _ in range(_BLOCK_SIZE + 5):
            scalar.random()
        assert [bulk.normal() for _ in range(3)] == [scalar.normal() for _ in range(3)]

    def test_init_params_golden_digest(self):
        # recorded from the scalar generator, one draw per weight
        params = init_params(EncoderConfig(hash_dim=8192, embed_dim=32, proj_dim=16,
                                           seed=derive_seed(0, 1)))
        digest = hashlib.sha256(params.embedding.tobytes() + params.projection.tobytes())
        assert digest.hexdigest() == (
            "2dd6cf134e34994199ffd1830ad63bab17814b5ba421519bceef4042351f3c46")

    def test_default_init_params_golden_digest(self):
        # 2,099,200 draws over many blocks, recorded from an earlier
        # generator that placed its lanes by a float32 GF(2) jump-ahead
        params = init_params(EncoderConfig())
        digest = hashlib.sha256(params.embedding.tobytes() + params.projection.tobytes())
        assert digest.hexdigest() == (
            "21a88e76eab50b5ac7f6832ae7f9c69028fd34688438a653bb23e84ebc299a2f")


# One call of each draw method: (name, arguments). ``below(2**63 + 1)``
# rejects about half of the raw values; the doubles sizes straddle one
# buffered block.
BOUNDS = [1, 2, 7, 300, 2**32 + 1, 2**63 + 1, 2**64 - 1]
CALLS = st.one_of(
    st.tuples(st.sampled_from(["next_u64", "random", "normal"])),
    st.tuples(st.just("below"), st.sampled_from(BOUNDS + [2**64])),
    st.tuples(st.just("belows"), st.lists(st.sampled_from(BOUNDS), max_size=40)),
    st.tuples(st.just("normals"), st.integers(0, 9), st.sampled_from([1.0, 0.5])),
    st.tuples(st.just("doubles"), st.one_of(
        st.sampled_from([0, 1, _BLOCK_SIZE - 1, _BLOCK_SIZE, _BLOCK_SIZE + 1,
                         2 * _BLOCK_SIZE + 17]),
        st.integers(0, 40))),
    st.tuples(st.just("uniform"), st.just(-2.0), st.just(3.0), st.integers(0, 40)),
    st.tuples(st.just("shuffle"), st.integers(0, 30)),
    st.integers(0, 60).flatmap(lambda n: st.tuples(st.just("sample_indices"), st.just(n),
                                                  st.integers(0, n))),
)


def call(gen, name, *args):
    """The call's result; a shuffle returns the shuffled list."""
    if name == "shuffle":
        items = list(range(args[0]))
        gen.shuffle(items)
        return items
    return getattr(gen, name)(*args)


def assert_same_calls(seed, calls):
    gen, oracle = Xoshiro256StarStar(seed), ReferenceXoshiro(seed)
    for c in calls:
        got, want = call(gen, *c), call(oracle, *c)
        if isinstance(want, np.ndarray):
            np.testing.assert_array_equal(got, want)
            assert got.dtype == want.dtype
        else:
            assert got == want and type(got) is type(want), c
    # the same position in the stream: the next raw values agree
    assert [gen.next_u64() for _ in range(3)] == [oracle.next_u64() for _ in range(3)]


class TestOneStream:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, MASK), calls=st.lists(CALLS, max_size=8))
    def test_call_sequences_match_the_oracle(self, seed, calls):
        assert_same_calls(seed, calls)

    @pytest.mark.parametrize("first", [
        ("next_u64",), ("random",), ("below", 300), ("normal",), ("normals", 3, 2.0),
        ("doubles", 5), ("doubles", _BLOCK_SIZE + 1), ("uniform", -1.0, 1.0, 6),
        ("belows", [300, 2**63 + 1, 7]),
        ("shuffle", 9), ("sample_indices", 50, 5),
    ])
    def test_fresh_generator_first_call(self, first):
        assert_same_calls(11, [first, ("random",)])

    def test_rejection_path(self):
        # limit 2**63 + 1: every raw value >= it is rejected and redrawn
        gen, oracle = Xoshiro256StarStar(5), ReferenceXoshiro(5)
        draws = [gen.below(2**63 + 1) for _ in range(2 * _BLOCK_SIZE)]
        assert draws == [oracle.below(2**63 + 1) for _ in range(2 * _BLOCK_SIZE)]
        assert oracle.draws > 3 * _BLOCK_SIZE  # about half rejected
        assert gen.next_u64() == oracle.next_u64()

    def test_belows_rejection_path(self):
        # the same bounds in one bulk read: from the first rejection on,
        # every draw moves one value on
        gen, oracle = Xoshiro256StarStar(5), ReferenceXoshiro(5)
        gen.below(7), oracle.below(7)
        draws = gen.belows([2**63 + 1] * 2 * _BLOCK_SIZE)
        assert draws.tolist() == oracle.belows([2**63 + 1] * 2 * _BLOCK_SIZE).tolist()
        assert oracle.draws > 3 * _BLOCK_SIZE
        assert gen.next_u64() == oracle.next_u64()

    @pytest.mark.parametrize("calls", [
        [("below", 7)] * 100 + [("doubles", _WIDE_SIZE), ("belows", [2**63 + 1] * 40)],
        [("doubles", _WIDE_SIZE + _BLOCK_SIZE + 17), ("random",),
         ("belows", [3, 2**63 + 1, 5] * 20), ("doubles", 2 * _WIDE_SIZE - 1)],
        [("belows", [2**63 + 1] * (_BLOCK_SIZE + 9)), ("uniform", -2.0, 3.0, _WIDE_SIZE - 1),
         ("belows", [7] * (_WIDE_SIZE + 3))],
    ])
    def test_wide_blocks_between_scalar_draws(self, calls):
        # whole wide blocks are written straight into the result, between
        # partly read buffered blocks
        assert_same_calls(7, calls)

    @pytest.mark.parametrize("n", [10, 3996, 4096, 12293,
                                   _BLOCK_SIZE - 100, _BLOCK_SIZE, 3 * _BLOCK_SIZE + 5])
    def test_doubles_after_a_partly_read_block(self, n):
        # 100 values read: the block's unread rest comes first
        assert_same_calls(3, [("below", 7)] * 100 + [("doubles", n), ("doubles", n)])


class TestCounts:
    @pytest.mark.parametrize("args, name", [((10, -1), "k"), ((-3, -5), "n"), ((-1, 0), "n")])
    def test_sample_indices_rejects_a_negative_count(self, args, name):
        with pytest.raises(ValueError, match=f"{name} must be >= 0, got -"):
            Xoshiro256StarStar(0).sample_indices(*args)

    @pytest.mark.parametrize("method, args", [
        ("doubles", (-1,)), ("uniform", (0.0, 1.0, -1)), ("normals", (-2,))])
    def test_bulk_methods_reject_a_negative_count(self, method, args):
        with pytest.raises(ValueError, match="n must be >= 0, got -"):
            getattr(Xoshiro256StarStar(0), method)(*args)

    def test_belows_rejects_a_zero_bound(self):
        with pytest.raises(ValueError, match="every bound >= 1"):
            Xoshiro256StarStar(0).belows([3, 0, 2])

    @pytest.mark.parametrize("n", [0, -1, 2**64 + 1])
    def test_below_rejects_a_range_it_cannot_draw(self, n):
        with pytest.raises(ValueError, match=f"got {n}"):
            Xoshiro256StarStar(0).below(n)
