"""Tests for the two training objectives and the shift diagnostics.

Expected loss values are frozen from direct scalar evaluation of the
defining formulas (computed inline with plain exp/log); gradients are
checked against central finite differences.
"""

import itertools
import os
import signal
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from mwlab.metrics import ScorePool
from mwlab.objectives import (
    LOG2,
    cl_loss,
    gaussian_degradation_demo,
    mw_bound_check,
    mw_loss,
    mw_value,
)
from mwlab import objectives
from mwlab.prng import Xoshiro256StarStar
from mwlab.scoring import ScoreBatch, comparison_counts
from util import (
    OffsetAssignment,
    apply_offsets,
    brute_force_strict_aoc,
    mw_value_by_rows,
    naive_mw_loss,
    naive_mw_pair_sums,
    random_score_batch,
    sigmoid,
    softplus,
)


def fd_gradient_check(loss_fn, sb, h=1e-5, rtol=1e-3, n_entries=None):
    """Compare analytic d_sim with central differences entry by entry."""
    out = loss_fn(sb)
    b, m = sb.sim.shape
    entries = [(i, j) for i in range(b) for j in range(m)]
    if n_entries is not None:
        entries = entries[:n_entries]
    checked = 0
    for i, j in entries:
        orig = sb.sim[i, j]
        sb.sim[i, j] = orig + h
        up = loss_fn(sb).value
        sb.sim[i, j] = orig - h
        down = loss_fn(sb).value
        sb.sim[i, j] = orig
        fd = (up - down) / (2 * h)
        analytic = out.d_sim[i, j]
        scale = max(abs(fd), abs(analytic))
        if scale > 1e-7:  # both ~0 means the pair is saturated; skip
            assert abs(fd - analytic) / scale < rtol, (
                f"entry ({i},{j}): fd={fd}, analytic={analytic}"
            )
            checked += 1
    assert checked > 0


def test_a_non_finite_loss_gradient_is_rejected():
    with pytest.raises(ValueError, match="loss gradient must be finite"):
        objectives.LossOutput(value=1.0, d_sim=np.array([[0.0, np.nan]]), term_count=1)


class TestClLoss:
    def test_identity_matrix_value(self):
        # direct evaluation: each row is -log(e / (e + 1)) = log(1 + e^-1)
        sb = ScoreBatch(sim=np.eye(2), tau=1.0)
        expected = float(np.log(1 + np.exp(-1)))
        assert cl_loss(sb).value == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.313262, abs=1e-6)

    def test_uniform_scores_log_k_plus_one(self):
        for b, h in [(2, 0), (3, 2), (4, 1)]:
            m = b + h * b
            sb = ScoreBatch(sim=np.full((b, m), 0.37), tau=0.5)
            k = m - 1
            assert cl_loss(sb).value == pytest.approx(np.log(k + 1), abs=1e-12)

    def test_single_query_tied_pair_gradient(self):
        sb = ScoreBatch(sim=np.array([[0.5, 0.5]]), tau=1.0)
        out = cl_loss(sb)
        np.testing.assert_allclose(out.d_sim, [[-0.5, 0.5]], atol=1e-12)
        fd_gradient_check(cl_loss, sb, rtol=1e-6)

    def test_gradient_matches_fd_across_temperatures(self):
        rng = np.random.default_rng(10)
        for tau, rtol in [(1.0, 1e-4), (0.01, 1e-3)]:
            sb = random_score_batch(rng, b=3, h=1, tau=tau)
            fd_gradient_check(cl_loss, sb, h=1e-5, rtol=rtol)

    def test_term_count_matches_comparison_counts(self):
        rng = np.random.default_rng(11)
        for b, h in [(2, 0), (4, 2), (3, 5)]:
            sb = random_score_batch(rng, b=b, h=h, tau=1.0)
            assert cl_loss(sb).term_count == comparison_counts(b, h)[0]

    def test_needs_a_negative(self):
        with pytest.raises(ValueError, match="a batch needs at least one negative cell"):
            cl_loss(ScoreBatch(sim=np.ones((1, 1)), tau=1.0))

    def test_stable_at_low_temperature(self):
        sb = ScoreBatch(sim=np.array([[1.0, -1.0], [-1.0, 1.0]]), tau=0.01)
        out = cl_loss(sb)
        assert np.isfinite(out.value)
        assert np.isfinite(out.d_sim).all()


class TestMwLoss:
    def test_identity_matrix_value(self):
        # four pairs, each softplus(-1): value = (1/2) * 4 * log(1 + e^-1)
        sb = ScoreBatch(sim=np.eye(2), tau=1.0)
        expected = 2 * float(np.log(1 + np.exp(-1)))
        assert mw_loss(sb).value == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.626524, abs=1e-6)

    def test_all_equal_scores(self):
        for b, h in [(2, 0), (3, 1)]:
            m = b + h * b
            sb = ScoreBatch(sim=np.full((b, m), -0.2), tau=1.0)
            n_neg = b * (m - 1)
            assert mw_loss(sb).value == pytest.approx(n_neg * LOG2, rel=1e-12)

    def test_single_query_tied_pair_gradient(self):
        sb = ScoreBatch(sim=np.array([[0.5, 0.5]]), tau=1.0)
        out = mw_loss(sb)
        np.testing.assert_allclose(out.d_sim, [[-0.5, 0.5]], atol=1e-12)
        fd_gradient_check(mw_loss, sb, rtol=1e-6)

    def test_gradient_matches_fd_across_temperatures(self):
        rng = np.random.default_rng(12)
        for tau, rtol in [(1.0, 1e-4), (0.01, 1e-3)]:
            sb = random_score_batch(rng, b=3, h=1, tau=tau)
            fd_gradient_check(mw_loss, sb, h=1e-5, rtol=rtol)

    def test_term_count_matches_comparison_counts(self):
        rng = np.random.default_rng(13)
        for b, h in [(2, 0), (4, 2), (3, 5)]:
            sb = random_score_batch(rng, b=b, h=h, tau=1.0)
            assert mw_loss(sb).term_count == comparison_counts(b, h)[1]

    def test_positive_cells_also_serve_as_negatives(self):
        # off-diagonal square-block cells are other queries' positives; the
        # pairwise loss must include them in the negative multiset
        sim = np.array([[0.9, 0.8], [0.1, 0.7]])
        sb = ScoreBatch(sim=sim, tau=1.0)
        neg = [sim[0, 1], sim[1, 0]]
        expected = 0.5 * sum(
            float(np.log1p(np.exp(-(p - n)))) for p in [0.9, 0.7] for n in neg
        )
        assert mw_loss(sb).value == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("fn", [mw_loss, mw_value])
    def test_needs_a_negative(self, fn):
        with pytest.raises(ValueError, match="a batch needs at least one negative cell"):
            fn(ScoreBatch(sim=np.ones((1, 1)), tau=1.0))

    @pytest.mark.parametrize("fn", [mw_loss, mw_value])
    def test_overflowing_value_rejected(self, fn):
        sb = ScoreBatch(sim=np.array([[-1e300, 1e300]]), tau=1e-10)
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="must be finite"):
            fn(sb)

    def test_stable_at_low_temperature(self):
        sb = ScoreBatch(sim=np.array([[1.0, -1.0], [-1.0, 1.0]]), tau=0.01)
        out = mw_loss(sb)
        assert np.isfinite(out.value)
        assert np.isfinite(out.d_sim).all()


def assert_matches_unfused(sb):
    out = mw_loss(sb)
    value, d_sim = naive_mw_loss(sb)
    np.testing.assert_array_equal(out.d_sim, d_sim)
    assert abs(out.value - value) <= 1e-14 * abs(value)
    assert out.value == mw_value_by_rows(sb) == mw_value(sb)
    return out


# (MW_SPLIT_PAIRS, usable CPUs): always split, never split, one CPU
SPLIT_SETTINGS = [(0, 2), (10**12, 2), (0, 1), (10**12, 1)]


def tile_starts(n):
    """First column of each tile of a row of n, in column order."""
    return list(np.cumsum([0] + tile_widths(n))[:-1])


def tile_widths(n):
    """Widths of the column tiles mw_loss cuts a row of n into: nodes of
    numpy's pairwise-sum tree, split while wider than a tile and 128."""
    if n <= max(objectives.MW_TILE_COLS, 128):
        return [n]
    h = n // 2 - (n // 2) % 8
    return tile_widths(h) + tile_widths(n - h)


TILE = objectives.MW_TILE_COLS


class TestMwLossMatchesUnfused:
    """The tiled, fused mw_loss against the full-matrix formula: the
    gradient must agree bit for bit, the value to summation rounding, and
    the value bit for bit with the sum of the per-row softplus sums."""

    def test_single_block(self):
        rng = np.random.default_rng(15)
        for b, h, tau in [(2, 0, 1.0), (4, 2, 0.5), (8, 3, 0.01)]:
            sb = random_score_batch(rng, b=b, h=h, tau=tau)
            assert b * b * (b + h * b - 1) <= objectives.MW_BLOCK_PAIRS
            assert_matches_unfused(sb)

    def test_row_longer_than_block(self, monkeypatch):
        # B=40, H=40: a row of 65560 pooled negatives is cut into 19 tiles
        # of 2048 to 4096 columns (the pairwise tree splits unevenly)
        sb = random_score_batch(np.random.default_rng(16), b=40, h=40, tau=0.01)
        widths = tile_widths(sb.B * (sb.M - 1))
        assert len(widths) == 19 and min(widths) == 2048 and max(widths) == TILE
        assert_matches_unfused(sb)
        # a block narrower than a tile row holds one tile row
        monkeypatch.setattr(objectives, "MW_BLOCK_PAIRS", 1000)
        assert_matches_unfused(sb)

    def test_partial_last_block(self):
        # B=32, H=5: 6112 negatives, two tiles of 3056; 10 tile rows per
        # block, so each tile's last block has 2 rows
        sb = random_score_batch(np.random.default_rng(17), b=32, h=5, tau=0.01)
        widths = tile_widths(sb.B * (sb.M - 1))
        assert widths == [3056, 3056]
        rows = objectives.MW_BLOCK_PAIRS // widths[0]
        assert 1 < rows < sb.B and sb.B % rows != 0
        assert_matches_unfused(sb)

    def test_low_temperature_extremes(self):
        rng = np.random.default_rng(18)
        sim = np.where(rng.random((6, 18)) < 0.5, 1.0, -1.0)
        sim[0, 3] = sim[0, 0]  # a tied pair: x = 0 exactly
        out = assert_matches_unfused(ScoreBatch(sim=sim, tau=1e-3))
        assert np.isfinite(out.value) and out.value > 1000.0
        assert np.isfinite(out.d_sim).all()

    @pytest.mark.parametrize("n", [1, 7, 128, 129, 130, TILE, TILE + 1, 8200, 130944])
    def test_tree_edge_widths(self, n, monkeypatch):
        # one query against n pooled negatives: the row is n wide
        rng = np.random.default_rng(n)
        sim = rng.uniform(-1, 1, (1, n + 1))
        sim[0, 1::9] = sim[0, 0]  # ties: x = 0 exactly
        # three rows against the same negatives, output by output
        pos, neg = rng.uniform(-1, 1, 3), sim[0, 1:]
        pos[1] = sim[0, 0]
        want = naive_mw_pair_sums(pos, neg, 0.05)
        for split, cpus in SPLIT_SETTINGS:
            monkeypatch.setattr(objectives, "MW_SPLIT_PAIRS", split)
            monkeypatch.setattr(objectives, "CPUS", cpus)
            assert_matches_unfused(ScoreBatch(sim=sim, tau=0.05))
            got = objectives._mw_pair_sums(pos, neg, 0.05)
            for out, ref in zip(got, want):
                np.testing.assert_array_equal(out, ref)
            softplus_rows, *rest = objectives._mw_pair_sums(pos, neg, 0.05, sigmoid=False)
            np.testing.assert_array_equal(softplus_rows, want[0])
            assert rest == [None, None]

    def test_no_bit_depends_on_block_size(self, monkeypatch):
        rng = np.random.default_rng(19)
        # rows of 234 and 2190 pooled negatives: one pairwise-tree split,
        # then several levels
        for sb in (random_score_batch(rng, b=9, h=2, tau=0.05),
                   random_score_batch(rng, b=6, h=60, tau=0.05)):
            sb.sim[1, ::5] = sb.sim[1, 1]  # ties: x = 0 exactly
            ref = mw_loss(sb)
            neg = sb.sim[sb.offdiag_mask()]
            want = naive_mw_pair_sums(sb.positives, neg, sb.tau)
            for (split, cpus), tile, block in itertools.product(
                    SPLIT_SETTINGS, (1, 7, 100, 128, 200, 1000, 10**6), (1, 7, 200, 10**6)):
                monkeypatch.setattr(objectives, "MW_SPLIT_PAIRS", split)
                monkeypatch.setattr(objectives, "CPUS", cpus)
                monkeypatch.setattr(objectives, "MW_TILE_COLS", tile)
                monkeypatch.setattr(objectives, "MW_BLOCK_PAIRS", block)
                out = mw_loss(sb)
                assert out.value == ref.value == mw_value(sb)
                np.testing.assert_array_equal(out.d_sim, ref.d_sim)
                got = objectives._mw_pair_sums(sb.positives, neg, sb.tau)
                for a, b in zip(got, want):
                    np.testing.assert_array_equal(a, b)


def root_mid(n):
    """Where numpy's pairwise sum first splits a run of n > 128."""
    return n // 2 - (n // 2) % 8


@pytest.fixture
def split_always(monkeypatch):
    """Every call with a row wider than a tile splits."""
    monkeypatch.setattr(objectives, "MW_SPLIT_PAIRS", 0)
    monkeypatch.setattr(objectives, "CPUS", 2)


@pytest.fixture
def tile_threads(monkeypatch):
    """The thread of every _mw_tile call, in call order."""
    threads, tile = [], objectives._mw_tile

    def recording_tile(*args):
        threads.append(threading.current_thread())
        return tile(*args)

    monkeypatch.setattr(objectives, "_mw_tile", recording_tile)
    return threads


class TestMwSplit:
    """The root split's threading: errors, waiting and threads."""

    def pair(self, n=3 * TILE):
        rng = np.random.default_rng(n)
        return rng.uniform(-1, 1, 4), rng.uniform(-1, 1, n)

    def test_worker_error_reaches_caller(self, split_always, monkeypatch):
        pos, neg = self.pair()
        mid, tile, threads = root_mid(len(neg)), objectives._mw_tile, set()

        def failing_right_half(pos, neg, tau, lo, hi, *rest):
            threads.add(threading.current_thread())
            if lo >= mid:
                raise RuntimeError("right half failed")
            return tile(pos, neg, tau, lo, hi, *rest)

        monkeypatch.setattr(objectives, "_mw_tile", failing_right_half)
        with pytest.raises(RuntimeError, match="right half failed"):
            objectives._mw_pair_sums(pos, neg, 0.05)
        assert len(threads) == 2

    def test_caller_error_waits_for_worker(self, split_always, monkeypatch):
        pos, neg = self.pair()
        mid, tile, right_done = root_mid(len(neg)), objectives._mw_tile, []

        def failing_left_half(pos, neg, tau, lo, hi, *rest):
            if lo < mid:
                raise RuntimeError("left half failed")
            time.sleep(0.05)
            right_done.append(lo)
            return tile(pos, neg, tau, lo, hi, *rest)

        monkeypatch.setattr(objectives, "_mw_tile", failing_left_half)
        with pytest.raises(RuntimeError, match="left half failed"):
            objectives._mw_pair_sums(pos, neg, 0.05)
        # every right-half tile finished before the error came out
        assert right_done == [lo for lo in tile_starts(len(neg)) if lo >= mid]

    def test_worker_keeps_the_callers_numpy_error_state(self, split_always, tile_threads):
        # the suite turns numpy warnings into errors: an overflow the caller
        # silences must stay silent on the worker too
        pos, neg = self.pair()
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            softplus_rows, _, _ = objectives._mw_pair_sums(pos, neg, 1e-308)
        assert np.isinf(softplus_rows).all()
        assert len(set(tile_threads)) == 2

    def test_repeated_splits_leave_no_threads(self, split_always, tile_threads):
        pos, neg = self.pair()
        before = threading.active_count()
        for _ in range(50):
            tile_threads.clear()
            objectives._mw_pair_sums(pos, neg, 0.05)
            # the caller and this call's worker, which has ended
            assert len(set(tile_threads)) == 2
        assert threading.active_count() == before

    def test_concurrent_callers_get_their_own_bits(self, split_always):
        # more calling threads than cores, switching often, all splitting
        # onto workers of their own: each must get its own call's bits
        rng = np.random.default_rng(21)
        calls = [(rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 2 * TILE + 8 * k)) for k in range(4)]
        want = [naive_mw_pair_sums(pos, neg, 0.05) for pos, neg in calls]
        errors = []

        def caller(k):
            try:
                for _ in range(5):
                    got = objectives._mw_pair_sums(*calls[k], 0.05)
                    for a, b in zip(got, want[k]):
                        np.testing.assert_array_equal(a, b)
            except Exception as exc:  # reported by the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=caller, args=(k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []

    def test_one_cpu_never_makes_the_pool(self, split_always, tile_threads, monkeypatch):
        monkeypatch.setattr(objectives, "CPUS", 1)
        pos, neg = self.pair()
        got = objectives._mw_pair_sums(pos, neg, 0.05)
        assert len(tile_threads) > 1
        assert set(tile_threads) == {threading.current_thread()}
        for a, b in zip(got, naive_mw_pair_sums(pos, neg, 0.05)):
            np.testing.assert_array_equal(a, b)

    def test_below_threshold_stays_serial(self, tile_threads, monkeypatch):
        monkeypatch.setattr(objectives, "CPUS", 2)
        # B=32, H=5 is the default TrainConfig's batch: 195,584 pairs
        sb = random_score_batch(np.random.default_rng(20), b=32, h=5, tau=0.05)
        assert 32 * 32 * (6 * 32 - 1) < objectives.MW_SPLIT_PAIRS
        mw_loss(sb)
        assert len(tile_threads) > 1
        assert set(tile_threads) == {threading.current_thread()}

    def test_forked_child_splits_on_its_own_worker(self, split_always):
        pos, neg = self.pair()
        want = objectives._mw_pair_sums(pos, neg, 0.05)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)  # fork with threads
            pid = os.fork()
        if pid == 0:
            signal.alarm(30)  # a hang becomes a failure
            got = objectives._mw_pair_sums(pos, neg, 0.05)
            ok = all(np.array_equal(a, b) for a, b in zip(got, want))
            os._exit(0 if ok else 1)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0


class TestDegenerateOrdering:
    def test_separated_scores_vanishing_loss(self):
        # at the 20*tau margin the e^-20 tail times the term count must
        # stay under 1e-8, which pins down the small-batch case exactly
        for tau in (0.01, 1.0):
            sim = np.array([[20.0 * tau, 0.0], [0.0, 20.0 * tau]])
            sb = ScoreBatch(sim=sim, tau=tau)
            assert cl_loss(sb).value < 1e-8
            assert mw_loss(sb).value < 1e-8

    def test_separated_scores_larger_batches(self):
        # wider margins absorb the larger term count
        rng = np.random.default_rng(14)
        for b, h in [(4, 0), (8, 2)]:
            m = b + h * b
            _, mw_terms = comparison_counts(b, h)
            margin = 20.0 + np.log(mw_terms)
            sim = rng.uniform(-0.4, 0.0, size=(b, m))
            sim[np.arange(b), np.arange(b)] = margin + rng.uniform(0, 0.5, b)
            sb = ScoreBatch(sim=sim, tau=1.0)
            assert cl_loss(sb).value < 1e-8
            assert mw_loss(sb).value < 1e-8


class TestOffsets:
    def test_zero_offsets_identity(self):
        rng = np.random.default_rng(20)
        sb = random_score_batch(rng, b=3, h=1, tau=0.5)
        shifted = apply_offsets(sb, OffsetAssignment(np.zeros(3)))
        np.testing.assert_array_equal(shifted.sim, sb.sim)

    def test_row_shift_semantics(self):
        sb = ScoreBatch(sim=np.zeros((2, 4)), tau=1.0)
        shifted = apply_offsets(sb, OffsetAssignment([1.0, -2.0]))
        np.testing.assert_array_equal(shifted.sim[0], np.full(4, 1.0))
        np.testing.assert_array_equal(shifted.sim[1], np.full(4, -2.0))

    def test_cl_invariant_mw_not(self):
        rng = np.random.default_rng(21)
        n_mw_moved = 0
        cases = 0
        for b, h in [(2, 0), (4, 2), (8, 5)]:
            for tau in (0.01, 1.0):
                for _ in range(10):
                    sb = random_score_batch(rng, b=b, h=h, tau=tau)
                    offsets = OffsetAssignment(rng.uniform(-30 * tau, 30 * tau, b))
                    shifted = apply_offsets(sb, offsets)
                    cl0, cl1 = cl_loss(sb).value, cl_loss(shifted).value
                    assert abs(cl1 - cl0) <= 1e-9 * (1 + abs(cl0))
                    if abs(mw_loss(shifted).value - mw_loss(sb).value) > 1e-6:
                        n_mw_moved += 1
                    cases += 1
        assert n_mw_moved >= 0.9 * cases

    def test_opposed_offsets_on_separated_scores_increase_mw(self):
        # well separated: positives 0.9, negatives -0.5 everywhere
        sim = np.full((2, 2), -0.5)
        np.fill_diagonal(sim, 0.9)
        sb = ScoreBatch(sim=sim, tau=1.0)
        shifted = apply_offsets(sb, OffsetAssignment([5.0, -5.0]))
        assert mw_loss(shifted).value > mw_loss(sb).value + 0.1

    def test_offset_count_mismatch(self):
        sb = ScoreBatch(sim=np.zeros((2, 4)), tau=1.0)
        with pytest.raises(ValueError, match="offsets"):
            apply_offsets(sb, OffsetAssignment([1.0]))


class TestGaussianDegradation:
    def make_pools(self, n=200):
        rng = Xoshiro256StarStar(99)
        return [
            ScorePool(rng.uniform(0.5, 0.9, 2), rng.uniform(-0.9, 0.1, 8))
            for _ in range(n)
        ]

    @pytest.mark.parametrize("pools, message", [
        ([], "no per-query pools given"),
        ([ScorePool([0.5], [0.1]), ScorePool([0.5], [])],
         "per-query pools need both positives and negatives"),
    ], ids=["none", "one-sided"])
    def test_pools_without_pairs_rejected(self, pools, message):
        with pytest.raises(ValueError, match=message):
            gaussian_degradation_demo(pools, 1.0, Xoshiro256StarStar(1))

    def test_an_overflowing_loss_names_tau(self):
        # a negative above a positive: at tau 1e-310 the loss is +inf, not nan
        pools = [ScorePool([0.1, 0.6], [0.5, 0.0])]
        with pytest.raises(ValueError, match="the softmax loss is not finite at tau=1e-310"):
            gaussian_degradation_demo(pools, 0.5, Xoshiro256StarStar(1), tau=1e-310)

    def test_a_saturated_loss_is_zero(self):
        # every positive above every negative: the tau -> 0 limit is 0
        pools = [ScorePool([0.6], [0.5, 0.0])]
        _, _, cl_b, cl_a = gaussian_degradation_demo(pools, 0.5, Xoshiro256StarStar(1),
                                                     tau=1e-310)
        assert cl_b == cl_a == 0.0

    def test_sigma_zero_is_identity(self):
        pools = self.make_pools(20)
        before, after, cl_b, cl_a = gaussian_degradation_demo(
            pools, 0.0, Xoshiro256StarStar(1)
        )
        assert after == before
        assert cl_a == cl_b

    def test_huge_sigma_randomizes_pooled_order(self):
        pools = self.make_pools(200)
        before, after, cl_b, cl_a = gaussian_degradation_demo(
            pools, 1e6, Xoshiro256StarStar(2)
        )
        assert before == 0.0  # constructed fully separated
        assert 0.45 <= after <= 0.55
        assert abs(cl_a - cl_b) < 1e-9

    def test_cl_unchanged_for_any_sigma(self):
        pools = self.make_pools(50)
        for sigma in (0.5, 3.0, 100.0, 1e6):
            _, _, cl_b, cl_a = gaussian_degradation_demo(
                pools, sigma, Xoshiro256StarStar(3)
            )
            assert abs(cl_a - cl_b) < 1e-9

    def test_monotone_drift_toward_half(self):
        pools = self.make_pools(200)
        afters = []
        for i, sigma in enumerate([0.0, 0.5, 2.0, 1e6]):
            _, after, _, _ = gaussian_degradation_demo(
                pools, sigma, Xoshiro256StarStar(40 + i)
            )
            afters.append(after)
        assert afters[0] == 0.0
        assert afters[-1] > afters[1]


    @pytest.mark.parametrize("sigma, tau, message", [
        (np.nan, 1.0, "sigma must be finite, got nan"),
        (np.inf, 1.0, "sigma must be finite, got inf"),
        (1.0, np.nan, "tau must be positive and finite, got nan"),
        (1.0, np.inf, "tau must be positive and finite, got inf"),
    ])
    def test_non_finite_setting_rejected(self, sigma, tau, message):
        with pytest.raises(ValueError, match=message):
            gaussian_degradation_demo(self.make_pools(3), sigma, Xoshiro256StarStar(1), tau=tau)


class TestMwBound:
    def test_separated_pair(self):
        aoc, mw, holds = mw_bound_check(ScorePool([1.0], [0.0]), tau=1.0)
        assert aoc == 0.0
        assert mw == pytest.approx(np.log(1 + np.exp(-1)), abs=1e-12)
        assert holds

    def test_tied_pair_boundary(self):
        aoc, mw, holds = mw_bound_check(ScorePool([0.0], [0.0]), tau=1.0)
        assert aoc == 0.0
        assert mw == pytest.approx(LOG2, abs=1e-15)
        assert holds

    def test_adversarial_pool(self):
        aoc, mw, holds = mw_bound_check(ScorePool([-10.0], [10.0]), tau=1.0)
        assert aoc == 1.0
        assert mw == pytest.approx(softplus(np.array([20.0]))[0], rel=1e-12)
        assert mw / LOG2 == pytest.approx(28.85, abs=0.01)
        assert holds

    def test_bound_on_random_pools(self):
        rng = np.random.default_rng(30)
        for trial in range(300):
            tau = [0.01, 0.1, 1.0][trial % 3]
            pos = rng.uniform(-1, 1, rng.integers(1, 40))
            neg = rng.uniform(-1, 1, rng.integers(1, 40))
            pool = ScorePool(pos, neg)
            aoc, mw, holds = mw_bound_check(pool, tau)
            assert holds
            assert aoc == pytest.approx(brute_force_strict_aoc(pos, neg), abs=1e-12)

    def test_empty_side_rejected(self):
        with pytest.raises(ValueError, match="rank statistics need scores on both sides"):
            mw_bound_check(ScorePool([1.0], []), tau=1.0)

    def test_an_overflowing_pair_loss_is_the_infinite_limit(self):
        # (0.5 - 0.1) / 1e-320 overflows: the bound holds, and numpy stays quiet
        aoc, mw, holds = mw_bound_check(ScorePool([0.1, 0.6], [0.5, 0.0]), tau=1e-320)
        assert (aoc, mw, holds) == (0.25, np.inf, True)

    @pytest.mark.parametrize("tau", [np.nan, np.inf])
    def test_non_finite_tau_rejected(self, tau):
        with pytest.raises(ValueError, match="tau must be positive and finite"):
            mw_bound_check(ScorePool([1.0], [0.0]), tau)

    def test_memory_stays_below_two_pools_of_negatives(self):
        # four row-wide scratch buffers would take 4x the negatives' bytes,
        # and the gradient's column sums 1x; the softplus-only pass keeps
        # neither, so the pool's sorted copy is the one array that size
        rng = np.random.default_rng(31)
        pool = ScorePool(rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 1_000_000))
        tracemalloc.start()
        try:
            mw_bound_check(pool, tau=0.05)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * pool.negatives.nbytes

    @pytest.mark.parametrize("n_pos, n_neg", [
        (3, 65543),  # each row wider than a block, cut into several tiles
        (50, 4000),  # several blocks of whole rows
    ])
    def test_blocked_mean_equals_full_matrix_formula(self, n_pos, n_neg):
        rng = np.random.default_rng(n_neg)
        pool = ScorePool(rng.uniform(-1, 1, n_pos), rng.uniform(-1, 1, n_neg))
        _, mw, _ = mw_bound_check(pool, tau=0.05)
        diff = (pool.positives[:, None] - pool.negatives[None, :]) / 0.05
        assert mw == pytest.approx(float(softplus(-diff).mean()), rel=1e-12)


class TestStableScalarHelpers:
    def test_softplus_extremes(self):
        x = np.array([-800.0, -30.0, 0.0, 30.0, 800.0])
        out = softplus(x)
        assert np.isfinite(out).all()
        assert out[0] == 0.0  # underflow to exactly zero is fine
        assert out[2] == pytest.approx(LOG2)
        assert out[4] == pytest.approx(800.0)

    def test_sigmoid_extremes(self):
        x = np.array([-800.0, 0.0, 800.0])
        out = sigmoid(x)
        assert out[0] == 0.0
        assert out[1] == 0.5
        assert out[2] == 1.0

    def test_sigmoid_symmetry(self):
        x = np.linspace(-40, 40, 401)
        np.testing.assert_allclose(sigmoid(x) + sigmoid(-x), 1.0, atol=1e-12)
