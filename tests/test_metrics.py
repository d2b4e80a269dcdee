"""Tests for rank statistics and retrieval metrics.

Brute-force pair loops are the oracle for the U statistic and AUC; the
ROC trapezoid and the placement-based U must agree with them exactly.
The statistics that read a pool's cached sort and placements are checked
against naive oracles that sort the pool themselves, on tie-heavy
generated pools. ``evaluate``'s list metrics are checked on hand-built
score matrices and against a full-sort oracle.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mwlab import metrics
from mwlab.data import Corpus, Document, Query, QuerySet
from mwlab.encoder import BLOCK_ROWS, EncoderConfig, ScoreRows, init_params, make_scorer
from mwlab.metrics import (
    RankedList,
    ScorePool,
    auc,
    evaluate,
    histogram,
    mann_whitney_u,
    mrr_at_k,
    pooled_auc_protocol,
    ranked_lists,
    roc_curve,
    strict_aoc,
)
from mwlab.synthetic import SyntheticSpec, make_benchmark
from util import (
    brute_force_strict_aoc,
    brute_force_u,
    force_split,
    naive_histogram_counts,
    naive_list_metrics,
    naive_mann_whitney_u,
    naive_merge_roc,
    naive_pool,
    naive_roc_curve,
)

PROPERTY = settings(derandomize=True, database=None, max_examples=150, deadline=None)


@st.composite
def tie_heavy_pools(draw):
    """Pools drawn from a few score levels (one level makes every score
    equal), sometimes mixed with free values; sides may hold one score."""
    levels = st.sampled_from(draw(st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=4)))
    score = st.one_of(levels, st.floats(-2.0, 2.0)) if draw(st.booleans()) else levels
    side = st.lists(score, min_size=1, max_size=30)
    return ScorePool(draw(side), draw(side))


class TestCachedSort:
    @PROPERTY
    @given(tie_heavy_pools(), st.integers(1, 9))
    def test_statistics_match_the_naive_oracles(self, pool, bins):
        np.testing.assert_array_equal(roc_curve(pool).points, naive_roc_curve(pool))
        assert mann_whitney_u(pool) == naive_mann_whitney_u(pool)
        assert strict_aoc(pool) == brute_force_strict_aoc(pool.positives, pool.negatives)
        union = np.concatenate([pool.positives, pool.negatives])
        lo, hi = float(union.min()), float(union.max())
        hist = histogram(pool, bins)
        assert hist.pos_counts.tolist() == naive_histogram_counts(pool.positives, lo, hi, bins)
        assert hist.neg_counts.tolist() == naive_histogram_counts(pool.negatives, lo, hi, bins)

    @PROPERTY
    @given(tie_heavy_pools())
    def test_placements_count_the_negatives_below_and_not_above(self, pool):
        below, not_above = pool.placements
        for p, b, a in zip(pool.sorted_sides[0], below, not_above):
            assert b == sum(1 for n in pool.negatives if n < p)
            assert a == sum(1 for n in pool.negatives if n <= p)

    def test_sides_and_their_sorts_are_read_only(self):
        pool = ScorePool([0.3, 0.1], [0.2, 0.0, 0.4])
        for side in (pool.positives, pool.negatives, *pool.sorted_sides, *pool.placements):
            with pytest.raises(ValueError, match="read-only"):
                side[0] = 1.0

    def test_sort_is_computed_once(self):
        pool = ScorePool([0.3, 0.1], [0.2, 0.0, 0.4])
        first, placed = pool.sorted_sides, pool.placements
        auc(pool), strict_aoc(pool), roc_curve(pool), histogram(pool, 3)
        assert pool.sorted_sides is first and pool.placements is placed
        np.testing.assert_array_equal(first[0], [0.1, 0.3])
        np.testing.assert_array_equal(first[1], [0.0, 0.2, 0.4])
        np.testing.assert_array_equal(placed[0], [1, 2])
        np.testing.assert_array_equal(placed[1], [1, 2])

    def test_pool_keeps_its_own_copy(self):
        negatives = np.array([0.2, 0.0, 0.4])
        pool = ScorePool([0.3], negatives)
        negatives[0] = 9.0
        np.testing.assert_array_equal(pool.negatives, [0.2, 0.0, 0.4])
        assert strict_aoc(pool) == 1 / 3

    @pytest.mark.parametrize("positives, negatives", [([], [1.0, 0.0]), ([1.0, 0.0], [])])
    def test_histogram_with_an_empty_side(self, positives, negatives):
        hist = histogram(ScorePool(positives, negatives), bins=2)
        np.testing.assert_array_equal(hist.edges, [0.0, 0.5, 1.0])
        assert sorted([hist.pos_counts.tolist(), hist.neg_counts.tolist()]) == [[0, 0], [1, 1]]
        with pytest.raises(ValueError, match="overlap needs scores on both sides"):
            hist.overlap_coefficient()

    @pytest.mark.parametrize("positives, negatives, side", [
        ([0.5, np.nan], [0.0], "positive"), ([0.5], [np.inf, 0.0], "negative"),
    ])
    def test_non_finite_scores_rejected(self, positives, negatives, side):
        with pytest.raises(ValueError, match=f"{side} scores must be finite"):
            ScorePool(positives, negatives)


    def test_pool_copies_a_callers_array_and_leaves_it_writeable(self):
        negatives = np.array([0.2, 0.0, 0.4])
        pool = ScorePool([0.3], negatives)
        assert not np.shares_memory(pool.negatives, negatives)
        assert negatives.flags.writeable

    def test_pool_copies_a_read_only_view_of_a_writeable_array(self):
        base = np.array([0.2, 0.0, 0.4])
        view = base[:]
        view.flags.writeable = False
        pool = ScorePool([0.3], view)
        assert not np.shares_memory(pool.negatives, base)
        base[0] = 9.0
        np.testing.assert_array_equal(pool.negatives, [0.2, 0.0, 0.4])

    def test_protocol_hands_its_own_arrays_over(self, monkeypatch):
        selected, select = [], metrics.top_k_scores

        def recorded(*args):
            selected.extend(select(*args))
            return selected

        monkeypatch.setattr(metrics, "top_k_scores", recorded)
        corpus = Corpus([Document(f"d{j}", "t") for j in range(6)])
        queries = QuerySet([Query(f"q{i}", "q", [f"d{i}"]) for i in range(3)])
        scores = np.random.default_rng(0).normal(size=(3, 6))
        pool, _ = pooled_auc_protocol(queries, corpus, lambda qs, c: scores, top_k=2)
        assert np.shares_memory(pool.positives, selected[0])
        assert np.shares_memory(pool.negatives, selected[1])
        assert not (pool.positives.flags.writeable or pool.negatives.flags.writeable)


class TestMannWhitneyU:
    def test_hand_counted_pairs(self):
        # pairs: 3>2, 3>0, 1<2, 1>0 -> U = 3
        pool = ScorePool([3.0, 1.0], [2.0, 0.0])
        assert mann_whitney_u(pool) == 3.0

    def test_single_tie_half_weight(self):
        assert mann_whitney_u(ScorePool([0.5], [0.5])) == 0.5

    def test_perfect_separation(self):
        assert mann_whitney_u(ScorePool([1.0, 1.0], [0.0, 0.0])) == 4.0

    def test_matches_brute_force_on_random_pools(self):
        rng = np.random.default_rng(0)
        for _ in range(60):
            n_pos = int(rng.integers(1, 60))
            n_neg = int(rng.integers(1, 60))
            # quantized draws force plenty of ties
            pos = rng.integers(0, 12, n_pos) / 4.0
            neg = rng.integers(0, 12, n_neg) / 4.0
            pool = ScorePool(pos, neg)
            assert mann_whitney_u(pool) == brute_force_u(pos, neg)

    def test_empty_side_rejected(self):
        with pytest.raises(ValueError, match="both sides"):
            mann_whitney_u(ScorePool([], [1.0]))

    @pytest.mark.parametrize("levels", [1, 2, 7, 50, None])
    def test_equals_midrank_walk(self, levels):
        # levels=1 makes every score equal; None draws continuous scores
        rng = np.random.default_rng(levels or 0)
        for n_pos, n_neg in ((1, 1), (1, 300), (300, 1), (400, 3000)):
            if levels is None:
                pos, neg = rng.normal(size=n_pos), rng.normal(size=n_neg)
            else:
                pos = rng.integers(0, levels, n_pos) / 8.0
                neg = rng.integers(0, levels, n_neg) / 8.0
            pool = ScorePool(pos, neg)
            assert mann_whitney_u(pool) == naive_mann_whitney_u(pool)


class TestAuc:
    def test_perfect(self):
        assert auc(ScorePool([0.9, 0.8], [0.1, 0.2])) == 1.0

    def test_half(self):
        # 1 of 2 pairs correctly ordered
        assert auc(ScorePool([0.3, 0.7], [0.5])) == 0.5

    def test_shift_invariant(self):
        rng = np.random.default_rng(1)
        pos = rng.normal(size=30)
        neg = rng.normal(size=40)
        a = auc(ScorePool(pos, neg))
        assert auc(ScorePool(pos + 17.3, neg + 17.3)) == a

    def test_invariant_under_strictly_increasing_transforms(self):
        rng = np.random.default_rng(2)
        pos = rng.normal(size=25)
        neg = rng.normal(size=35)
        base = auc(ScorePool(pos, neg))
        for f in (np.exp, np.tanh, lambda x: x**3 + 2 * x, lambda x: 0.1 * x - 4):
            assert auc(ScorePool(f(pos), f(neg))) == pytest.approx(base, abs=1e-12)

    def test_strict_aoc_relation(self):
        rng = np.random.default_rng(3)
        # tie-free: 1 - auc == strict_aoc exactly
        pos = rng.normal(size=50)
        neg = rng.normal(size=60)
        pool = ScorePool(pos, neg)
        assert 1.0 - auc(pool) == pytest.approx(strict_aoc(pool), abs=1e-15)
        # with ties they differ by half the tie mass
        pos_q = np.round(pos)
        neg_q = np.round(neg)
        pool_q = ScorePool(pos_q, neg_q)
        ties = sum(1 for p in pos_q for n in neg_q if p == n)
        expected_gap = 0.5 * ties / (len(pos_q) * len(neg_q))
        assert (1.0 - auc(pool_q)) - strict_aoc(pool_q) == pytest.approx(
            expected_gap, abs=1e-12
        )

    def test_strict_aoc_matches_brute_force(self):
        rng = np.random.default_rng(4)
        pos = rng.integers(0, 6, 30) / 2.0
        neg = rng.integers(0, 6, 45) / 2.0
        assert strict_aoc(ScorePool(pos, neg)) == pytest.approx(
            brute_force_strict_aoc(pos, neg), abs=1e-15
        )


class TestRocCurve:
    def test_perfect_separation_three_points(self):
        curve = roc_curve(ScorePool([1.0, 1.0], [0.0, 0.0]))
        np.testing.assert_array_equal(curve.points, [(0, 0), (0, 1), (1, 1)])
        assert curve.area() == 1.0

    def test_all_identical_diagonal(self):
        curve = roc_curve(ScorePool([0.3, 0.3], [0.3]))
        np.testing.assert_array_equal(curve.points, [(0, 0), (1, 1)])
        assert curve.area() == 0.5

    def test_endpoints_and_monotonicity(self):
        rng = np.random.default_rng(5)
        pool = ScorePool(rng.normal(size=40), rng.normal(size=60))
        pts = roc_curve(pool).points
        np.testing.assert_array_equal(pts[0], (0, 0))
        np.testing.assert_array_equal(pts[-1], (1, 1))
        assert (np.diff(pts[:, 0]) >= 0).all()
        assert (np.diff(pts[:, 1]) >= 0).all()

    def test_area_equals_auc_with_and_without_ties(self):
        rng = np.random.default_rng(6)
        for quantize in (False, True):
            pos = rng.normal(size=100)
            neg = rng.normal(size=120)
            if quantize:
                pos = np.round(pos * 2) / 2
                neg = np.round(neg * 2) / 2
            pool = ScorePool(pos, neg)
            assert roc_curve(pool).area() == pytest.approx(auc(pool), abs=1e-12)

    def test_three_way_agreement_large_pool(self):
        rng = np.random.default_rng(7)
        pos = rng.normal(0.3, 1.0, size=5000)
        neg = rng.normal(0.0, 1.0, size=5000)
        pool = ScorePool(pos, neg)
        u_based = mann_whitney_u(pool) / (5000 * 5000)
        assert auc(pool) == pytest.approx(u_based, abs=1e-12)
        assert roc_curve(pool).area() == pytest.approx(u_based, abs=1e-12)


    @PROPERTY
    @given(st.data())
    def test_property_matches_the_merge_oracle(self, draw):
        # tie-heavy sides over levels that hold both zeros, one positive
        # alone, and pools whose every score is equal
        levels = draw.draw(st.lists(st.sampled_from([-0.0, 0.0, -1.0, 0.5, 2.0]) | st.floats(-2, 2),
                                    min_size=1, max_size=4), label="levels")
        side = st.lists(st.sampled_from(levels), min_size=1, max_size=40)
        positives = draw.draw(st.one_of(side, st.lists(st.sampled_from(levels), min_size=1,
                                                       max_size=1)), label="positives")
        negatives = draw.draw(side, label="negatives")
        points = roc_curve(ScorePool(positives, negatives)).points
        assert points.tolist() == [list(p) for p in naive_merge_roc(positives, negatives)]

    def test_memory_holds_the_points_and_three_counts(self):
        # beside the 16-byte points, the counts hold at most three int64
        # arrays of the pool's size
        rng = np.random.default_rng(0)
        pool = ScorePool(rng.normal(size=200), rng.normal(size=100_000))
        pool.placements  # the pool's own sort and placements, cached before tracing
        n = pool.n_pos + pool.n_neg
        tracemalloc.start()
        try:
            curve = roc_curve(pool)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(curve.points) == n + 1
        assert peak < 16 * n + 3 * 8 * n  # the points, and three int64 arrays of the pool's size


class TestPooledProtocol:
    def scorer_from_table(self, table, corpus):
        def scorer(queries, corpus):
            return np.array([[table[q.id][d.id] for d in corpus] for q in queries])
        return scorer

    def test_single_query_top_k(self):
        corpus = Corpus([Document(f"d{i}", f"t{i}") for i in range(4)])
        queries = QuerySet([Query("q", "q", ["d0"])])
        table = {"q": {"d0": 0.9, "d1": 0.8, "d2": 0.2, "d3": 0.1}}
        pool, value = pooled_auc_protocol(
            queries, corpus, self.scorer_from_table(table, corpus), top_k=2
        )
        assert sorted(pool.negatives.tolist()) == [0.2, 0.8]
        np.testing.assert_array_equal(pool.positives, [0.9])
        assert value == 1.0

    def test_k_larger_than_corpus_uses_all(self):
        corpus = Corpus([Document(f"d{i}", f"t{i}") for i in range(3)])
        queries = QuerySet([Query("q", "q", ["d0"])])
        table = {"q": {"d0": 0.5, "d1": 0.4, "d2": 0.3}}
        pool, _ = pooled_auc_protocol(
            queries, corpus, self.scorer_from_table(table, corpus), top_k=100
        )
        assert pool.n_neg == 2

    def test_two_query_pooling_hand_computed(self):
        # pooled pairs: (.9>.1), (.9>.5), (.3>.1), (.3<.5) -> U=3, AUC=0.75
        corpus = Corpus([Document(d, d) for d in ["p1", "p2", "n1", "n2"]])
        queries = QuerySet([
            Query("q1", "q1", ["p1"]),
            Query("q2", "q2", ["p2"]),
        ])
        table = {
            "q1": {"p1": 0.9, "p2": 0.05, "n1": 0.1, "n2": 0.0},
            "q2": {"p2": 0.3, "p1": 0.2, "n1": 0.1, "n2": 0.5},
        }
        pool, value = pooled_auc_protocol(
            queries, corpus, self.scorer_from_table(table, corpus), top_k=1
        )
        assert value == 0.75

    @PROPERTY
    @given(st.data())
    def test_property_matches_the_per_query_oracle(self, draw):
        # 1-3 positives per query mix positive counts within a block, a
        # small corpus leaves some queries fewer non-positives than top_k,
        # and up to four score levels make ties; row counts reach past
        # one block
        n_docs = draw.draw(st.integers(4, 9), label="docs")
        n_queries = draw.draw(st.one_of(st.integers(1, 5),
                                        st.integers(BLOCK_ROWS - 1, BLOCK_ROWS + 6)), label="queries")
        top_k = draw.draw(st.integers(1, n_docs), label="top_k")
        levels = np.array(draw.draw(st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=4),
                                    label="levels"))
        rng = np.random.default_rng(draw.draw(st.integers(0, 2**32 - 1), label="seed"))
        corpus = Corpus([Document(f"d{j}", "t") for j in range(n_docs)])
        queries = QuerySet([
            Query(f"q{i}", "q", [f"d{j}" for j in rng.choice(n_docs, rng.integers(1, 4), replace=False)])
            for i in range(n_queries)
        ])
        scores = levels[rng.integers(0, len(levels), size=(n_queries, n_docs))]
        pool, value = pooled_auc_protocol(queries, corpus, lambda qs, c: scores, top_k=top_k)

        positives, negatives = naive_pool(scores, queries, corpus, top_k)
        assert pool.positives.tolist() == [v for p in positives for v in p]
        ends = np.cumsum([len(n) for n in negatives])
        assert pool.n_neg == ends[-1]
        for got, want in zip(np.split(pool.negatives, ends[:-1]), negatives):
            assert sorted(got.tolist()) == sorted(want)
        assert value == brute_force_u(pool.positives, pool.negatives) / (pool.n_pos * pool.n_neg)

    def test_memory_stays_within_two_blocks(self):
        # row copies of every query would hold 400 x 1999 x 8 = 6.4 MB; the
        # bound is two blocks in flight (cells and mask) plus four copies of
        # the 400 x 50 pooled negatives
        n_queries, n_docs, top_k = 400, 2000, 50
        bound = 2 * BLOCK_ROWS * n_docs * 9 + 4 * n_queries * top_k * 8
        assert bound < n_queries * (n_docs - 1) * 8
        scores = np.random.default_rng(0).normal(size=(n_queries, n_docs))
        corpus = Corpus([Document(f"d{j}", "t") for j in range(n_docs)])
        queries = QuerySet([Query(f"q{i}", "q", [f"d{i}"]) for i in range(n_queries)])
        tracemalloc.start()
        try:
            pool, _ = pooled_auc_protocol(queries, corpus, lambda qs, c: scores, top_k=top_k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert pool.n_neg == n_queries * top_k
        assert peak < bound

    def test_memory_stays_within_two_blocks_split(self, monkeypatch):
        # each walker holds its own block
        started = force_split(monkeypatch, on=True)
        self.test_memory_stays_within_two_blocks()
        assert len(started) == 1

    def test_no_nonpositive_documents_rejected(self):
        corpus = Corpus([Document("d0", "t")])
        queries = QuerySet([Query("q", "q", ["d0"])])
        with pytest.raises(ValueError, match="query 'q': corpus has no non-positive documents"):
            pooled_auc_protocol(queries, corpus, lambda qs, c: np.ones((1, 1)), top_k=5)

    def test_empty_query_set_rejected(self):
        corpus = Corpus([Document("d0", "t"), Document("d1", "t")])
        with pytest.raises(ValueError, match="query set is empty"):
            pooled_auc_protocol(QuerySet(), corpus, lambda qs, c: np.ones((0, 2)))


def test_evaluate_calls_the_protocol_and_the_lists_through_the_module_globals(monkeypatch):
    # bench/run.py counts eval_queries_per_s from the queries that reach
    # metrics.pooled_auc_protocol, and times both selections, by wrapping
    # these globals: a direct reference would bypass the wrappers
    calls = []
    for name in ("pooled_auc_protocol", "ranked_lists"):
        def counting(queries, *args, _real=getattr(metrics, name), _name=name, **kwargs):
            calls.append((_name, len(queries)))
            return _real(queries, *args, **kwargs)
        monkeypatch.setattr(metrics, name, counting)
    corpus = Corpus([Document(f"d{j}", "t") for j in range(5)])
    queries = QuerySet([Query(f"q{i}", "q", [f"d{i}"]) for i in range(3)])
    evaluate(np.random.default_rng(0).normal(size=(3, 5)), queries, corpus, top_k=2)
    assert calls == [("pooled_auc_protocol", 3), ("ranked_lists", 3)]


def test_evaluate_scores_each_row_once(monkeypatch):
    # two selections read the matrix; a ScoreRows passed through as it is
    # would score every block once per selection
    corpus, queries = make_benchmark(SyntheticSpec(n_queries=150, n_docs=200, seed=5))
    rows = make_scorer(init_params(EncoderConfig(hash_dim=256, embed_dim=8, proj_dim=4)))(
        queries, corpus)
    scored, product = [], ScoreRows.product

    def counted(self, block, out=None):
        scored.extend(range(len(self.queries))[block])
        return product(self, block, out)

    monkeypatch.setattr(ScoreRows, "product", counted)
    pool, got = evaluate(rows, queries, corpus, top_k=20)
    assert sorted(scored) == list(range(len(queries)))
    want_pool, want = evaluate(np.asarray(rows), queries, corpus, top_k=20)
    assert got == want and pool.negatives.tobytes() == want_pool.negatives.tobytes()


def list_metrics(*rankings) -> dict:
    """evaluate's metrics over one query per (ranked ids, relevant ids)
    pair. A query's ranked ids score above every other document, in the
    order given; the others tie at zero and rank by ascending id."""
    ids = sorted({d for ranked, relevant in rankings for d in [*ranked, *relevant]})
    scores = np.zeros((len(rankings), len(ids)))
    for i, (ranked, _) in enumerate(rankings):
        for rank, doc_id in enumerate(ranked):
            scores[i, ids.index(doc_id)] = len(ranked) - rank
    corpus = Corpus([Document(d, d) for d in ids])
    queries = QuerySet([Query(f"q{i}", f"q{i}", sorted(relevant))
                        for i, (_, relevant) in enumerate(rankings)])
    return evaluate(scores, queries, corpus, top_k=1)[1]


class TestEvaluate:
    def test_equals_its_parts(self):
        rng = np.random.default_rng(5)
        ids = [f"d{i:02d}" for i in rng.permutation(30)]
        corpus = Corpus([Document(d, d) for d in ids])
        queries = QuerySet([
            Query(f"q{i}", f"q{i}", rng.choice(ids, size=1 + i % 3, replace=False).tolist())
            for i in range(8)
        ])
        # ties within and across rows, then continuous scores
        for scores in (rng.integers(0, 5, size=(8, 30)) / 4.0, rng.normal(size=(8, 30))):
            scorer = lambda qs, c: scores  # noqa: E731
            pool, metrics = evaluate(scores, queries, corpus, top_k=6)

            ref_pool, ref_auc = pooled_auc_protocol(queries, corpus, scorer, top_k=6)
            lists = ranked_lists(queries, corpus, scorer, depth=10)
            np.testing.assert_array_equal(pool.positives, ref_pool.positives)
            np.testing.assert_array_equal(pool.negatives, ref_pool.negatives)
            assert pool.n_neg == 8 * 6  # top_k below every query's negative count
            assert metrics == {"auc": ref_auc, **naive_list_metrics(scores, queries, corpus)}
            assert metrics["mrr10"] == mrr_at_k(lists, 10)


class TestRankedMetrics:
    def test_mrr_first_relevant_at_rank_three(self):
        lists = [RankedList(["a", "b", "c", "d"], {"c"})]
        assert mrr_at_k(lists, 10) == pytest.approx(1 / 3)
        assert list_metrics((["a", "b", "c", "d"], {"c"}))["mrr10"] == pytest.approx(1 / 3)

    def test_mrr_no_relevant_in_top_k(self):
        ranked = [f"x{i}" for i in range(12)]
        assert mrr_at_k([RankedList(ranked, {"x11"})], 10) == 0.0
        assert list_metrics((ranked, {"x11"}))["mrr10"] == 0.0

    def test_mrr_two_queries(self):
        lists = [
            RankedList(["a", "b"], {"a"}),
            RankedList(["c", "d"], {"d"}),
        ]
        assert mrr_at_k(lists, 10) == pytest.approx(0.75)
        metrics = list_metrics((["a", "b", "c", "d"], {"a"}), (["c", "d", "a", "b"], {"d"}))
        assert metrics["mrr10"] == pytest.approx(0.75)

    def test_ndcg_rank_one(self):
        assert list_metrics((["a", "b"], {"a"}))["ndcg10"] == 1.0

    def test_ndcg_rank_two_single_relevant(self):
        value = list_metrics((["b", "a"], {"a"}))["ndcg10"]
        assert value == pytest.approx(1 / np.log2(3), abs=1e-12)
        assert value == pytest.approx(0.6309, abs=1e-4)

    def test_ndcg_relevant_absent(self):
        ranked = [f"x{i:02d}" for i in range(10)]
        assert list_metrics((ranked, {"zzz"}))["ndcg10"] == 0.0

    def test_precision_recall(self):
        # "x" ranks below the top 10, among the filler
        metrics = list_metrics(([*"abc", *(f"f{i}" for i in range(10))], {"a", "c", "x"}))
        assert metrics["precision10"] == pytest.approx(2 / 10)
        assert metrics["recall1"] == pytest.approx(1 / 3)

    def test_duplicate_ranked_ids_rejected(self):
        with pytest.raises(ValueError, match="ranked_ids contains duplicates"):
            RankedList(["a", "b", "a"], {"a"})

    def test_depth_below_one_rejected(self):
        corpus = Corpus([Document("a", "t"), Document("b", "t")])
        queries = QuerySet([Query("q", "q", ["a"])])
        with pytest.raises(ValueError, match="depth must be >= 1, got 0"):
            ranked_lists(queries, corpus, lambda qs, c: np.ones((1, 2)), depth=0)

    def test_ranked_lists_tie_break_by_id(self):
        corpus = Corpus([Document(d, d) for d in ["b", "a", "c"]])
        queries = QuerySet([Query("q", "q", ["c"])])

        def scorer(queries, corpus):
            return np.array([[0.5, 0.5, 0.1]])

        lists = ranked_lists(queries, corpus, scorer, depth=3)
        assert lists[0].ranked_ids == ["a", "b", "c"]

    def test_empty_collection_rejected(self):
        with pytest.raises(ValueError, match="no ranked lists"):
            mrr_at_k([], 10)

    def test_k_below_one_rejected(self):
        with pytest.raises(ValueError, match="k must be >= 1"):
            mrr_at_k([RankedList(["a"], {"a"})], 0)


class TestHistogram:
    @pytest.mark.parametrize("bins", [3, 7, 50, 97])
    def test_scores_on_and_beside_the_edges_match_the_naive_counts(self, bins):
        # a score a step from an edge can sit in the other bin than the
        # edge's searchsorted guess puts it
        rng = np.random.default_rng(bins)
        lo, hi = -1.3, 2.9
        edges = np.linspace(lo, hi, bins + 1)
        near = np.concatenate([edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)])
        near = near[(near >= lo) & (near <= hi)]
        pool = ScorePool(rng.choice(near, 40), [lo, hi, *rng.choice(near, 400)])
        hist = histogram(pool, bins)
        assert hist.pos_counts.tolist() == naive_histogram_counts(pool.positives, lo, hi, bins)
        assert hist.neg_counts.tolist() == naive_histogram_counts(pool.negatives, lo, hi, bins)

    def test_one_sided_two_bins(self):
        hist = histogram(ScorePool([0.0, 1.0], []), bins=2)
        np.testing.assert_array_equal(hist.pos_counts, [1, 1])
        np.testing.assert_array_equal(hist.neg_counts, [0, 0])

    def test_identical_values_single_bin(self):
        hist = histogram(ScorePool([0.5, 0.5], [0.5]), bins=4)
        assert hist.pos_counts.sum() == 2
        assert hist.neg_counts.sum() == 1
        assert (hist.pos_counts > 0).sum() == 1
        assert (hist.neg_counts > 0).sum() == 1

    def test_counts_sum_to_pool_sizes(self):
        rng = np.random.default_rng(8)
        pool = ScorePool(rng.normal(size=137), rng.normal(size=211))
        hist = histogram(pool, bins=10)
        assert hist.pos_counts.sum() == 137
        assert hist.neg_counts.sum() == 211

    def test_uniform_counts_within_binomial_bound(self):
        rng = np.random.default_rng(9)
        values = rng.uniform(0, 1, 1000)
        # pin the range so every bin has expectation exactly 100
        values[0], values[1] = 0.0, 1.0 - 1e-12
        hist = histogram(ScorePool(values, []), bins=10)
        sigma = np.sqrt(1000 * 0.1 * 0.9)
        assert (np.abs(hist.pos_counts - 100) <= 5 * sigma).all()

    def test_max_value_lands_in_last_bin(self):
        hist = histogram(ScorePool([0.0, 1.0], [1.0]), bins=3)
        assert hist.pos_counts[-1] == 1
        assert hist.neg_counts[-1] == 1

    def test_overlap_coefficient(self):
        disjoint = histogram(ScorePool([0.9, 0.95], [0.0, 0.05]), bins=4)
        assert disjoint.overlap_coefficient() == 0.0
        identical = histogram(ScorePool([0.1, 0.9], [0.1, 0.9]), bins=4)
        assert identical.overlap_coefficient() == pytest.approx(1.0)

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            histogram(ScorePool([], []), bins=3)
