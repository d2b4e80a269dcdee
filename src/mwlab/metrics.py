"""Rank statistics and retrieval metrics.

The central object is a ScorePool: the scores a model assigned to
relevant (positive) and irrelevant (negative) passages, pooled across
queries. The Mann-Whitney U statistic counts correctly ordered
positive-negative pairs (ties at half weight), U / (n_pos * n_neg) is
the area under the ROC curve, and 1 - AUC is the area over it. A pool
sorts its sides once, and places its sorted positives among its sorted
negatives once: for each positive, the negatives below it and the
negatives not above it (two binary searches). U, strict AoC and the ROC
curve all read that one placement pair, and the histogram the sort. All
counts are integers below 2^53, so every statistic is exact. The ROC
curve writes its counts into its points in place, and the histogram
counts each sorted side from one guess per bin edge.

Tie conventions: U and AUC give ties half weight, the standard
Mann-Whitney treatment. ``strict_aoc`` counts only strict inversions
(s+ < s-), the form the pairwise-loss bound is stated against. For
tie-free pools strict_aoc == 1 - auc exactly; with ties they differ by
half the tie mass.

``evaluate`` is the one evaluation bundle: it takes one n_queries x
n_docs score matrix (an array, or a ``ScoreRows`` it scores once), runs
the pooled AUC protocol and the depth-10 ranked lists over it, and
returns the pool with auc, mrr10, ndcg10, precision10 and recall1. The
four list metrics read one hit pass: per list, the ranks within its top
10 that hold a relevant id. Training, ablation, comparison and the CLI
all evaluate through it, so each scores a query set only once. ``data``
owns every selection over the matrix and the mapping of a query's ids to
its columns: ``top_k_scores`` picks the protocol's pool and
``top_k_columns`` the ranked lists, one block of rows at a time. This
module only counts.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .data import Corpus, QuerySet, Scorer, score_matrix, top_k_columns, top_k_scores
from .encoder import ScoreRows


def _read_only(values: np.ndarray) -> np.ndarray:
    values.flags.writeable = False
    return values


@dataclass(frozen=True)
class ScorePool:
    """Pooled positive and negative scores. A side may be empty; the rank
    statistics require both. The pool keeps a read-only copy of each side,
    or the side itself if it is a read-only 1-D float64 array that owns its
    memory, as the protocol's are. It computes its sort (``sorted_sides``)
    and its placements (``placements``) once, on first use; both are
    read-only too."""

    positives: np.ndarray
    negatives: np.ndarray

    def __post_init__(self):
        for side in ("positives", "negatives"):
            values = getattr(self, side)
            if not (isinstance(values, np.ndarray) and values.dtype == np.float64
                    and values.ndim == 1 and values.base is None and not values.flags.writeable):
                values = _read_only(np.array(np.ravel(values), dtype=np.float64))
            if len(values) and not np.isfinite(values).all():
                raise ValueError(f"{side[:-1]} scores must be finite")
            object.__setattr__(self, side, values)

    @property
    def n_pos(self) -> int:
        return len(self.positives)

    @property
    def n_neg(self) -> int:
        return len(self.negatives)

    @cached_property
    def sorted_sides(self) -> tuple[np.ndarray, np.ndarray]:
        return _read_only(np.sort(self.positives)), _read_only(np.sort(self.negatives))

    @cached_property
    def placements(self) -> tuple[np.ndarray, np.ndarray]:
        """(below, not_above): for each sorted positive, the number of
        negatives scoring strictly below it and the number not above it."""
        if self.n_pos == 0 or self.n_neg == 0:
            raise ValueError("rank statistics need scores on both sides "
                             f"(n_pos={self.n_pos}, n_neg={self.n_neg})")
        pos, neg = self.sorted_sides
        return tuple(_read_only(np.searchsorted(neg, pos, side)) for side in ("left", "right"))


def mann_whitney_u(pool: ScorePool) -> float:
    """U = #(s+ > s-) + 0.5 * #(s+ = s-) over all positive-negative pairs,
    summed from the pool's placements."""
    below, not_above = pool.placements
    return float(below.sum() + 0.5 * (not_above - below).sum())


def auc(pool: ScorePool) -> float:
    """U normalized by the pair count: the probability that a random
    positive outscores a random negative (ties at half weight)."""
    return mann_whitney_u(pool) / (pool.n_pos * pool.n_neg)


def strict_aoc(pool: ScorePool) -> float:
    """Fraction of pairs strictly misordered (s+ < s-); ties count zero."""
    above = (pool.n_neg - pool.placements[1]).sum()  # negatives above each positive
    return float(above) / (pool.n_pos * pool.n_neg)


@dataclass
class ROCCurve:
    """Threshold sweep of (false positive rate, true positive rate),
    from (0, 0) to (1, 1), both coordinates non-decreasing."""

    points: np.ndarray  # k x 2, columns (fpr, tpr)

    def area(self) -> float:
        """Trapezoidal area under the curve."""
        fpr, tpr = self.points.T
        return float(np.sum(np.diff(fpr) * (tpr[1:] + tpr[:-1])) * 0.5)


def roc_curve(pool: ScorePool) -> ROCCurve:
    """Sweep thresholds over the distinct scores, descending. Tied scores
    advance both rates jointly, producing a diagonal segment, so the
    trapezoidal area equals ``auc`` including its half-weight ties. The
    sorted sides give every point (Fawcett 2006, Alg. 1): a tie group is a
    run of equal negatives or a run of positives that ties no negative,
    and its integer counts below are written into the points in place."""
    pos, neg = pool.sorted_sides
    n_pos, n_neg = pool.n_pos, pool.n_neg
    below, not_above = pool.placements
    starts = np.empty(n_neg, dtype=bool)
    starts[0] = True
    np.not_equal(neg[1:], neg[:-1], out=starts[1:])
    neg_starts = np.flatnonzero(starts)  # the negatives below each run of negatives
    del starts
    # the first positive of each run of positives that ties no negative
    own = np.flatnonzero((below == not_above) & np.concatenate(([True], pos[1:] != pos[:-1])))
    # each positive's group: the groups of both kinds below it
    group = np.searchsorted(neg_starts, below) + np.searchsorted(pos[own], pos)
    groups = len(neg_starts) + len(own)
    # (0, 0), then the rates of scores >= each threshold, descending
    points = np.zeros((groups + 1, 2))
    fpr, tpr = points[:0:-1].T  # group j's rates
    of_negatives = np.ones(groups, dtype=bool)
    of_negatives[group[own]] = False
    fpr[of_negatives] = neg_starts  # the negatives below each group
    fpr[group[own]] = below[own]
    np.subtract(n_neg, fpr, out=fpr)
    np.divide(fpr, n_neg, out=fpr)
    np.add.at(tpr, group[group + 1 < groups] + 1, 1.0)
    np.cumsum(tpr, out=tpr)  # the positives below each group
    np.subtract(n_pos, tpr, out=tpr)
    np.divide(tpr, n_pos, out=tpr)
    return ROCCurve(points=points)


def pooled_auc_protocol(
    queries: QuerySet,
    corpus: Corpus,
    scorer: Scorer,
    top_k: int = 500,
) -> tuple[ScorePool, float]:
    """Pool every query's positive scores with its top_k highest-scoring
    non-positive scores, then compute one AUC over the pool.

    When a query has fewer than top_k non-positives the available ones
    are used. Only score values enter the pool, so boundary ties need no
    id-based tie-breaking here. ``data.top_k_scores`` selects both sides:
    the positives in query and ``positive_ids`` order, then the negatives.
    """
    if top_k < 1:
        raise ValueError(f"top_k must be >= 1, got {top_k}")
    if len(queries) == 0:
        raise ValueError("query set is empty")
    scores = score_matrix(queries, corpus, scorer)
    positives = [corpus.columns(q.positive_ids) for q in queries]
    if full := [q.id for q, cols in zip(queries, positives) if len(cols) >= scores.shape[1]]:
        raise ValueError(f"query {full[0]!r}: corpus has no non-positive documents")
    pool = ScorePool(*map(_read_only, top_k_scores(scores, top_k, positives)))
    return pool, auc(pool)


@dataclass
class RankedList:
    """One query's retrieved ids, best first, plus its relevant-id set."""

    ranked_ids: list[str]
    relevant_ids: set[str] = field(default_factory=set)

    def __post_init__(self):
        if len(set(self.ranked_ids)) != len(self.ranked_ids):
            raise ValueError("ranked_ids contains duplicates")


def _hit_ranks(lists: Sequence[RankedList], k: int) -> list[list[int]]:
    """Per list, the 1-based ranks within its top k that hold a relevant id."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not lists:
        raise ValueError("no ranked lists given")
    return [[rank for rank, doc_id in enumerate(rl.ranked_ids[:k], start=1)
             if doc_id in rl.relevant_ids] for rl in lists]


def _mean(values: Sequence[float]) -> float:
    """Mean of per-query values, summed in query order from zero by a
    running total (``sum`` compensates float sums from Python 3.12 on)."""
    total = 0.0
    for value in values:
        total += value
    return total / len(values)


def mrr_at_k(lists: Sequence[RankedList], k: int = 10) -> float:
    """Mean reciprocal rank of the first relevant hit within the top k;
    queries with no hit contribute 0."""
    return _mean([1.0 / hits[0] if hits else 0.0 for hits in _hit_ranks(lists, k)])


def ranked_lists(
    queries: QuerySet, corpus: Corpus, scorer: Scorer, depth: int = 10
) -> list[RankedList]:
    """Rank the corpus for each query (descending score, ties by ascending
    document id) and keep the top ``depth`` ids."""
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    doc_ids = corpus.ids
    tops = top_k_columns(score_matrix(queries, corpus, scorer), doc_ids, depth)
    return [
        RankedList(ranked_ids=[doc_ids[j] for j in top.tolist()], relevant_ids=set(q.positive_ids))
        for q, top in zip(queries, tops)
    ]


def evaluate(
    scores: np.ndarray | ScoreRows, queries: QuerySet, corpus: Corpus, top_k: int = 500
) -> tuple[ScorePool, dict]:
    """The evaluation bundle over one n_queries x n_docs score matrix: the
    pooled AUC protocol's pool, plus a dict of ``auc``, ``mrr10``,
    ``ndcg10``, ``precision10`` and ``recall1`` (the last four from the
    depth-10 ranked lists). Both selections read one array, so a
    ``ScoreRows`` is scored once."""
    scores = np.asarray(scores, dtype=np.float64)
    pool, auc_value = pooled_auc_protocol(queries, corpus, lambda *_: scores, top_k=top_k)
    lists = ranked_lists(queries, corpus, lambda *_: scores, depth=10)
    # nDCG's gains are binary, and its ideal DCG places every relevant
    # document first; every query has a relevant document
    discounts = 1.0 / np.log2(np.arange(2, 12))
    rr, ndcg, precision, recall = [], [], [], []
    for rl, hits in zip(lists, _hit_ranks(lists, 10)):
        n_rel = len(rl.relevant_ids)
        gains = [float(rank in hits) for rank in range(1, len(rl.ranked_ids) + 1)]
        rr.append(1.0 / hits[0] if hits else 0.0)
        ndcg.append(float(np.dot(gains, discounts[:len(gains)]))
                    / float(discounts[:min(n_rel, 10)].sum()))
        precision.append(len(hits) / 10)
        recall.append(int(1 in hits) / n_rel)
    return pool, {
        "auc": auc_value,
        "mrr10": _mean(rr),
        "ndcg10": _mean(ndcg),
        "precision10": _mean(precision),
        "recall1": _mean(recall),
    }


@dataclass
class Histogram:
    """Equal-width per-side counts over the pooled score range. Bins are
    right-open except the last, so counts sum to the pool sizes."""

    edges: np.ndarray      # bins + 1 edges
    pos_counts: np.ndarray
    neg_counts: np.ndarray

    @property
    def bins(self) -> int:
        return len(self.pos_counts)

    def overlap_coefficient(self) -> float:
        """Shared mass of the two normalized histograms: sum over bins of
        min(pos fraction, neg fraction). 0 = disjoint, 1 = identical."""
        n_pos = self.pos_counts.sum()
        n_neg = self.neg_counts.sum()
        if n_pos == 0 or n_neg == 0:
            raise ValueError("overlap needs scores on both sides")
        return float(np.minimum(self.pos_counts / n_pos, self.neg_counts / n_neg).sum())


def histogram(pool: ScorePool, bins: int) -> Histogram:
    """Bin both sides over [min, max] of the union. A degenerate range
    (all scores identical) puts everything in the first bin.

    A score's bin, min(floor((v - lo) / width), bins - 1), only grows with
    v, so each bin of a sorted side is a run: each edge's ``searchsorted``
    guess at where a run starts is checked by that formula at the guess and
    just before it, and only a wrong guess is bisected."""
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")
    if pool.n_pos == 0 and pool.n_neg == 0:
        raise ValueError("histogram needs a non-empty pool")
    ends = [side[[0, -1]] for side in pool.sorted_sides if len(side)]
    lo, hi = float(np.min(ends)), float(np.max(ends))
    edges = np.linspace(lo, hi, bins + 1)
    width = (hi - lo) / bins

    def bin_of(values):
        return np.minimum(np.floor((values - lo) / width), bins - 1)

    def side_counts(values: np.ndarray) -> np.ndarray:
        n = len(values)
        if not (width and n):
            return np.bincount(np.zeros(n, dtype=np.int64), minlength=bins)
        later = np.arange(1, bins)  # starts[b - 1]: the first value in bin b or later
        starts = np.searchsorted(values, edges[1:-1])
        right = (((starts == n) | (bin_of(values[np.minimum(starts, n - 1)]) >= later))
                 & ((starts == 0) | (bin_of(values[starts - 1]) < later)))
        for b in later[~right].tolist():
            starts[b - 1] = bisect_left(values, b, key=bin_of)
        return np.diff(starts, prepend=0, append=n)

    pos, neg = pool.sorted_sides
    return Histogram(edges=edges, pos_counts=side_counts(pos), neg_counts=side_counts(neg))
