"""Shared helpers for the test suite: oracles and random fixtures.

The oracles here are intentionally naive (brute-force pair loops, direct
formula evaluation, central finite differences, a generator stepped one
draw at a time) and independent of the library's fast paths.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from mwlab import data
from mwlab.encoder import encode_tokens, fnv1a64, prepare_tokens
from mwlab.scoring import ScoreBatch
from mwlab.trainer import ADAM_BETA1, ADAM_BETA2, ADAM_EPS


MASK64 = (1 << 64) - 1


def force_split(monkeypatch, on: bool) -> list:
    """Make every walk of two or more blocks in ``data``'s selections split
    (``on``) or stay on the calling thread, whatever the machine's CPU
    count. Returns the list that gets one entry per executor started."""
    started = []

    class Counted(data.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            started.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(data, "CPUS", 2)
    monkeypatch.setattr(data, "SPLIT_CELLS", 0 if on else 2**62)
    monkeypatch.setattr(data, "ThreadPoolExecutor", Counted)
    return started


def reference_splitmix64_sequence(seed: int, n: int) -> list[int]:
    """The first n splitmix64 outputs, transcribed from the published
    reference algorithm."""
    out = []
    state = seed & MASK64
    for _ in range(n):
        state = (state + 0x9E3779B97F4A7C15) & MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        out.append(z ^ (z >> 31))
    return out


class ReferenceXoshiro:
    """xoshiro256** stepped one draw at a time from a transcription of the
    published reference algorithm, seeded by four splitmix64 outputs. Every
    draw method is a plain loop over ``next_u64``, as the library's methods
    were before they read buffered blocks; ``draws`` counts the raw values
    read."""

    def __init__(self, seed: int):
        self.s = reference_splitmix64_sequence(seed, 4)
        self.spare = None
        self.draws = 0

    def next_u64(self) -> int:
        def rotl(x, k):
            return ((x << k) | (x >> (64 - k))) & MASK64

        s = self.s
        result = (rotl((s[1] * 5) & MASK64, 7) * 9) & MASK64
        t = (s[1] << 17) & MASK64
        s[2] ^= s[0]
        s[3] ^= s[1]
        s[1] ^= s[2]
        s[0] ^= s[3]
        s[2] ^= t
        s[3] = rotl(s[3], 45)
        self.draws += 1
        return result

    def random(self) -> float:
        return (self.next_u64() >> 11) * 2.0 ** -53

    def doubles(self, n: int) -> np.ndarray:
        return np.array([self.random() for _ in range(n)], dtype=np.float64)

    def uniform(self, low: float, high: float, n: int) -> np.ndarray:
        return low + (high - low) * self.doubles(n)

    def below(self, n: int) -> int:
        limit = (1 << 64) - ((1 << 64) % n)
        v = self.next_u64()
        while v >= limit:
            v = self.next_u64()
        return v % n

    def belows(self, bounds) -> np.ndarray:
        return np.array([self.below(b) for b in bounds], dtype=np.uint64)

    def shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]

    def sample_indices(self, n: int, k: int) -> list[int]:
        pool = list(range(n))
        for i in range(k):
            j = i + self.below(n - i)
            pool[i], pool[j] = pool[j], pool[i]
        return pool[:k]

    def normal(self) -> float:
        if self.spare is not None:
            z, self.spare = self.spare, None
            return z
        u1 = 1.0 - self.random()
        u2 = self.random()
        r = math.sqrt(-2.0 * math.log(u1))
        theta = 2.0 * math.pi * u2
        self.spare = r * math.sin(theta)
        return r * math.cos(theta)

    def normals(self, n: int, sigma: float = 1.0) -> np.ndarray:
        return np.array([self.normal() for _ in range(n)]) * sigma


def reference_xoshiro_sequence(seed: int, n: int) -> list[int]:
    """The first n xoshiro256** outputs of ``seed``."""
    gen = ReferenceXoshiro(seed)
    return [gen.next_u64() for _ in range(n)]


def brute_force_u(positives, negatives) -> float:
    """O(n_pos * n_neg) pair count with half-weight ties."""
    u = 0.0
    for p in positives:
        for n in negatives:
            if p > n:
                u += 1.0
            elif p == n:
                u += 0.5
    return u


def naive_mann_whitney_u(pool) -> float:
    """U from midranks assigned by a Python walk over the sorted scores,
    one tie group at a time."""
    scores = np.concatenate([pool.positives, pool.negatives])
    order = np.argsort(scores, kind="stable")
    sorted_scores = scores[order]
    ranks = np.empty(len(scores), dtype=np.float64)
    i = 0
    n = len(scores)
    while i < n:
        j = i
        while j + 1 < n and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    n_pos = pool.n_pos
    return float(ranks[:n_pos].sum()) - n_pos * (n_pos + 1) / 2.0


def naive_roc_curve(pool) -> np.ndarray:
    """ROC points from the distinct scores of the union, descending, with
    each side's count at or above every threshold found by binary search."""
    thresholds = np.unique(np.concatenate([pool.positives, pool.negatives]))[::-1]
    tp = pool.n_pos - np.searchsorted(np.sort(pool.positives), thresholds, side="left")
    fp = pool.n_neg - np.searchsorted(np.sort(pool.negatives), thresholds, side="left")
    points = np.zeros((len(thresholds) + 1, 2))
    points[1:, 0] = fp / pool.n_neg
    points[1:, 1] = tp / pool.n_pos
    return points


def naive_merge_roc(positives, negatives) -> list[tuple[float, float]]:
    """ROC points by Fawcett's Algorithm 1: walk the pooled scores in
    descending order one at a time and, before each new score (``!=``, so
    -0.0 and 0.0 tie) and at the end, emit the rates counted so far."""
    walk = sorted([(v, 1) for v in positives] + [(v, 0) for v in negatives],
                  key=lambda item: -item[0])
    points, tp, fp, previous = [(0.0, 0.0)], 0, 0, None
    for value, is_positive in walk:
        if previous is not None and value != previous:
            points.append((fp / len(negatives), tp / len(positives)))
        tp, fp, previous = tp + is_positive, fp + 1 - is_positive, value
    return points + [(fp / len(negatives), tp / len(positives))]


def naive_histogram_counts(values, lo, hi, bins) -> list[int]:
    """Per-bin counts of equal-width bins over [lo, hi], one value at a
    time; the last bin is closed, and a zero width uses the first bin."""
    counts = [0] * bins
    width = (hi - lo) / bins
    for v in values:
        counts[min(math.floor((v - lo) / width), bins - 1) if width else 0] += 1
    return counts


def brute_force_strict_aoc(positives, negatives) -> float:
    """O(n_pos * n_neg) strictly-misordered fraction."""
    bad = sum(1 for p in positives for n in negatives if p < n)
    return bad / (len(positives) * len(negatives))


def random_unit_rows(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    """Rows uniform on the unit sphere."""
    x = rng.normal(size=(n, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def random_score_batch(
    rng: np.random.Generator, b: int, h: int, tau: float, d: int = 16
) -> ScoreBatch:
    """A ScoreBatch from random unit embeddings."""
    q = random_unit_rows(rng, b, d)
    p = random_unit_rows(rng, b + h * b, d)
    return ScoreBatch(sim=q @ p.T, tau=tau)


def central_difference(f, x: float, h: float) -> float:
    """(f(x + h) - f(x - h)) / 2h."""
    return (f(x + h) - f(x - h)) / (2.0 * h)


def relative_error(a: float, b: float, floor: float = 1e-12) -> float:
    return abs(a - b) / max(abs(a), abs(b), floor)


def softplus(x) -> np.ndarray:
    """log(1 + e^x) without overflow: max(x, 0) + log1p(e^-|x|)."""
    x = np.asarray(x, dtype=np.float64)
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def sigmoid(x) -> np.ndarray:
    """Logistic function, branch-stable at both extremes."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def naive_mw_loss(scores: ScoreBatch) -> tuple[float, np.ndarray]:
    """Unfused Mann-Whitney loss over the full B x |S^-| pair matrix:
    (value, d_sim), with the gradient from sigmoid row and column sums."""
    b = scores.B
    mask = scores.offdiag_mask()
    neg = scores.sim[mask]
    diff = (scores.positives[:, None] - neg[None, :]) / scores.tau
    value = float(softplus(-diff).sum() / b)
    sig = sigmoid(-diff)
    d_sim = np.zeros_like(scores.sim)
    d_sim[np.arange(b), np.arange(b)] = -sig.sum(axis=1) / (b * scores.tau)
    d_sim[mask] += sig.sum(axis=0) / (b * scores.tau)
    return value, d_sim


def naive_mw_pair_sums(pos, neg, tau) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Over the full pair matrix x = (neg_k - pos_i)/tau: row sums of
    softplus(x) and sigmoid(x), and column sums of sigmoid(x)."""
    x = (np.asarray(neg)[None, :] - np.asarray(pos)[:, None]) / tau
    sig = sigmoid(x)
    return softplus(x).sum(axis=1), sig.sum(axis=1), sig.sum(axis=0)


def mw_value_by_rows(scores: ScoreBatch) -> float:
    """The MW loss value summed as per-row sums: one softplus sum per
    positive over all pooled negatives, then the sum of those over B."""
    neg = scores.sim[scores.offdiag_mask()]
    rows = [softplus((neg - p) / scores.tau).sum() for p in scores.positives]
    return float(np.sum(rows) / scores.B)


@dataclass
class OffsetAssignment:
    """One additive score offset per batch query."""

    offsets: np.ndarray

    def __post_init__(self):
        self.offsets = np.asarray(self.offsets, dtype=np.float64).ravel()
        if not np.isfinite(self.offsets).all():
            raise ValueError("offsets must be finite")


def apply_offsets(scores: ScoreBatch, offsets: OffsetAssignment) -> ScoreBatch:
    """Shift every score of query i by offsets[i]: row i of the matrix
    moves uniformly, the partition is unchanged. cl_loss is invariant to
    this; mw_loss is not."""
    if len(offsets.offsets) != scores.B:
        raise ValueError(
            f"need {scores.B} offsets, got {len(offsets.offsets)}"
        )
    return ScoreBatch(sim=scores.sim + offsets.offsets[:, None], tau=scores.tau)


def naive_adam_step(params, grads, state, lr) -> None:
    """Bias-corrected dense Adam written as the formula, one temporary
    per operation; updates params and state in place."""
    state.step += 1
    bc1 = 1.0 - ADAM_BETA1 ** state.step
    bc2 = 1.0 - ADAM_BETA2 ** state.step
    for m, v, g, p in (
        (state.m.embedding, state.v.embedding, grads.embedding, params.embedding),
        (state.m.projection, state.v.projection, grads.projection, params.projection),
    ):
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * np.square(g)
        p -= lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)


def naive_top_k(row, ids, k, exclude=()) -> list[int]:
    """Columns of the k best entries of a score row, by a full Python
    sort on (descending score, ascending id), skipping ``exclude``."""
    skip = set(exclude)
    order = sorted(range(len(row)), key=lambda j: (-row[j], ids[j]))
    return [j for j in order if j not in skip][:k]


def id_ranks(ids) -> np.ndarray:
    """Each column's rank among ``ids`` by a Python sort: the tie key
    ``Corpus.id_ranks`` caches, built without numpy's string arrays."""
    ranks = np.empty(len(ids), dtype=np.intp)
    ranks[sorted(range(len(ids)), key=ids.__getitem__)] = np.arange(len(ids))
    return ranks


def top_k_columns_by_id(scores, ids, k, exclude=None) -> list[np.ndarray]:
    """``data.top_k_columns`` with its tie key ranked from the id strings."""
    return data.top_k_columns(scores, id_ranks(ids), k, exclude)


def naive_pool(scores, queries, corpus, top_k) -> tuple[list[list[float]], list[list[float]]]:
    """Per query, its positive scores in ``positive_ids`` order and its
    top_k largest non-positive scores (all of them when it has fewer),
    each from a full Python sort of the row less its positives."""
    positives, negatives = [], []
    for row, q in zip(scores, queries):
        cols = [corpus.ids.index(d) for d in q.positive_ids]
        positives.append([float(row[j]) for j in cols])
        others = sorted((float(v) for j, v in enumerate(row) if j not in cols), reverse=True)
        negatives.append(others[:top_k])
    return positives, negatives


def naive_list_metrics(scores, queries, corpus) -> dict[str, float]:
    """mrr10, ndcg10, precision10 and recall1 from each query's top 10 by
    ``naive_top_k``, each the per-query values summed in query order by a
    running total, over the number of queries. nDCG's DCG is the dot
    product of the top 10's binary gains with 1 / log2(rank + 1)."""
    ids = corpus.ids
    totals = dict.fromkeys(("mrr10", "ndcg10", "precision10", "recall1"), 0.0)
    for row, q in zip(scores, queries):
        relevant = set(q.positive_ids)
        gains = [1.0 if ids[j] in relevant else 0.0 for j in naive_top_k(row, ids, 10)]
        discounts = 1.0 / np.log2(np.arange(2, len(gains) + 2))
        ideal = 1.0 / np.log2(np.arange(2, min(len(relevant), 10) + 2))
        totals["mrr10"] += 1.0 / (gains.index(1.0) + 1) if 1.0 in gains else 0.0
        totals["ndcg10"] += float(np.dot(gains, discounts)) / float(ideal.sum())
        totals["precision10"] += gains.count(1.0) / 10
        totals["recall1"] += gains[0] / len(relevant)
    return {name: total / len(queries) for name, total in totals.items()}


def naive_token_table(texts, hash_dim):
    """The token table counted one text at a time: each text's lowercased
    alphanumeric runs, hashed on first sight into one map, counted in a dict
    per text, and written in ascending bucket order as count / total."""
    buckets: dict[str, int] = {}
    indptr = [0]
    indices: list[int] = []
    values: list[float] = []
    for text in texts:
        counts: dict[int, int] = {}
        for token in re.findall(r"[^\W_]+", text.lower()):
            bucket = buckets.get(token)
            if bucket is None:
                bucket = buckets[token] = fnv1a64(token) % hash_dim
            counts[bucket] = counts.get(bucket, 0) + 1
        if counts:
            total = sum(counts.values())
            for bucket in sorted(counts):
                indices.append(bucket)
                values.append(counts[bucket] / total)
        indptr.append(len(indices))
    return sp.csr_matrix(
        (np.array(values), np.array(indices, dtype=np.int64), np.array(indptr, dtype=np.int64)),
        shape=(len(texts), hash_dim),
    )


def encode_forward(params, texts):
    """Encode raw texts through a token table hashed afresh for them."""
    return encode_tokens(params, prepare_tokens(texts, params.config.hash_dim))
