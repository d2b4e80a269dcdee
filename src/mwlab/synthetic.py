"""Synthetic benchmarks with planted per-query score offsets.

``make_benchmark`` builds a topical corpus where the softmax contrastive
objective's blind spot is baked in: every document carries the same
filler token, and each query repeats that filler a random number of
times. The filler direction adds a roughly constant amount to all of a
query's similarities, which leaves per-query ranking (and therefore the
softmax loss) almost untouched but scrambles scores across queries. An
objective that only compares scores within a query has no incentive to
unlearn the filler; one that compares scores across queries does.
Module constants fix the shape; a ``SyntheticSpec`` sets size and seed.

``make_offset_demo_pools`` builds per-query score pools with clean
separation, the starting point for the Gaussian-offset degradation demo.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Corpus, Document, Query, QuerySet
from .metrics import ScorePool
from .prng import Xoshiro256StarStar


# The planted benchmark's shape. Documents fall into topics of DOCS_PER_TOPIC
# and carry DOC_TOPIC_TOKENS of their topic's TOKENS_PER_TOPIC words plus
# FILLER_TOKEN; a query keeps QUERY_TOPIC_TOKENS of its own document's words
# and repeats the filler 0..MAX_FILLER_REPEATS times (the planted offset).
# Same-topic documents act as natural hard negatives.
FILLER_TOKEN = "filler"
DOCS_PER_TOPIC = 10
TOKENS_PER_TOPIC = 8
DOC_TOPIC_TOKENS = 6
QUERY_TOPIC_TOKENS = 3
MAX_FILLER_REPEATS = 12


@dataclass(frozen=True)
class SyntheticSpec:
    """Size and seed of a planted benchmark; its shape is the module's."""

    n_queries: int = 2000
    n_docs: int = 5000
    seed: int = 0

    def __post_init__(self):
        if self.n_queries < 1 or self.n_docs < 2:
            raise ValueError("need at least one query and two documents")
        if self.n_queries > self.n_docs:
            raise ValueError("each query needs its own positive document")


def make_benchmark(spec: SyntheticSpec) -> tuple[Corpus, QuerySet]:
    """Generate the corpus and query set for a SyntheticSpec.

    Query i's positive is document i (queries cover the first n_queries
    documents), so in-batch positives are always distinct. The draws come
    in two bulk reads: every document's sample_indices draws in turn, then
    every query's sample_indices draws and filler count in turn.
    """
    rng = Xoshiro256StarStar(spec.seed)
    vocab = [[f"t{t}w{j}" for j in range(TOKENS_PER_TOPIC)]
             for t in range(-(-spec.n_docs // DOCS_PER_TOPIC))]
    picked = _sample_rows(rng, spec.n_docs, TOKENS_PER_TOPIC, DOC_TOPIC_TOKENS)[0]
    corpus = Corpus([Document(f"d{d}", " ".join(
        [*map(vocab[d // DOCS_PER_TOPIC].__getitem__, row), FILLER_TOKEN, f"u{d}"]))
        for d, row in enumerate(picked.tolist())])
    kept, repeats = _sample_rows(rng, spec.n_queries, DOC_TOPIC_TOKENS, QUERY_TOPIC_TOKENS,
                                 MAX_FILLER_REPEATS + 1)
    words = np.take_along_axis(picked[:spec.n_queries], kept, axis=1)
    return corpus, QuerySet([Query(f"q{i}", " ".join(
        [*map(vocab[i // DOCS_PER_TOPIC].__getitem__, row), *[FILLER_TOKEN] * r]), [f"d{i}"])
        for i, (row, r) in enumerate(zip(words.tolist(), repeats.tolist()))])


def _sample_rows(rng: Xoshiro256StarStar, rows: int, n: int, k: int, *extra: int):
    """Per row, the draws of ``rng.sample_indices(n, k)``, then of ``below(b)``
    per b in ``extra``, in one ``belows`` read: the rows x k samples, shuffled
    over all rows at once, then one column of draws per extra bound."""
    draws = rng.belows(np.tile([*range(n, n - k, -1), *extra], rows)).astype(np.intp)
    draws = draws.reshape(rows, k + len(extra))
    pool = np.tile(np.arange(n), (rows, 1))
    every = np.arange(rows)
    for i in range(k):  # swap position i with i + below(n - i), as sample_indices does
        j = i + draws[:, i]
        pool[every, i], pool[every, j] = pool[every, j], pool[every, i]
    return pool[:, :k], *draws[:, k:].T


DEMO_POSITIVES = 2
DEMO_NEGATIVES = 10


def make_offset_demo_pools(n_queries: int, rng: Xoshiro256StarStar) -> list[ScorePool]:
    """Per-query pools with well-separated, bounded scores: ``DEMO_POSITIVES``
    positives in (0.4, 0.9) and ``DEMO_NEGATIVES`` negatives in (-0.9, 0.1).
    Pooled strict AoC starts at 0."""
    if n_queries < 1:
        raise ValueError("need at least one query")
    pools = []
    for _ in range(n_queries):
        pos = rng.uniform(0.4, 0.9, DEMO_POSITIVES)
        neg = rng.uniform(-0.9, 0.1, DEMO_NEGATIVES)
        pools.append(ScorePool(pos, neg))
    return pools
