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
    documents), so in-batch positives are always distinct.
    """
    rng = Xoshiro256StarStar(spec.seed)
    docs = []
    doc_topic_words: list[list[str]] = []
    for d in range(spec.n_docs):
        topic = d // DOCS_PER_TOPIC
        vocab = [f"t{topic}w{j}" for j in range(TOKENS_PER_TOPIC)]
        idx = rng.sample_indices(TOKENS_PER_TOPIC, DOC_TOPIC_TOKENS)
        words = [vocab[j] for j in idx]
        doc_topic_words.append(words)
        text = " ".join(words + [FILLER_TOKEN, f"u{d}"])
        docs.append(Document(id=f"d{d}", text=text))
    corpus = Corpus(docs)

    queries = []
    for i in range(spec.n_queries):
        kept = rng.sample_indices(DOC_TOPIC_TOKENS, QUERY_TOPIC_TOKENS)
        words = [doc_topic_words[i][j] for j in kept]
        repeats = rng.below(MAX_FILLER_REPEATS + 1)
        text = " ".join(words + [FILLER_TOKEN] * repeats)
        queries.append(Query(id=f"q{i}", text=text, positive_ids=[f"d{i}"]))
    return corpus, QuerySet(queries)


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
