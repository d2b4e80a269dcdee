"""Synthetic benchmarks with planted per-query score offsets.

``make_benchmark`` builds a topical corpus where the softmax contrastive
objective's blind spot is baked in: every document carries the same
filler token, and each query repeats that filler a random number of
times. The filler direction adds a roughly constant amount to all of a
query's similarities, which leaves per-query ranking (and therefore the
softmax loss) almost untouched but scrambles scores across queries. An
objective that only compares scores within a query has no incentive to
unlearn the filler; one that compares scores across queries does.

``make_offset_demo_pools`` builds per-query score pools with clean
separation, the starting point for the Gaussian-offset degradation demo.
"""

from __future__ import annotations

from dataclasses import dataclass

from .data import Corpus, Document, Query, QuerySet
from .metrics import ScorePool
from .prng import Xoshiro256StarStar


@dataclass(frozen=True)
class SyntheticSpec:
    """Shape of the planted benchmark.

    Documents are grouped into topics (``docs_per_topic`` each) and carry
    ``doc_topic_tokens`` draws from their topic's vocabulary plus one
    filler token. Each query is built from a distinct document: it keeps
    ``query_topic_tokens`` of that document's topic vocabulary and
    repeats the filler 0..``max_filler_repeats`` times (the planted
    offset). Same-topic documents act as natural hard negatives.
    """

    n_queries: int = 2000
    n_docs: int = 5000
    docs_per_topic: int = 10
    tokens_per_topic: int = 8
    doc_topic_tokens: int = 6
    query_topic_tokens: int = 3
    max_filler_repeats: int = 12
    seed: int = 0

    def __post_init__(self):
        if self.n_queries < 1 or self.n_docs < 2:
            raise ValueError("need at least one query and two documents")
        if self.n_queries > self.n_docs:
            raise ValueError("each query needs its own positive document")
        if self.docs_per_topic < 1 or self.tokens_per_topic < 1:
            raise ValueError("topic shape parameters must be >= 1")
        if not (1 <= self.doc_topic_tokens <= self.tokens_per_topic):
            raise ValueError("doc_topic_tokens must be in 1..tokens_per_topic")
        if not (1 <= self.query_topic_tokens <= self.doc_topic_tokens):
            raise ValueError("query_topic_tokens must be in 1..doc_topic_tokens")
        if self.max_filler_repeats < 0:
            raise ValueError("max_filler_repeats must be >= 0")


FILLER_TOKEN = "filler"


def make_benchmark(spec: SyntheticSpec) -> tuple[Corpus, QuerySet]:
    """Generate the corpus and query set for a SyntheticSpec.

    Query i's positive is document i (queries cover the first n_queries
    documents), so in-batch positives are always distinct.
    """
    rng = Xoshiro256StarStar(spec.seed)
    docs = []
    doc_topic_words: list[list[str]] = []
    for d in range(spec.n_docs):
        topic = d // spec.docs_per_topic
        vocab = [f"t{topic}w{j}" for j in range(spec.tokens_per_topic)]
        idx = rng.sample_indices(spec.tokens_per_topic, spec.doc_topic_tokens)
        words = [vocab[j] for j in idx]
        doc_topic_words.append(words)
        text = " ".join(words + [FILLER_TOKEN, f"u{d}"])
        docs.append(Document(id=f"d{d}", text=text))
    corpus = Corpus(docs)

    queries = []
    for i in range(spec.n_queries):
        kept = rng.sample_indices(spec.doc_topic_tokens, spec.query_topic_tokens)
        words = [doc_topic_words[i][j] for j in kept]
        repeats = rng.below(spec.max_filler_repeats + 1)
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
