"""Tests for the planted-offset synthetic benchmark."""

import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mwlab.prng import Xoshiro256StarStar, derive_seed
from mwlab.synthetic import (DOC_TOPIC_TOKENS, DOCS_PER_TOPIC, FILLER_TOKEN, MAX_FILLER_REPEATS,
                             QUERY_TOPIC_TOKENS, TOKENS_PER_TOPIC, SyntheticSpec, make_benchmark,
                             make_offset_demo_pools)
from util import ReferenceXoshiro


@pytest.mark.parametrize("fields, expected", [
    ({"n_queries": 0}, "at least one query and two documents"),
    ({"n_docs": 1, "n_queries": 1}, "at least one query and two documents"),
    ({"n_queries": 11, "n_docs": 10}, "its own positive document"),
])
def test_spec_validation(fields, expected):
    with pytest.raises(ValueError, match=expected):
        SyntheticSpec(**{"n_queries": 10, "n_docs": 30, **fields})


def snapshot(spec):
    corpus, queries = make_benchmark(spec)
    return ([(d.id, d.text) for d in corpus],
            [(q.id, q.text, q.positive_ids, q.hard_negative_ids) for q in queries])


def test_make_benchmark_is_deterministic_per_seed():
    spec = SyntheticSpec(n_queries=40, n_docs=90, seed=3)
    assert snapshot(spec) == snapshot(SyntheticSpec(n_queries=40, n_docs=90, seed=3))
    assert snapshot(spec) != snapshot(SyntheticSpec(n_queries=40, n_docs=90, seed=4))


def scalar_benchmark(spec):
    """The planted texts with every draw taken one at a time from the
    reference generator: each document's sample_indices in turn, then each
    query's sample_indices and its filler count."""
    rng = ReferenceXoshiro(spec.seed)
    doc_words = []
    for d in range(spec.n_docs):
        vocab = [f"t{d // DOCS_PER_TOPIC}w{j}" for j in range(TOKENS_PER_TOPIC)]
        doc_words.append([vocab[j] for j in rng.sample_indices(TOKENS_PER_TOPIC, DOC_TOPIC_TOKENS)])
    docs = [" ".join(words + [FILLER_TOKEN, f"u{d}"]) for d, words in enumerate(doc_words)]
    queries = []
    for i in range(spec.n_queries):
        words = [doc_words[i][j] for j in rng.sample_indices(DOC_TOPIC_TOKENS, QUERY_TOPIC_TOKENS)]
        queries.append(" ".join(words + [FILLER_TOKEN] * rng.below(MAX_FILLER_REPEATS + 1)))
    return docs, queries


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), n_docs=st.integers(2, 60), data=st.data())
def test_bulk_draws_equal_draws_taken_one_at_a_time(seed, n_docs, data):
    spec = SyntheticSpec(data.draw(st.integers(1, n_docs)), n_docs, seed)
    corpus, queries = make_benchmark(spec)
    assert (corpus.texts, queries.texts) == scalar_benchmark(spec)


@pytest.mark.parametrize("n_queries, n_docs, digest", [
    (400, 1000, "62f47dcd7556cc104a353151425d0ce18044c2f112e61d9361c2f3c762bf2bf8"),
    (2000, 5000, "09895b55a622753f35b9165874b36d05010cc44879b8b7e548cdccd11ee1510e"),
])
def test_make_benchmark_golden(n_queries, n_docs, digest):
    # recorded from the generator drawn one value at a time
    corpus, queries = make_benchmark(SyntheticSpec(n_queries, n_docs, derive_seed(0, 10)))
    rows = [[d.id, d.text] for d in corpus] + [[q.id, q.text, q.positive_ids] for q in queries]
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == digest


@pytest.mark.parametrize("seed", [0, 5])
def test_planted_structure(seed):
    corpus, queries = make_benchmark(SyntheticSpec(n_queries=60, n_docs=100, seed=seed))
    assert corpus.ids == [f"d{d}" for d in range(100)]
    fillers = []
    for i, q in enumerate(queries):
        assert q.id == f"q{i}"
        assert q.positive_ids == [f"d{i}"] and q.hard_negative_ids == []
        words = q.text.split()
        topic_words = [w for w in words if w != FILLER_TOKEN]
        assert len(topic_words) == QUERY_TOPIC_TOKENS
        # the query keeps words of its positive document, from that document's topic
        assert set(topic_words) <= set(corpus.texts[corpus.ids.index(f"d{i}")].split())
        assert all(w.startswith(f"t{i // DOCS_PER_TOPIC}w") for w in topic_words)
        fillers.append(words.count(FILLER_TOKEN))
    # every count lies in 0..MAX_FILLER_REPEATS, and 60 queries reach each one
    assert set(fillers) == set(range(MAX_FILLER_REPEATS + 1))
    for d, doc in enumerate(corpus):
        words = doc.text.split()
        assert words.count(FILLER_TOKEN) == 1 and words[-1] == f"u{d}"


@pytest.mark.parametrize("n_queries", [0, -2])
def test_demo_pools_need_a_query(n_queries):
    with pytest.raises(ValueError, match="need at least one query"):
        make_offset_demo_pools(n_queries, Xoshiro256StarStar(0))
