"""Tests for the planted-offset synthetic benchmark."""

import pytest

from mwlab.synthetic import FILLER_TOKEN, SyntheticSpec, make_benchmark


@pytest.mark.parametrize("fields, expected", [
    ({"n_queries": 0}, "at least one query and two documents"),
    ({"n_docs": 1, "n_queries": 1}, "at least one query and two documents"),
    ({"n_queries": 11, "n_docs": 10}, "its own positive document"),
    ({"docs_per_topic": 0}, "topic shape parameters"),
    ({"tokens_per_topic": 0, "doc_topic_tokens": 1, "query_topic_tokens": 1},
     "topic shape parameters"),
    ({"doc_topic_tokens": 0}, "doc_topic_tokens must be in"),
    ({"doc_topic_tokens": 9}, "doc_topic_tokens must be in"),
    ({"query_topic_tokens": 0}, "query_topic_tokens must be in"),
    ({"query_topic_tokens": 7}, "query_topic_tokens must be in"),
    ({"max_filler_repeats": -1}, "max_filler_repeats must be >= 0"),
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


@pytest.mark.parametrize("max_filler_repeats", [0, 5])
def test_planted_structure(max_filler_repeats):
    spec = SyntheticSpec(n_queries=60, n_docs=100, max_filler_repeats=max_filler_repeats)
    corpus, queries = make_benchmark(spec)
    assert corpus.ids == [f"d{d}" for d in range(100)]
    fillers = []
    for i, q in enumerate(queries):
        assert q.id == f"q{i}"
        assert q.positive_ids == [f"d{i}"] and q.hard_negative_ids == []
        words = q.text.split()
        topic_words = [w for w in words if w != FILLER_TOKEN]
        assert len(topic_words) == spec.query_topic_tokens
        # the query keeps words of its positive document, from that document's topic
        assert set(topic_words) <= set(corpus[f"d{i}"].text.split())
        assert all(w.startswith(f"t{i // spec.docs_per_topic}w") for w in topic_words)
        fillers.append(words.count(FILLER_TOKEN))
    # every count lies in 0..max_filler_repeats, and 60 queries reach each one
    assert set(fillers) == set(range(max_filler_repeats + 1))
    for d, doc in enumerate(corpus):
        words = doc.text.split()
        assert words.count(FILLER_TOKEN) == 1 and words[-1] == f"u{d}"
