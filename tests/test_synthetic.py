"""Tests for the planted-offset synthetic benchmark."""

import pytest

from mwlab.synthetic import (DOCS_PER_TOPIC, FILLER_TOKEN, MAX_FILLER_REPEATS,
                             QUERY_TOPIC_TOKENS, SyntheticSpec, make_benchmark)


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
        assert set(topic_words) <= set(corpus[f"d{i}"].text.split())
        assert all(w.startswith(f"t{i // DOCS_PER_TOPIC}w") for w in topic_words)
        fillers.append(words.count(FILLER_TOKEN))
    # every count lies in 0..MAX_FILLER_REPEATS, and 60 queries reach each one
    assert set(fillers) == set(range(MAX_FILLER_REPEATS + 1))
    for d, doc in enumerate(corpus):
        words = doc.text.split()
        assert words.count(FILLER_TOKEN) == 1 and words[-1] == f"u{d}"
