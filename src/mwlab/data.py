"""Corpus and query ingestion, hard-negative mining, and batch sampling.

Data lives in JSONL files: one JSON object per line. A corpus line is
``{"id": str, "text": str}``; a query line is ``{"id": str, "text": str,
"positive_ids": [str], "hard_negative_ids": [str]}`` where the last field
is optional before mining. Mining rewrites the query file with the
``hard_negative_ids`` filled in.

A training batch is its rows: ``sample_batch`` returns positions in the
query set and the corpus, which index their token tables directly.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np

from .prng import Xoshiro256StarStar

logger = logging.getLogger(__name__)

# A scorer maps (query texts, document texts) to an n_queries x n_docs
# score matrix. It must be total: every pair gets a finite score.
Scorer = Callable[[Sequence[str], Sequence[str]], np.ndarray]


def _require_str(value, what: str) -> None:
    if not isinstance(value, str):
        raise ValueError(f"{what} must be a string, got {type(value).__name__} {value!r}")


@dataclass(frozen=True)
class Document:
    """A retrievable passage. ``id`` is unique within its corpus."""

    id: str
    text: str

    def __post_init__(self):
        _require_str(self.id, "document id")
        if not self.id:
            raise ValueError("document id must be non-empty")
        _require_str(self.text, f"document {self.id!r}: text")
        if not self.text:
            raise ValueError(f"document {self.id!r}: text must be non-empty")


@dataclass
class Query:
    """A query with its labeled positives and (possibly unmined) hard negatives.

    Invariants: ``positive_ids`` is non-empty, and no id appears twice in
    ``positive_ids`` and ``hard_negative_ids`` together.
    """

    id: str
    text: str
    positive_ids: list[str]
    hard_negative_ids: list[str] = field(default_factory=list)

    def __post_init__(self):
        _require_str(self.id, "query id")
        if not self.id:
            raise ValueError("query id must be non-empty")
        _require_str(self.text, f"query {self.id!r}: text")
        if not (isinstance(self.positive_ids, list) and isinstance(self.hard_negative_ids, list)):
            raise ValueError(f"query {self.id!r}: positive_ids and hard_negative_ids must be lists")
        for doc_id in self.positive_ids + self.hard_negative_ids:
            _require_str(doc_id, f"query {self.id!r}: document id")
        if not self.positive_ids:
            raise ValueError(f"query {self.id!r}: positive_ids must be non-empty")
        for name, ids in (("positive_ids", self.positive_ids),
                          ("hard_negative_ids", self.hard_negative_ids)):
            if len(set(ids)) < len(ids):
                dup = next(d for i, d in enumerate(ids) if d in ids[:i])
                raise ValueError(f"query {self.id!r}: document {dup!r} appears twice in {name}")
        overlap = set(self.positive_ids) & set(self.hard_negative_ids)
        if overlap:
            raise ValueError(
                f"query {self.id!r}: ids {sorted(overlap)} are both positive "
                f"and hard negative"
            )


class Corpus:
    """An ordered, id-indexed collection of documents."""

    def __init__(self, documents: Sequence[Document] = ()):
        self._docs: list[Document] = []
        self._by_id: dict[str, int] = {}
        for doc in documents:
            self.add(doc)

    def add(self, doc: Document) -> None:
        if doc.id in self._by_id:
            raise ValueError(f"duplicate document id {doc.id!r}")
        self._by_id[doc.id] = len(self._docs)
        self._docs.append(doc)

    def __len__(self) -> int:
        return len(self._docs)

    def __iter__(self) -> Iterator[Document]:
        return iter(self._docs)

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self._by_id

    def __getitem__(self, doc_id: str) -> Document:
        return self._docs[self._by_id[doc_id]]

    def index_of(self, doc_id: str) -> int:
        return self._by_id[doc_id]

    @property
    def ids(self) -> list[str]:
        return [d.id for d in self._docs]

    @property
    def texts(self) -> list[str]:
        return [d.text for d in self._docs]


class QuerySet:
    """An ordered, id-indexed collection of queries."""

    def __init__(self, queries: Sequence[Query] = ()):
        self._queries: list[Query] = []
        self._by_id: dict[str, int] = {}
        for q in queries:
            self.add(q)

    def add(self, query: Query) -> None:
        if query.id in self._by_id:
            raise ValueError(f"duplicate query id {query.id!r}")
        self._by_id[query.id] = len(self._queries)
        self._queries.append(query)

    def __len__(self) -> int:
        return len(self._queries)

    def __iter__(self) -> Iterator[Query]:
        return iter(self._queries)

    def __getitem__(self, i: int) -> Query:
        return self._queries[i]

    @property
    def texts(self) -> list[str]:
        return [q.text for q in self._queries]


# The split `mwlab train` and `ablate` use by default and `compare` always uses.
TRAIN_FRACTION = 0.8
EVAL_FRACTION = 0.1


@dataclass(frozen=True)
class SplitSpec:
    """Deterministic train/eval/test split by fractions of the query set."""

    train_fraction: float
    eval_fraction: float
    seed: int

    def __post_init__(self):
        if not (0 < self.train_fraction < 1 and 0 < self.eval_fraction < 1):
            raise ValueError("fractions must lie in (0, 1)")
        if self.train_fraction + self.eval_fraction >= 1:
            raise ValueError("train and eval fractions must leave room for a test split")


def load_corpus(path: str | Path) -> Corpus:
    """Read a corpus JSONL file. Duplicate ids and malformed lines are
    rejected with the offending line number."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"corpus file not found: {path}")
    corpus = Corpus()
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                doc = Document(id=obj["id"], text=obj["text"])
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from exc
            try:
                corpus.add(doc)
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from exc
    return corpus


def load_queries(path: str | Path, corpus: Corpus) -> QuerySet:
    """Read a query JSONL file, validating all document references."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"query file not found: {path}")
    queries = QuerySet()
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                query = Query(
                    id=obj["id"],
                    text=obj["text"],
                    positive_ids=obj["positive_ids"],
                    hard_negative_ids=obj.get("hard_negative_ids", []),
                )
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from exc
            for doc_id in query.positive_ids + query.hard_negative_ids:
                if doc_id not in corpus:
                    raise ValueError(
                        f"{path}: line {lineno}: query {query.id!r} references "
                        f"unknown document {doc_id!r}"
                    )
            try:
                queries.add(query)
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from exc
    return queries


def save_queries(queries: QuerySet, path: str | Path) -> None:
    """Write a query JSONL file (the format ``load_queries`` reads)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        for q in queries:
            obj = {
                "id": q.id,
                "text": q.text,
                "positive_ids": q.positive_ids,
                "hard_negative_ids": q.hard_negative_ids,
            }
            f.write(json.dumps(obj, sort_keys=True) + "\n")


def score_matrix(queries: QuerySet, corpus: Corpus, scorer: Scorer) -> np.ndarray:
    """The scorer's n_queries x n_docs matrix, checked for shape."""
    scores = np.asarray(scorer(queries.texts, corpus.texts), dtype=np.float64)
    if scores.shape != (len(queries), len(corpus)):
        raise ValueError(
            f"scorer returned shape {scores.shape}, "
            f"expected {(len(queries), len(corpus))}"
        )
    return scores


def top_k_columns(
    scores: np.ndarray,
    doc_ids: Sequence[str],
    k: int,
    exclude: Sequence[Sequence[int]] | None = None,
) -> list[np.ndarray]:
    """Per row, the columns of its k best documents, best first: descending
    score, ties by ascending document id. Row i skips the columns in
    ``exclude[i]``; a row with fewer than k columns left returns them all.

    With m = k + |exclude[i]|, a row sorts only its candidates: the columns
    scoring at least its m-th best score. Ties at that boundary stay in, and
    unique ids make the order total, so the sorted candidates begin with the
    first m columns of the sorted row. An all-equal row sorts every column.
    """
    # rank of each column when ids are sorted ascending: the tie key
    id_rank = np.argsort(np.argsort(np.array(doc_ids), kind="stable"), kind="stable")
    n = scores.shape[1]
    out = []
    for i, row in enumerate(scores):
        skip = () if exclude is None else exclude[i]
        m = k + len(skip)
        cand = np.flatnonzero(row >= np.partition(row, n - m)[n - m]) if 0 < m < n else np.arange(n)
        head = cand[np.lexsort((id_rank[cand], -row[cand]))[:m]]
        out.append(head if exclude is None else head[~np.isin(head, skip)][:k])
    return out


def mine_hard_negatives(
    queries: QuerySet, corpus: Corpus, scorer: Scorer, k: int
) -> QuerySet:
    """Attach the k highest-scoring non-positive documents to each query.

    Ties are broken by ascending document id so the result is identical
    across platforms. Queries with fewer than k available negatives get
    all of them and a logged warning. The input QuerySet is not modified.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    scores = score_matrix(queries, corpus, scorer)
    doc_ids = corpus.ids
    positives = [[corpus.index_of(d) for d in q.positive_ids] for q in queries]
    mined = []
    for q, chosen in zip(queries, top_k_columns(scores, doc_ids, k, exclude=positives)):
        if len(chosen) < k:
            logger.warning(
                "query %r: only %d negatives available (requested %d)",
                q.id, len(chosen), k,
            )
        mined.append(replace(q, hard_negative_ids=[doc_ids[j] for j in chosen]))
    return QuerySet(mined)


def sample_batch(
    queries: QuerySet, corpus: Corpus, B: int, H: int, rng: Xoshiro256StarStar
) -> tuple[np.ndarray, np.ndarray]:
    """Draw a training batch as rows: ``(q_rows, p_rows)``, two ``np.intp``
    arrays. ``q_rows`` are B distinct positions in ``queries``; ``p_rows``
    are positions in ``corpus`` in scoring-column order: one positive per
    query first, then each query's H hard negatives, query-major.

    Only queries with at least H mined hard negatives are eligible. Batches
    whose sampled positives collide (two queries sharing a positive
    document) are redrawn, so in-batch negatives never silently contain
    another query's positive. ``Query``'s invariant keeps a positive out of
    its own query's hard negatives.
    """
    if B < 2:
        raise ValueError(f"B must be >= 2, got {B}")
    if H < 0:
        raise ValueError(f"H must be >= 0, got {H}")
    eligible = [i for i, q in enumerate(queries) if len(q.hard_negative_ids) >= H]
    if len(eligible) < B:
        raise ValueError(
            f"need {B} eligible queries (>= {H} hard negatives each), "
            f"have {len(eligible)}"
        )
    for _ in range(100):
        picked = [eligible[i] for i in rng.sample_indices(len(eligible), B)]
        chosen = [queries[i] for i in picked]
        positives = [q.positive_ids[rng.below(len(q.positive_ids))] for q in chosen]
        if len(set(positives)) == B:
            negatives = [q.hard_negative_ids[j] for q in chosen
                         for j in rng.sample_indices(len(q.hard_negative_ids), H)]
            p_rows = [corpus.index_of(d) for d in positives + negatives]
            return np.array(picked, dtype=np.intp), np.array(p_rows, dtype=np.intp)
    raise ValueError(
        f"could not draw {B} queries with distinct positives after 100 attempts"
    )


def split_queries(
    queries: QuerySet, spec: SplitSpec
) -> tuple[QuerySet, QuerySet, QuerySet]:
    """Shuffle deterministically and cut into (train, eval, test)."""
    rng = Xoshiro256StarStar(spec.seed)
    order = list(range(len(queries)))
    rng.shuffle(order)
    n = len(queries)
    n_train = int(round(n * spec.train_fraction))
    n_eval = int(round(n * spec.eval_fraction))
    n_train = min(n_train, n)
    n_eval = min(n_eval, n - n_train)
    train = QuerySet([queries[i] for i in order[:n_train]])
    eval_ = QuerySet([queries[i] for i in order[n_train:n_train + n_eval]])
    test = QuerySet([queries[i] for i in order[n_train + n_eval:]])
    return train, eval_, test
