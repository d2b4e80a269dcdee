"""Corpus and query ingestion, hard-negative mining, and batch sampling.

Data lives in JSONL files: one JSON object per line. A corpus line is
``{"id": str, "text": str}``; a query line is ``{"id": str, "text": str,
"positive_ids": [str], "hard_negative_ids": [str]}`` where the last field
is optional before mining. Mining rewrites the query file with the
``hard_negative_ids`` filled in.

This module owns the byte format of every text file mwlab reads or
writes. ``read_jsonl`` (JSONL) and ``read_json`` (the CLI's --config)
name the file in their errors; ``write_json`` writes sorted-key JSON
indented by 2 with a closing newline; ``write_csv`` writes a float cell
as its ``repr``. Only ``encoder`` reads and writes a file of its own,
the binary checkpoint.

A ``Corpus`` or ``QuerySet`` hashes its texts once per ``hash_dim``
(``tokens``) and keeps that table until it grows, so mining, every
training run and every evaluation of one collection share one table.
Mined and split query sets inherit their parent's rows of those tables.
A training batch is its rows: ``batch_rows`` turns a split's eligible
queries and their document ids into corpus positions once, and
``sample_batch`` draws from those, returning positions in the query set
and the corpus that index the token tables directly.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np
import scipy.sparse as sp

from .encoder import prepare_tokens
from .prng import Xoshiro256StarStar

logger = logging.getLogger(__name__)

# A scorer maps (query set, corpus) to an n_queries x n_docs score matrix.
# It must be total: every pair gets a finite score. An encoder's scorer
# (``encoder.make_scorer``) encodes the two collections' cached token tables.
Scorer = Callable[["QuerySet", "Corpus"], np.ndarray]


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


@dataclass(frozen=True)
class Query:
    """A query with its labeled positives and (possibly unmined) hard negatives.

    Invariants: ``positive_ids`` is non-empty, and no id appears twice in
    ``positive_ids`` and ``hard_negative_ids`` together. Frozen, so a query
    set's cached token table cannot go stale; ``replace`` makes a changed copy.
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


def _read_only(table: sp.csr_matrix) -> sp.csr_matrix:
    for array in (table.data, table.indices, table.indptr):
        array.flags.writeable = False
    return table


class _Collection:
    """An ordered, id-indexed list of items with an ``id`` and a ``text``.

    ``tokens(hash_dim)`` is the token table of the texts, hashed on first
    use and cached on the object until the next ``add``. Its arrays are
    read-only, so no caller can change the table another caller shares.
    """

    kind = ""  # names the item in errors

    def __init__(self, items: Sequence = ()):
        self._items: list = []
        self._by_id: dict[str, int] = {}
        self._tokens: dict[int, sp.csr_matrix] = {}
        for item in items:
            self.add(item)

    def add(self, item) -> None:
        if item.id in self._by_id:
            raise ValueError(f"duplicate {self.kind} id {item.id!r}")
        self._by_id[item.id] = len(self._items)
        self._items.append(item)
        self._tokens.clear()

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator:
        return iter(self._items)

    @property
    def texts(self) -> list[str]:
        return [item.text for item in self._items]

    def tokens(self, hash_dim: int) -> sp.csr_matrix:
        """``prepare_tokens(self.texts, hash_dim)``, computed once."""
        table = self._tokens.get(hash_dim)
        if table is None:
            table = self._tokens[hash_dim] = _read_only(prepare_tokens(self.texts, hash_dim))
        return table

    def _take(self, rows: Sequence[int]):
        """The items at ``rows`` as a new collection that inherits those rows
        of each cached table, wrapped as ``prepare_tokens`` wraps its own."""
        taken = type(self)([self._items[i] for i in rows])
        for hash_dim, table in self._tokens.items():
            sub = table[np.asarray(rows, dtype=np.intp)]
            taken._tokens[hash_dim] = _read_only(sp.csr_matrix(
                (sub.data, sub.indices.astype(np.int64), sub.indptr.astype(np.int64)), sub.shape))
        return taken


class Corpus(_Collection):
    """An ordered, id-indexed collection of documents."""

    kind = "document"

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self._by_id

    def __getitem__(self, doc_id: str) -> Document:
        return self._items[self._by_id[doc_id]]

    def index_of(self, doc_id: str) -> int:
        return self._by_id[doc_id]

    @property
    def ids(self) -> list[str]:
        return [d.id for d in self._items]


class QuerySet(_Collection):
    """An ordered, id-indexed collection of queries."""

    kind = "query"

    def __getitem__(self, i: int) -> Query:
        return self._items[i]


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


def _existing(path: str | Path, what: str) -> Path:
    if not Path(path).exists():
        raise FileNotFoundError(f"{what} file not found: {path}")
    return Path(path)


def read_json(path: str | Path, what: str):
    """The value of a UTF-8 JSON file, with ``read_jsonl``'s errors less the line."""
    path = _existing(path, what)
    try:
        return json.loads(path.read_bytes().decode("utf-8"))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def read_jsonl(path: str | Path, what: str, parse: Callable[[dict], object]) -> list:
    """``parse(obj)`` of each non-blank line of a JSONL file, in order. A
    line that is not UTF-8 JSON, or that ``parse`` rejects with a KeyError,
    TypeError or ValueError, raises ValueError prefixed ``path: line N:``.
    A missing file raises FileNotFoundError naming ``what``."""
    path = _existing(path, what)
    parsed = []
    with open(path, "rb") as f:
        for lineno, line in enumerate(f, start=1):
            try:
                if text := line.decode("utf-8").strip():
                    parsed.append(parse(json.loads(text)))
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from exc
    return parsed


def write_json(path: str | Path, obj) -> None:
    """Write ``obj`` as JSON with sorted keys, indented by 2, and a closing
    newline, creating the parent directory."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _cell(value) -> str:
    # np.float64 is a float whose numpy-2 repr is "np.float64(...)"
    return repr(float(value)) if isinstance(value, float) else str(value)


def write_csv(path: str | Path, header: Iterable[str] | None, rows: Iterable[Iterable]) -> None:
    """Write a CSV file: the header line unless it is None, then one line
    per row. A float cell is its shortest round-trip ``repr``, any other
    cell its ``str``. Creates the parent directory."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        if header is not None:
            f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(map(_cell, row)) + "\n")


def load_corpus(path: str | Path) -> Corpus:
    """Read a corpus JSONL file. Duplicate ids and malformed lines are
    rejected with the offending line number."""
    corpus = Corpus()
    read_jsonl(path, "corpus", lambda obj: corpus.add(Document(id=obj["id"], text=obj["text"])))
    return corpus


def load_queries(path: str | Path, corpus: Corpus) -> QuerySet:
    """Read a query JSONL file, validating all document references."""
    queries = QuerySet()

    def parse(obj: dict) -> None:
        query = Query(id=obj["id"], text=obj["text"], positive_ids=obj["positive_ids"],
                      hard_negative_ids=obj.get("hard_negative_ids", []))
        for doc_id in query.positive_ids + query.hard_negative_ids:
            if doc_id not in corpus:
                raise ValueError(f"query {query.id!r} references unknown document {doc_id!r}")
        queries.add(query)

    read_jsonl(path, "query", parse)
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
    scores = np.asarray(scorer(queries, corpus), dtype=np.float64)
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
    result = QuerySet(mined)
    result._tokens.update(queries._tokens)  # the same texts in the same order
    return result


def eligible_queries(queries: QuerySet, B: int, H: int) -> list[int]:
    """Positions of the queries a (B, H) batch can draw: those with at
    least H mined hard negatives. Raises ValueError when fewer than B are."""
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
    return eligible


@dataclass(frozen=True)
class BatchRows:
    """What (B, H) batches draw from: the eligible queries' positions and,
    per eligible query, the corpus rows of its positives and negatives."""

    B: int
    H: int
    eligible: list[int]
    positives: list[list[int]]
    negatives: list[list[int]]


def batch_rows(queries: QuerySet, corpus: Corpus, B: int, H: int) -> BatchRows:
    """The rows a split's (B, H) batches draw from, built once per split.
    Raises ``eligible_queries``' ValueError when fewer than B can draw."""
    eligible = eligible_queries(queries, B, H)
    chosen = [queries[i] for i in eligible]
    row = corpus.index_of
    return BatchRows(B, H, eligible, [[row(d) for d in q.positive_ids] for q in chosen],
                     [[row(d) for d in q.hard_negative_ids] for q in chosen])


def sample_batch(rows: BatchRows, rng: Xoshiro256StarStar) -> tuple[np.ndarray, np.ndarray]:
    """Draw a training batch as rows: ``(q_rows, p_rows)``, two ``np.intp``
    arrays. ``q_rows`` are B distinct positions of eligible queries;
    ``p_rows`` are corpus positions in scoring-column order: one positive
    per query first, then each query's H hard negatives, query-major, each
    drawn in that order.

    Batches whose sampled positives collide (two queries sharing a positive
    document) are redrawn, so in-batch negatives never silently contain
    another query's positive. ``Query``'s invariant keeps a positive out
    of its own query's hard negatives.
    """
    B, H, positives, negatives = rows.B, rows.H, rows.positives, rows.negatives
    for _ in range(100):
        picked = rng.sample_indices(len(rows.eligible), B)
        p_rows = [positives[i][rng.below(len(positives[i]))] for i in picked]
        if len(set(p_rows)) == B:
            for i in picked:
                negs = negatives[i]
                p_rows += [negs[j] for j in rng.sample_indices(len(negs), H)]
            return (np.array([rows.eligible[i] for i in picked], dtype=np.intp),
                    np.array(p_rows, dtype=np.intp))
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
    return (queries._take(order[:n_train]), queries._take(order[n_train:n_train + n_eval]),
            queries._take(order[n_train + n_eval:]))
