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
A ``Corpus`` keeps the tie key of its columns, ``id_ranks``, the same way.
Mined and split query sets inherit their parent's rows of those tables.

This module owns the columns of a score matrix and every selection over
it: ``Corpus.columns`` is the one map from document ids to columns, and
``top_k_columns`` (mining, ranked lists) and ``top_k_scores`` (the
pooled AUC protocol) walk the rows in blocks of ``BLOCK_ROWS`` (``_walk``),
scoring an encoder's ``ScoreRows`` one block at a time into a buffer the
calling thread allocated. A walk of at least ``SPLIT_CELLS`` cells and
two blocks walks its second half of the blocks on a worker thread of its
own when the process may use two CPUs; each block is the same code on the
same cells, so no output bit depends on the split. A training batch is its
rows: ``batch_rows`` checks a split against (B, H) and maps its eligible
queries, those with at least H hard negatives, to corpus positions once,
and ``sample_batch`` draws positions in the query set and the corpus
that index the token tables directly.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from contextvars import copy_context
from itertools import accumulate
from dataclasses import asdict, dataclass, field, replace
from functools import cached_property
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np
import scipy.sparse as sp

from .encoder import BLOCK_ROWS, ScoreRows, prepare_tokens
from .prng import Xoshiro256StarStar

# the CPUs this process may run on, read once: a selection's walk and
# objectives' MW kernel use a second core only when there are two
CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
# fewest cells (rows x columns) for which one walk of top_k_scores or
# top_k_columns uses a second core. Measured on 2 cores over 5000 columns:
# the split saves 20-40% from 5M cells (1000 rows) on, swings from -25% to
# +40% run to run at 3M (600 rows) and costs up to 40% at 0.4M (400 x 1000)
SPLIT_CELLS = 1 << 22

# A scorer maps (query set, corpus) to an n_queries x n_docs score matrix,
# an array or a ``ScoreRows``, that gives every pair a finite score. An
# encoder's (``encoder.make_scorer``) scores the cached token tables.
Scorer = Callable[["QuerySet", "Corpus"], np.ndarray | ScoreRows]


def _require_str(value, what: str, *args, empty: bool = True) -> None:
    """ValueError naming ``what % args`` unless ``value`` is a str, non-empty unless ``empty``."""
    if not isinstance(value, str):
        raise ValueError(f"{what % args} must be a string, got {type(value).__name__} {value!r}")
    if not (value or empty):
        raise ValueError(f"{what % args} must be non-empty")


@dataclass(frozen=True)
class Document:
    """A retrievable passage. ``id`` is unique within its corpus."""

    id: str
    text: str

    def __post_init__(self):
        _require_str(self.id, "document id", empty=False)
        _require_str(self.text, "document %r: text", self.id, empty=False)


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
        _require_str(self.id, "query id", empty=False)
        _require_str(self.text, "query %r: text", self.id)
        if not (isinstance(self.positive_ids, list) and isinstance(self.hard_negative_ids, list)):
            raise ValueError(f"query {self.id!r}: positive_ids and hard_negative_ids must be lists")
        for doc_id in (doc_ids := self.positive_ids + self.hard_negative_ids):
            if not isinstance(doc_id, str):  # a call per id would cost more than the check
                _require_str(doc_id, "query %r: document id", self.id)
        if not self.positive_ids:
            raise ValueError(f"query {self.id!r}: positive_ids must be non-empty")
        if len(set(doc_ids)) < len(doc_ids):  # a repeat within a list, or an overlap
            for name, ids in (("positive_ids", self.positive_ids),
                              ("hard_negative_ids", self.hard_negative_ids)):
                if len(set(ids)) < len(ids):
                    d = next(x for i, x in enumerate(ids) if x in ids[:i])
                    raise ValueError(f"query {self.id!r}: document {d!r} appears twice in {name}")
            both = sorted(set(self.positive_ids) & set(self.hard_negative_ids))
            raise ValueError(f"query {self.id!r}: ids {both} are both positive and hard negative")


def _read_only(table: sp.csr_matrix | np.ndarray) -> sp.csr_matrix | np.ndarray:
    for array in (table.data, table.indices, table.indptr) if sp.issparse(table) else [table]:
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
        self.__dict__.pop("id_ranks", None)  # a Corpus's cached tie key

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
    """An ordered, id-indexed collection of documents that owns their tie key."""

    kind = "document"

    @cached_property
    def id_ranks(self) -> np.ndarray:
        """The tie key: each column's rank in Python's order of the ids (numpy's
        ``<U`` drops trailing NULs). Read-only, cached until ``add``."""
        ids = self.ids
        return _read_only(np.argsort(sorted(range(len(ids)), key=ids.__getitem__)))

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self._by_id

    def columns(self, doc_ids: Iterable[str]) -> list[int]:
        """The positions of ``doc_ids``, in order: their columns in a score
        matrix against this corpus. An unknown id raises KeyError."""
        return [self._by_id[d] for d in doc_ids]

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
    # bytes.splitlines ends a line at \n, \r\n or \r, as text mode does
    for lineno, line in enumerate(path.read_bytes().splitlines(), start=1):
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
        for q in queries:  # a query's fields are its line's keys
            f.write(json.dumps(asdict(q), sort_keys=True) + "\n")


def score_matrix(queries: QuerySet, corpus: Corpus, scorer: Scorer) -> np.ndarray | ScoreRows:
    """The scorer's n_queries x n_docs matrix, checked for shape: a
    ``ScoreRows`` as it is, scored a block at a time, else a float array."""
    scores = scorer(queries, corpus)
    if not isinstance(scores, ScoreRows):
        scores = np.asarray(scores, dtype=np.float64)
    if scores.shape != (len(queries), len(corpus)):
        raise ValueError(f"scorer returned shape {scores.shape}, "
                         f"expected {(len(queries), len(corpus))}")
    return scores


def _row_blocks(shape: tuple[int, int], exclude: Sequence[Sequence[int]] | None) -> list:
    """Per block of ``BLOCK_ROWS`` rows, ``(start, stop, rows, cols)``: its
    rows [start, stop), and the block row and column of each excluded
    cell, in ``exclude`` order. ``exclude[i]`` lists row i's columns, ints
    in [0, n) (else ValueError), or None none."""
    n_rows, n = shape
    counts = [0] * n_rows if exclude is None else [len(s) for s in exclude]
    flat = [] if exclude is None else [j for s in exclude for j in s]
    if bad := [j for j in flat if not 0 <= j < n or j % 1]:
        raise ValueError(f"exclude holds {bad[0]!r}, not a column index in [0, {n})")
    first = [0, *accumulate(counts)]  # row i's cells are [first[i], first[i + 1])
    rows, cols = np.repeat(np.arange(n_rows), counts), np.array(flat, dtype=np.intp)
    return [(s, e, rows[first[s]:first[e]] - s, cols[first[s]:first[e]])
            for s in range(0, n_rows, BLOCK_ROWS) for e in [min(s + BLOCK_ROWS, n_rows)]]


def _walk(scores: np.ndarray | ScoreRows, blocks: list, select: Callable,
          scratch: Callable = lambda rows: ()) -> list:
    """``select(start, block, rows, cols, *buffers)`` for each of
    ``_row_blocks``' blocks, in block order, where ``buffers`` are the
    walker's ``scratch(rows)`` for blocks of up to that many rows. An
    array's block is a view; a ``ScoreRows`` block is scored into the
    walker's block buffer when the walk reaches it.

    A walk of ``SPLIT_CELLS`` or more cells and two or more blocks, when
    the process may use two CPUs, runs its second half of the blocks on a
    one-thread executor of its own while the calling thread walks the
    first half, as ``objectives``' MW kernel splits its pairs. The calling
    thread allocates both walkers' buffers, since a thread's malloc arena
    keeps what it freed, and waits for the worker before it returns or
    raises. Each block is the same code on the same cells, so no bit
    depends on the split."""
    n_rows, n = scores.shape
    split = len(blocks) >= 2 and n_rows * n >= SPLIT_CELLS and CPUS >= 2
    half = (len(blocks) + 1) // 2
    b = min(BLOCK_ROWS, n_rows)
    walkers = [(np.empty((b, n) if isinstance(scores, ScoreRows) else 0), scratch(b))
               for _ in range(1 + split)]

    def walk(part: list, buffer: np.ndarray, buffers: tuple) -> list:
        return [select(start, scores.product(slice(start, stop), out=buffer[:stop - start])
                       if isinstance(scores, ScoreRows) else scores[start:stop],
                       rows, cols, *buffers)
                for start, stop, rows, cols in part]

    if not split:
        return walk(blocks, *walkers[0])
    # leaving the block waits for the worker, which writes into the
    # caller's outputs, also when the first half raises
    with ThreadPoolExecutor(1) as pool:
        # in the caller's context, so its numpy error state holds there too
        second = pool.submit(copy_context().run, walk, blocks[half:], *walkers[1])
        first = walk(blocks[:half], *walkers[0])
    return first + second.result()


def top_k_columns(
    scores: np.ndarray | ScoreRows,
    id_ranks: np.ndarray,
    k: int,
    exclude: Sequence[Sequence[int]] | None = None,
) -> list[np.ndarray]:
    """Per row, the columns of its k best documents, best first: descending
    score, ties by ascending document id, as ranked by the corpus's cached
    ``id_ranks`` (one per column, else ValueError). Row i skips the columns
    in ``exclude[i]`` (see ``_row_blocks``), where a repeat counts once; a
    row with fewer than k columns left returns them all. A negative k raises
    ValueError; k = 0 gives empty rows.

    A block sorts only its candidates. With m = k + |exclude[i]|, row i's
    candidates are the columns scoring at least the m-th largest of the
    maxima of g >= m disjoint column groups. At least m cells reach that
    bound, so the m best columns do, and ties at it stay in. One compare
    takes a block's candidates, with its excluded cells cleared, and one
    sort orders them on a unique int64 key: row, then the rank of the
    negated score, then the id rank. Distinct id ranks make it total, so
    each row's sorted candidates begin with its k best columns. An
    all-equal row sorts every column.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    n_rows, n = scores.shape
    if len(id_ranks) != n:
        raise ValueError(f"id_ranks holds {len(id_ranks)} ranks for {n} columns")
    blocks = _row_blocks(scores.shape, exclude)
    if k == 0 or n == 0:
        return [np.empty(0, dtype=np.intp) for _ in range(n_rows)]
    # g groups of w columns, j mod g, over the first w * g columns: g >= m
    # for every m <= n, and wider groups make the maxima cheaper but the
    # bound looser
    w = max(1, math.isqrt(n // (k + max(map(len, exclude or [[]])))))
    g = n // w

    top = np.empty((n_rows, min(k, n)), dtype=np.intp)  # row i's first kept[i] columns
    kept = np.empty(n_rows, dtype=np.intp)

    def select(start, block, skip_rows, skip_cols, group_max, cand) -> None:
        b = len(block)
        m_block = k + np.bincount(skip_rows, minlength=b)
        group_max = block[:, :w * g].reshape(b, w, g).max(axis=1, out=group_max[:b])
        at = g - np.minimum(m_block, g)  # m > g only when w = 1 and m > n: every column
        # a set: np.unique of even a few ints allocates about 0.5 MB
        group_max.partition(sorted(set(at.tolist())), axis=1)
        cand = np.greater_equal(block, group_max[np.arange(b), at][:, None], out=cand[:b])
        cand[skip_rows, skip_cols] = False
        rows, cols = np.divmod(np.flatnonzero(cand), n)
        # np.unique counts -0.0 and +0.0 as one value, as the order does
        _, rank = np.unique(-block[rows, cols], return_inverse=True)
        cols = cols[np.argsort((rows * len(cols) + rank) * n + id_ranks[cols])]
        counts = np.bincount(rows, minlength=b)
        kept[start:start + b] = np.minimum(counts, k)
        if len(cols):  # row i's sorted candidates start at firsts[i]; keep kept[i]
            firsts = np.cumsum(counts) - counts
            at = np.minimum(firsts[:, None] + np.arange(top.shape[1]), len(cols) - 1)
            top[start:start + b] = cols[at]

    def scratch(rows: int) -> tuple[np.ndarray, np.ndarray]:
        return np.empty((rows, g)), np.empty((rows, n), dtype=bool)

    _walk(scores, blocks, select, scratch)
    return [row[:m] for row, m in zip(top, kept.tolist())]


def top_k_scores(
    scores: np.ndarray | ScoreRows, k: int, exclude: Sequence[Sequence[int]]
) -> tuple[np.ndarray, np.ndarray]:
    """``(excluded, top)``: the scores of the cells in ``exclude`` (see
    ``_row_blocks``; distinct per row) in order, and row by row the k
    highest of each row's other scores, all when fewer are left; k < 0
    raises ValueError. The block's rows that exclude as many columns go to
    one ``partition(axis=1)`` over their other cells, in column order:
    the same select as a partition of each row's other cells alone, so the
    order does not depend on the block size. A ``ScoreRows`` block, the
    walker's own buffer, has each row shifted left over its excluded cells
    in place; an array's block, the caller's, is gathered through a mask."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    n_rows, n = scores.shape
    blocks = _row_blocks(scores.shape, exclude)
    kept = np.empty(n_rows, dtype=np.intp)
    flat = np.empty(n_rows * min(k, n))
    top = flat.reshape(n_rows, min(k, n))  # row i's first kept[i] cells
    shift = isinstance(scores, ScoreRows)

    def select(start, block, rows, cols) -> np.ndarray:
        excluded = block[rows, cols]
        counts = np.bincount(rows, minlength=len(block))
        kept[start:start + len(block)] = np.minimum(k, n - counts)
        cells = sorted(zip(rows.tolist(), cols.tolist())) + [(-1, n)] if shift else []
        gone = 0  # cells already shifted out of this row
        for (i, j), (after_i, after_j) in zip(cells, cells[1:]):
            end = after_j if after_i == i else n
            block[i, j - gone:end - gone - 1] = block[i, j + 1:end]
            gone = gone + 1 if after_i == i else 0
        for c in sorted(set(counts.tolist())):
            if not (m := min(k, n - c)):
                continue
            same = counts == c
            if shift:
                other = block[:, :n - c] if same.all() else block[same, :n - c]
            else:
                is_other = np.zeros(block.shape, dtype=bool)
                is_other[same] = True
                is_other[rows, cols] = False
                other = block[is_other].reshape(-1, n - c)
            if m < n - c:
                other.partition(n - c - m, axis=1)
            top[start:start + len(block)][same, :m] = other[:, n - c - m:]
        return excluded

    excluded = _walk(scores, blocks, select)
    if (kept < top.shape[1]).any():
        flat = top[np.arange(top.shape[1]) < kept[:, None]]
    return np.concatenate([np.empty(0), *excluded]), flat


def mine_hard_negatives(
    queries: QuerySet, corpus: Corpus, scorer: Scorer, k: int
) -> QuerySet:
    """Attach the k highest-scoring non-positive documents to each query.

    Ties are broken by ascending document id so the result is identical
    across platforms. Queries with fewer than k available negatives get
    all of them. The input QuerySet is not modified.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    scores = score_matrix(queries, corpus, scorer)
    doc_ids = corpus.ids
    positives = [corpus.columns(q.positive_ids) for q in queries]
    tops = top_k_columns(scores, corpus.id_ranks, k, positives)
    result = QuerySet([replace(q, hard_negative_ids=[doc_ids[j] for j in top.tolist()])
                       for q, top in zip(queries, tops)])
    result._tokens.update(queries._tokens)  # the same texts in the same order
    return result


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
    A query is eligible with at least H mined hard negatives. Raises
    ValueError when B < 2, H < 0 or fewer than B queries are eligible."""
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
    chosen = [queries[i] for i in eligible]
    return BatchRows(B, H, eligible, [corpus.columns(q.positive_ids) for q in chosen],
                     [corpus.columns(q.hard_negative_ids) for q in chosen])


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
