"""A deterministic toy dual encoder with an exact analytic backward pass.

Texts are lowercased, split into alphanumeric runs, and feature-hashed:
a token's bucket is its FNV-1a 64-bit hash mod ``hash_dim`` (for a power
of two, the hash's low bits). Encoding is a count-weighted mean of
embedding rows, a linear projection, and L2 normalization, so the
similarity of two encodings is their cosine. Query and passage sides
share the same weights.

A batch of texts is hashed once into its token table, a plain
``scipy.sparse.csr_matrix`` with one row per text; encoding takes that
table or any row gather of it. ``data.Corpus`` and ``data.QuerySet``
cache their table per ``hash_dim`` and ``make_scorer`` encodes those, so
scoring a collection again hashes nothing, and every retrieval score is
a block product of its ``ScoreRows``. A row whose pre-normalization
vector has norm below ``NORM_FLOOR`` maps to a fixed fallback, the first
standard basis vector, and receives zero gradient; the fallback is not
trainable. A text with no tokens has an empty row, pools to exact
zeros, and so always takes the fallback.
"""

from __future__ import annotations

import json
import re
from array import array
from collections import defaultdict
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from .prng import Xoshiro256StarStar

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1

# Pre-normalization vectors shorter than this hit the fallback path.
NORM_FLOOR = 1e-12


# Accepted value types per field annotation; bools are rejected everywhere.
_FIELD_TYPES = {"int": (int,), "float": (int, float), "str": (str,)}


def check_field_types(config) -> None:
    """Raise ValueError naming the first field of a config dataclass whose
    value does not fit its annotation: an ``int`` field takes an int, a
    ``float`` field an int or a finite float, a ``str`` a str, none a bool."""
    for f in fields(config):
        value = getattr(config, f.name)
        if isinstance(value, bool) or not isinstance(value, _FIELD_TYPES[f.type]):
            raise ValueError(f"{f.name} must be {f.type}, got {type(value).__name__} {value!r}")
        if isinstance(value, float) and not np.isfinite(value):
            raise ValueError(f"{f.name} must be finite, got {value!r}")


@dataclass(frozen=True)
class EncoderConfig:
    hash_dim: int = 1 << 15
    embed_dim: int = 64
    proj_dim: int = 32
    seed: int = 0

    def __post_init__(self):
        check_field_types(self)
        if min(self.hash_dim, self.embed_dim, self.proj_dim) < 1:
            raise ValueError("all dimensions must be >= 1")


@dataclass
class EncoderParams:
    """Trainable weights: hash_dim x embed_dim embedding table and
    embed_dim x proj_dim projection."""

    config: EncoderConfig
    embedding: np.ndarray
    projection: np.ndarray

    def __post_init__(self):
        expect_e = (self.config.hash_dim, self.config.embed_dim)
        expect_p = (self.config.embed_dim, self.config.proj_dim)
        if self.embedding.shape != expect_e or self.projection.shape != expect_p:
            raise ValueError(
                f"parameter shapes {self.embedding.shape}/{self.projection.shape} "
                f"do not match config {expect_e}/{expect_p}"
            )
        if not (np.isfinite(self.embedding).all() and np.isfinite(self.projection).all()):
            raise ValueError("parameters must be finite")

    def copy(self) -> "EncoderParams":
        return EncoderParams(self.config, self.embedding.copy(), self.projection.copy())


@dataclass
class EncoderGrads:
    """Gradient buffers shaped like EncoderParams."""

    embedding: np.ndarray
    projection: np.ndarray

    @classmethod
    def zeros_like(cls, params: EncoderParams) -> "EncoderGrads":
        return cls(np.zeros_like(params.embedding), np.zeros_like(params.projection))

    def add_(self, other: "EncoderGrads") -> None:
        self.embedding += other.embedding
        self.projection += other.projection


def fnv1a64(token: str) -> int:
    """FNV-1a 64-bit hash of the token's UTF-8 bytes."""
    h = _FNV_OFFSET
    for byte in token.encode("utf-8"):
        h = ((h ^ byte) * _FNV_PRIME) & _MASK64
    return h


def prepare_tokens(texts: Sequence[str], hash_dim: int) -> sp.csr_matrix:
    """Tokenize and hash a batch once into its token table: the
    n_texts x hash_dim CSR matrix of count / total per row, buckets (FNV-1a
    mod ``hash_dim``) ascending. A text without tokens is a row with no
    stored entry. Row ``i`` of the table, or of any row gather
    ``table[rows]``, is what hashing text ``i`` alone gives; the
    collections' ``tokens`` cache the table. Tokens are kept as numbers
    given on first sight, each distinct token is hashed once, and one sort
    of the keys row * n_buckets + bucket rank counts every cell (Weinberger
    et al. 2009, "Feature hashing for large scale multitask learning")."""
    if hash_dim < 1:
        raise ValueError(f"hash_dim must be >= 1, got {hash_dim}")
    number: defaultdict[str, int] = defaultdict()
    number.default_factory = number.__len__  # a new token gets the next number
    seen, lengths = array("q"), array("q")
    for text in texts:
        tokens = _TOKEN_RE.findall(text.lower())
        lengths.append(len(tokens))
        seen.extend(map(number.__getitem__, tokens))
    buckets = np.fromiter((fnv1a64(t) % hash_dim for t in number), np.int64, len(number))
    distinct = buckets[np.argsort(buckets)]  # argsort: int64 sort is numpy code no other step runs
    distinct = distinct[np.diff(distinct, prepend=-1) != 0]
    totals = np.frombuffer(lengths, dtype=np.int64)
    keys = np.repeat(np.arange(len(texts), dtype=np.int64) * len(distinct), totals)
    keys += np.searchsorted(distinct, buckets)[np.frombuffer(seen, dtype=np.int64)]
    keys = keys[np.argsort(keys)]
    starts = np.flatnonzero(np.diff(keys, prepend=-1))  # each (row, rank) run's first key
    rows, ranks = np.divmod(keys[starts], len(distinct))
    indptr = np.searchsorted(rows, np.arange(len(texts) + 1))
    return sp.csr_matrix((np.diff(starts, append=len(keys)) / totals[rows], distinct[ranks],
                          indptr), shape=(len(texts), hash_dim))


@dataclass
class EmbeddingBatch:
    """Unit-norm output vectors plus the intermediates backward needs."""

    vectors: np.ndarray       # n x proj_dim, rows unit norm (or fallback e1)
    pooled: np.ndarray        # n x embed_dim, count-weighted embedding mean
    norms: np.ndarray         # n, L2 norms of pooled @ projection
    active: np.ndarray        # bool per row; False rows are fallback
    tokens: sp.csr_matrix     # the token table encoded


def encode_tokens(params: EncoderParams, tokens: sp.csr_matrix) -> EmbeddingBatch:
    """Forward pass from a token table. A token-free row pools to exact
    zeros, so its norm is 0 and the norm floor alone sends it to the
    fallback."""
    pooled = tokens @ params.embedding
    projected = pooled @ params.projection
    norms = np.linalg.norm(projected, axis=1)
    active = norms >= NORM_FLOOR
    safe = np.where(active, norms, 1.0)
    vectors = projected / safe[:, None]
    if not active.all():
        fallback = np.zeros(params.config.proj_dim)
        fallback[0] = 1.0
        vectors[~active] = fallback
    return EmbeddingBatch(
        vectors=vectors, pooled=pooled, norms=norms, active=active, tokens=tokens,
    )


def encode_backward(
    batch: EmbeddingBatch, upstream_grad: np.ndarray, params: EncoderParams
) -> EncoderGrads:
    """Exact gradients of the forward map for the scalar loss
    <upstream_grad, vectors>.

    The normalization Jacobian is (I - y y^T) / ||u||; fallback rows
    contribute nothing.
    """
    upstream_grad = np.asarray(upstream_grad, dtype=np.float64)
    if upstream_grad.shape != batch.vectors.shape:
        raise ValueError(
            f"upstream_grad shape {upstream_grad.shape} != batch shape {batch.vectors.shape}"
        )
    if not np.isfinite(upstream_grad).all():
        raise ValueError("upstream_grad must be finite")
    # d projected = (g - (g . y) y) / ||u||, zeroed on fallback rows
    y = batch.vectors
    inner = np.einsum("ij,ij->i", upstream_grad, y)
    safe = np.where(batch.active, batch.norms, 1.0)
    d_pre = (upstream_grad - inner[:, None] * y) / safe[:, None]
    d_pre[~batch.active] = 0.0
    d_projection = batch.pooled.T @ d_pre
    d_pooled = d_pre @ params.projection.T
    d_embedding = np.asarray((batch.tokens.T @ d_pooled))
    return EncoderGrads(embedding=d_embedding, projection=d_projection)


def init_params(config: EncoderConfig) -> EncoderParams:
    """Uniform(-a, a) init with a = sqrt(6 / (fan_in + fan_out)) per matrix,
    drawn from the seeded deterministic generator."""
    rng = Xoshiro256StarStar(config.seed)
    def uniform_matrix(rows: int, cols: int) -> np.ndarray:
        a = np.sqrt(6.0 / (rows + cols))
        return rng.uniform(-a, a, rows * cols).reshape(rows, cols)
    embedding = uniform_matrix(config.hash_dim, config.embed_dim)
    projection = uniform_matrix(config.embed_dim, config.proj_dim)
    return EncoderParams(config=config, embedding=embedding, projection=projection)


BLOCK_ROWS = 64  # rows per block of a score matrix, as scored and as selected from


@dataclass(frozen=True, eq=False)
class ScoreRows:
    """The score matrix of two encodings, by rows. Its one product,
    ``product(slice(a, b))``, is ``queries[a:b] @ docs.T``, and every
    retrieval score is one of its ``BLOCK_ROWS``-row blocks: BLAS bits
    depend on the block shape, so ``np.asarray`` writes the blocks that
    ``data``'s selections read, the same bits whichever way they are read."""

    queries: np.ndarray
    docs: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.queries), len(self.docs)

    def product(self, rows: slice, out: np.ndarray | None = None) -> np.ndarray:
        """The scores of ``queries[rows]``, written into ``out`` when given."""
        return np.matmul(self.queries[rows], self.docs.T, out=out)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:  # numpy casts to dtype
        scores = np.empty(self.shape)
        for start in range(0, len(scores), BLOCK_ROWS):
            block = slice(start, start + BLOCK_ROWS)
            self.product(block, out=scores[block])
        return scores


def make_scorer(params: EncoderParams):
    """Similarity scorer over a query set and a corpus: the ``ScoreRows``
    of the two encodings of their cached token tables (``tokens(hash_dim)``)."""
    hash_dim = params.config.hash_dim

    def scorer(queries, corpus) -> ScoreRows:
        return ScoreRows(encode_tokens(params, queries.tokens(hash_dim)).vectors,
                         encode_tokens(params, corpus.tokens(hash_dim)).vectors)
    return scorer


def save_checkpoint(params: EncoderParams, step: int, path: str | Path) -> None:
    """Write a checkpoint: one JSON header line, then the embedding and
    projection matrices as raw little-endian float64, row-major, so a
    loaded checkpoint scores exactly as the parameters it was saved from."""
    cfg = params.config
    header = {
        "hash_dim": cfg.hash_dim, "embed_dim": cfg.embed_dim,
        "proj_dim": cfg.proj_dim, "seed": cfg.seed, "step": step,
    }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as f:
        f.write((json.dumps(header, sort_keys=True) + "\n").encode("ascii"))
        f.write(np.ascontiguousarray(params.embedding, dtype="<f8").tobytes())
        f.write(np.ascontiguousarray(params.projection, dtype="<f8").tobytes())


def load_checkpoint(path: str | Path) -> tuple[EncoderParams, int]:
    """Read a checkpoint written by ``save_checkpoint``."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"checkpoint not found: {path}")
    with open(path, "rb") as f:
        header_line = f.readline()
        try:
            header = json.loads(header_line)
            cfg = EncoderConfig(
                hash_dim=header["hash_dim"], embed_dim=header["embed_dim"],
                proj_dim=header["proj_dim"], seed=header["seed"],
            )
            step = int(header["step"])
        except KeyError as exc:
            raise ValueError(f"{path}: checkpoint header lacks {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path}: malformed checkpoint header: {exc}") from exc
        n_embed = cfg.hash_dim * cfg.embed_dim
        n_proj = cfg.embed_dim * cfg.proj_dim
        raw = f.read()
    expected = 8 * (n_embed + n_proj)
    if len(raw) != expected:
        raise ValueError(
            f"{path}: checkpoint payload is {len(raw)} bytes, expected {expected}"
        )
    flat = np.frombuffer(raw, dtype="<f8").astype(np.float64)
    embedding = flat[:n_embed].reshape(cfg.hash_dim, cfg.embed_dim)
    projection = flat[n_embed:].reshape(cfg.embed_dim, cfg.proj_dim)
    return EncoderParams(config=cfg, embedding=embedding, projection=projection), step
