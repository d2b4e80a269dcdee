"""Training loop: Adam updates, linear warmup, early stopping, reports.

One step samples a batch, encodes queries and passages with shared
weights, scores them, evaluates the configured loss, and backpropagates
analytically through scoring and the encoder. Every ``eval_every`` steps
the evaluation loss (same objective, fixed held-out batches) and pooled
retrieval metrics are computed; the parameters minimizing the evaluation
loss are kept, and training stops after ``patience`` evaluations without
improvement or when the epoch budget runs out.

The corpus, train split and eval split each give their positional token
table: the read-only CSR matrix ``tokens(hash_dim)`` caches on the
collection, so a run hashes only what no earlier run or mining hashed.
Each split's ``data.batch_rows`` (its eligible queries and their corpus
rows) is built once per run, before the first draw; ``data.sample_batch``
draws a batch from it as query-split and corpus positions, so a batch is
a row gather of those tables, not a fresh tokenization or id lookup. An
evaluation encodes the eval split and the corpus once: each fixed eval
batch takes its rows of those vectors, and their score matrix goes to
``metrics.evaluate``. Adam updates in place through scratch buffers and
is bit-identical to its textbook formula.

Steps and Adam run on a sub-table of exactly max(1, |R|) rows, no padding:
the rows R the corpus and train split hash to, ascending. Every batch
draws from those two tables, so a row outside R gets g = +0 at every
step, keeps m = v = 0, and is a fixed point of dense Adam. The monotone
slot map keeps each token row's nonzero order, so the sparse products
sum the same doubles in the same order: the bits are the full table's,
at Adam's cost for |R| rows. The remapped tables share the cached
tables' read-only ``data`` and ``indptr``; nothing writes to them.

Everything is a pure function of (config, data, seed): two runs with the
same inputs produce bit-identical parameters, logs, and files.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import astuple, dataclass, field, replace
from itertools import product
from pathlib import Path
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from . import encoder as enc
from .data import (Corpus, QuerySet, batch_rows, eligible_queries, sample_batch, write_csv,
                   write_json)
from .metrics import evaluate
from .objectives import cl_loss, mw_loss, mw_value
from .prng import Xoshiro256StarStar, derive_seed
from .scoring import backprop_scores, score_batch

LOSS_KINDS = ("cl", "mw")

# Adam's moment decay rates and denominator floor (Kingma & Ba's defaults)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class TrainingDiverged(RuntimeError):
    """Raised when a gradient goes non-finite; the run aborts."""


@dataclass(frozen=True)
class TrainConfig:
    loss_kind: str = "cl"
    B: int = 32
    H: int = 5
    tau: float = 0.01
    base_lr: float = 3e-5
    warmup_steps: int = 500
    max_epochs: int = 20
    patience: int = 3
    eval_every: int = 50
    seed: int = 0
    eval_batches: int = 4
    eval_top_k: int = 500

    def __post_init__(self):
        enc.check_field_types(self)
        if self.loss_kind not in LOSS_KINDS:
            raise ValueError(f"loss_kind must be one of {LOSS_KINDS}, got {self.loss_kind!r}")
        for name, low in (("B", 2), ("H", 0), ("warmup_steps", 0), ("max_epochs", 0),
                          ("patience", 1), ("eval_every", 1), ("eval_batches", 1),
                          ("eval_top_k", 1)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")
        for name in ("tau", "base_lr"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")


@dataclass
class OptimizerState:
    """Adam moment buffers and step counter."""

    m: enc.EncoderGrads
    v: enc.EncoderGrads
    step: int = 0

    @classmethod
    def for_params(cls, params: enc.EncoderParams) -> "OptimizerState":
        return cls(m=enc.EncoderGrads.zeros_like(params), v=enc.EncoderGrads.zeros_like(params))


def lr_at(step: int, config: TrainConfig) -> float:
    """Linear warmup to base_lr over warmup_steps, constant afterwards."""
    if step < 1:
        raise ValueError(f"step must be >= 1, got {step}")
    if config.warmup_steps == 0:
        return config.base_lr
    return config.base_lr * min(1.0, step / config.warmup_steps)


def adam_step(
    params: enc.EncoderParams,
    grads: enc.EncoderGrads,
    state: OptimizerState,
    lr: float,
) -> tuple[enc.EncoderParams, OptimizerState]:
    """Bias-corrected dense Adam (Kingma & Ba, ICLR 2015), in place on
    params and state.

    Every moment decays at every step, rows with zero gradient included::

        m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g^2
        p -= lr (m / bc1) / (sqrt(v / bc2) + eps)

    The update runs through two scratch arrays per parameter instead of a
    temporary per operation, in the same per-element order, so its bits
    equal the formula's. A non-finite gradient raises ``TrainingDiverged``
    before params or state change.
    """
    if not grads.is_finite():
        raise TrainingDiverged(
            f"non-finite gradient at optimizer step {state.step + 1}"
        )
    state.step += 1
    bc1 = 1.0 - ADAM_BETA1 ** state.step
    bc2 = 1.0 - ADAM_BETA2 ** state.step
    for m, v, g, p in (
        (state.m.embedding, state.v.embedding, grads.embedding, params.embedding),
        (state.m.projection, state.v.projection, grads.projection, params.projection),
    ):
        s1 = np.empty_like(p)
        s2 = np.empty_like(p)
        m *= ADAM_BETA1
        m += np.multiply(g, 1.0 - ADAM_BETA1, out=s1)
        v *= ADAM_BETA2
        np.square(g, out=s1)
        s1 *= 1.0 - ADAM_BETA2
        v += s1
        np.divide(m, bc1, out=s1)
        s1 *= lr
        np.divide(v, bc2, out=s2)
        np.sqrt(s2, out=s2)
        s2 += ADAM_EPS
        s1 /= s2
        p -= s1
    return params, state


@dataclass
class EvalRecord:
    step: int
    eval_loss: float
    auc: float
    mrr10: float
    ndcg10: float


@dataclass
class RunReport:
    """Per-step losses, per-evaluation metrics, and the winning step."""

    steps: list[tuple[int, float, float]] = field(default_factory=list)  # (step, loss, lr)
    evals: list[EvalRecord] = field(default_factory=list)
    best_checkpoint_step: int = 0
    best_eval_loss: float = float("inf")
    loss_kind: str = "cl"

    def write(self, out_dir: str | Path) -> None:
        """Emit report.json, steps.csv, and evals.csv."""
        out_dir = Path(out_dir)
        write_json(out_dir / "report.json", {
            "loss_kind": self.loss_kind,
            "best_checkpoint_step": self.best_checkpoint_step,
            "best_eval_loss": self.best_eval_loss if self.evals else None,
            "n_steps": len(self.steps),
            "n_evals": len(self.evals),
        })
        write_csv(out_dir / "steps.csv", ("step", "train_loss", "lr"), self.steps)
        write_csv(out_dir / "evals.csv", ("step", "eval_loss", "auc", "mrr10", "ndcg10"),
                  map(astuple, self.evals))


def _loss_fns(kind: str):
    """(training loss, evaluation value): MW's evaluation skips the gradient."""
    if kind == "cl":
        return cl_loss, lambda scores: cl_loss(scores).value
    return mw_loss, mw_value


def _sub_table(
    params: enc.EncoderParams, tables: Sequence[sp.csr_matrix]
) -> tuple[np.ndarray, enc.EncoderParams, list[sp.csr_matrix]]:
    """(R, sub-table, tables remapped onto it). R is the sorted set of
    buckets the tables use; the sub-table holds exactly ``embedding[R]``
    (one zero row when R is empty) and shares the projection array."""
    rows = np.unique(np.concatenate([t.indices for t in tables]))
    size = max(1, len(rows))
    embedding = np.zeros((size, params.config.embed_dim))
    embedding[:len(rows)] = params.embedding[rows]
    sub = enc.EncoderParams(replace(params.config, hash_dim=size), embedding, params.projection)
    remapped = [sp.csr_matrix((t.data, np.searchsorted(rows, t.indices), t.indptr),
                              shape=(t.shape[0], size)) for t in tables]
    return rows, sub, remapped


@contextmanager
def _naming_split(name: str, queries: QuerySet):
    """Prefix a ValueError raised inside with the split and its size."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{name} split ({len(queries)} queries): {exc}") from exc


def _train_step(params, q_tokens, p_tokens, tau, loss):
    q_enc = enc.encode_tokens(params, q_tokens)
    p_enc = enc.encode_tokens(params, p_tokens)
    scores = score_batch(q_enc.vectors, p_enc.vectors, tau)
    out = loss(scores)
    d_q, d_p = backprop_scores(out.d_sim, q_enc.vectors, p_enc.vectors)
    grads = enc.encode_backward(q_enc, d_q, params)
    grads.add_(enc.encode_backward(p_enc, d_p, params))
    return out.value, grads


def train(
    config: TrainConfig,
    train_queries: QuerySet,
    eval_queries: QuerySet,
    corpus: Corpus,
    encoder_config: enc.EncoderConfig,
    out_dir: str | Path | None = None,
) -> tuple[enc.EncoderParams, RunReport]:
    """Run the full optimization loop and return (best params, report).

    ``max_epochs = 0`` returns ``encoder_config``'s initial parameters,
    as step 0. With ``out_dir`` set, the best checkpoint is always on
    disk: ``ckpt_<step>`` is written at every evaluation-loss improvement,
    or ``ckpt_0`` when no step runs, and the report files at the end.

    Before any other work, each split's batch rows are built once and the
    fixed eval batches and the first training batch are drawn from them,
    so a split too small for (B, H) raises a ``ValueError`` naming it.
    The corpus, the train split and the eval split then give their cached
    positional token tables.

    Steps and Adam run on the sub-table of the module docstring. Every
    evaluation first writes it back into the full parameters, which
    encode the eval split and the corpus once; the fixed eval batches
    are rows of those two encodings. A run ends with an evaluation.
    """
    steps_per_epoch = max(1, -(-len(train_queries) // config.B))
    max_steps = config.max_epochs * steps_per_epoch
    if max_steps > 0:
        # fixed held-out batches: the evaluation loss is comparable across
        # steps. Drawn first, so an eval split too small for B fails early.
        eval_rng = Xoshiro256StarStar(derive_seed(config.seed, 3))
        with _naming_split("eval", eval_queries):
            eval_split = batch_rows(eval_queries, corpus, config.B, config.H)
            eval_rows = [sample_batch(eval_split, eval_rng) for _ in range(config.eval_batches)]
        # the batch stream is independent of the initialization, so
        # drawing the first batch before it changes no bits
        batch_rng = Xoshiro256StarStar(derive_seed(config.seed, 2))
        with _naming_split("train", train_queries):
            train_split = batch_rows(train_queries, corpus, config.B, config.H)
            batch = sample_batch(train_split, batch_rng)

    params = enc.init_params(encoder_config)
    report = RunReport(loss_kind=config.loss_kind)
    loss, eval_value = _loss_fns(config.loss_kind)
    out_path = Path(out_dir) if out_dir is not None else None
    if max_steps == 0:
        if out_path is not None:
            enc.save_checkpoint(params, 0, out_path / "ckpt_0")
            report.write(out_path)
        return params, report

    hash_dim = encoder_config.hash_dim
    corpus_tokens = corpus.tokens(hash_dim)
    train_tokens = train_queries.tokens(hash_dim)
    eval_tokens = eval_queries.tokens(hash_dim)
    rows, sub, (sub_corpus, sub_train) = _sub_table(params, [corpus_tokens, train_tokens])
    state = OptimizerState.for_params(sub)

    def run_eval(step: int) -> EvalRecord:
        params.embedding[rows] = sub.embedding[:len(rows)]
        q_vecs = enc.encode_tokens(params, eval_tokens).vectors
        d_vecs = enc.encode_tokens(params, corpus_tokens).vectors
        losses = [eval_value(score_batch(q_vecs[q], d_vecs[p], config.tau))
                  for q, p in eval_rows]
        _, metrics = evaluate(q_vecs @ d_vecs.T, eval_queries, corpus, top_k=config.eval_top_k)
        return EvalRecord(
            step=step,
            eval_loss=float(np.mean(losses)),
            auc=metrics["auc"],
            mrr10=metrics["mrr10"],
            ndcg10=metrics["ndcg10"],
        )

    best_params = params.copy()
    bad_evals = 0
    for step in range(1, max_steps + 1):
        if step > 1:
            batch = sample_batch(train_split, batch_rng)
        q, p = batch
        value, grads = _train_step(sub, sub_train[q], sub_corpus[p], config.tau, loss)
        lr = lr_at(step, config)
        adam_step(sub, grads, state, lr)
        report.steps.append((step, value, lr))

        if step % config.eval_every == 0 or step == max_steps:
            rec = run_eval(step)
            report.evals.append(rec)
            if rec.eval_loss < report.best_eval_loss:
                report.best_eval_loss = rec.eval_loss
                report.best_checkpoint_step = step
                best_params = params.copy()
                bad_evals = 0
                if out_path is not None:
                    enc.save_checkpoint(best_params, step, out_path / f"ckpt_{step}")
            else:
                bad_evals += 1
                if bad_evals >= config.patience:
                    break

    if out_path is not None:
        report.write(out_path)
    return best_params, report


def ablation_sweep(
    lrs: Sequence[float],
    batch_sizes: Sequence[int],
    hard_negative_counts: Sequence[int],
    base_config: TrainConfig,
    train_queries: QuerySet,
    eval_queries: QuerySet,
    corpus: Corpus,
    encoder_config: enc.EncoderConfig,
) -> list[dict]:
    """One full train + evaluate per (lr, B, H) grid cell.

    Returns one row per cell, in grid order, with the evaluation metrics
    of the winning checkpoint; its keys, in order, are the columns.
    """
    if not lrs or not batch_sizes or not hard_negative_counts:
        raise ValueError("ablation grid must be non-empty in every dimension")
    # every cell's config, then (when cells train) its (B, H) against both
    # splits first, so a bad value or a short split fails before any training
    cells = [replace(base_config, base_lr=lr, B=b, H=h)
             for lr, b, h in product(lrs, batch_sizes, hard_negative_counts)]
    splits = (("eval", eval_queries), ("train", train_queries)) if base_config.max_epochs else ()
    for cfg, (name, queries) in product(cells, splits):
        with _naming_split(name, queries):
            eligible_queries(queries, cfg.B, cfg.H)
    rows = []
    for cfg in cells:
        best, _ = train(cfg, train_queries, eval_queries, corpus, encoder_config)
        scores = enc.make_scorer(best)(eval_queries, corpus)
        _, metrics = evaluate(scores, eval_queries, corpus, top_k=base_config.eval_top_k)
        rows.append({
            "lr": cfg.base_lr,
            "batch_size": cfg.B,
            "hard_negative": cfg.H,
            "precision@10": metrics["precision10"],
            "recall@1": metrics["recall1"],
            "MRR": metrics["mrr10"],
            "nDCG@10": metrics["ndcg10"],
            "AUC": metrics["auc"],
        })
    return rows
