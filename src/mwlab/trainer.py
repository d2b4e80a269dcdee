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
``data.sample_batch`` draws a batch as query-split and corpus positions,
so a batch is a row gather of those tables, not a fresh tokenization. An
evaluation encodes the eval split and the corpus once: each fixed eval
batch takes its rows of those vectors, and their score matrix goes to
``metrics.evaluate``. Adam updates in place through scratch buffers and
is bit-identical to its textbook formula.

Steps and Adam run on a sub-table: the rows R the corpus and train split
hash to, in ascending order, zero-padded to a power of two. Every batch
draws from those two tables, so a row outside R (or a padding row) gets
g = +0 at every step, keeps m = v = 0, and is a fixed point of dense
Adam. The monotone slot map keeps each token row's nonzero order, so the
sparse products sum the same doubles in the same order: the bits are the
full table's, at Adam's cost for |R| rows. The remapped tables share the
cached tables' read-only ``data`` and ``indptr``; nothing writes to them.

Everything is a pure function of (config, data, seed): two runs with the
same inputs produce bit-identical parameters, logs, and files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from . import encoder as enc
from .data import Corpus, QuerySet, sample_batch
from .metrics import evaluate
from .objectives import cl_loss, mw_loss, mw_value
from .prng import Xoshiro256StarStar, derive_seed
from .scoring import backprop_scores, score_batch

LOSS_KINDS = ("cl", "mw")


class TrainingDiverged(RuntimeError):
    """Raised when a loss or gradient goes non-finite; the run aborts."""


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
        if self.B < 2:
            raise ValueError(f"B must be >= 2, got {self.B}")
        if self.H < 0:
            raise ValueError(f"H must be >= 0, got {self.H}")
        if self.tau <= 0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        if self.base_lr <= 0:
            raise ValueError(f"base_lr must be positive, got {self.base_lr}")
        if self.warmup_steps < 0:
            raise ValueError(f"warmup_steps must be >= 0, got {self.warmup_steps}")
        if self.max_epochs < 0:
            raise ValueError(f"max_epochs must be >= 0, got {self.max_epochs}")
        if self.patience < 1:
            raise ValueError(f"patience must be >= 1, got {self.patience}")
        for name in ("eval_every", "eval_batches", "eval_top_k"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")


@dataclass
class OptimizerState:
    """Adam moment buffers and step counter."""

    m: enc.EncoderGrads
    v: enc.EncoderGrads
    step: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

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
    bc1 = 1.0 - state.beta1 ** state.step
    bc2 = 1.0 - state.beta2 ** state.step
    for m, v, g, p in (
        (state.m.embedding, state.v.embedding, grads.embedding, params.embedding),
        (state.m.projection, state.v.projection, grads.projection, params.projection),
    ):
        s1 = np.empty_like(p)
        s2 = np.empty_like(p)
        m *= state.beta1
        m += np.multiply(g, 1.0 - state.beta1, out=s1)
        v *= state.beta2
        np.square(g, out=s1)
        s1 *= 1.0 - state.beta2
        v += s1
        np.divide(m, bc1, out=s1)
        s1 *= lr
        np.divide(v, bc2, out=s2)
        np.sqrt(s2, out=s2)
        s2 += state.eps
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
        out_dir.mkdir(parents=True, exist_ok=True)
        summary = {
            "loss_kind": self.loss_kind,
            "best_checkpoint_step": self.best_checkpoint_step,
            "best_eval_loss": self.best_eval_loss if self.evals else None,
            "n_steps": len(self.steps),
            "n_evals": len(self.evals),
        }
        with open(out_dir / "report.json", "w", encoding="utf-8") as f:
            json.dump(summary, f, sort_keys=True, indent=2)
            f.write("\n")
        with open(out_dir / "steps.csv", "w", encoding="utf-8") as f:
            f.write("step,train_loss,lr\n")
            for step, loss, lr in self.steps:
                f.write(f"{step},{loss!r},{lr!r}\n")
        with open(out_dir / "evals.csv", "w", encoding="utf-8") as f:
            f.write("step,eval_loss,auc,mrr10,ndcg10\n")
            for rec in self.evals:
                f.write(
                    f"{rec.step},{rec.eval_loss!r},{rec.auc!r},"
                    f"{rec.mrr10!r},{rec.ndcg10!r}\n"
                )


def _loss_fns(kind: str):
    """(training loss, evaluation value): MW's evaluation skips the gradient."""
    if kind == "cl":
        return cl_loss, lambda scores: cl_loss(scores).value
    return mw_loss, mw_value


def _sub_table(
    params: enc.EncoderParams, tables: Sequence[sp.csr_matrix]
) -> tuple[np.ndarray, enc.EncoderParams, list[sp.csr_matrix]]:
    """(R, sub-table, tables remapped onto it). R is the sorted set of
    buckets the tables use; the sub-table holds ``embedding[R]`` and zero
    padding up to a power of two, and shares the projection array."""
    rows = np.unique(np.concatenate([t.indices for t in tables]))
    size = 1 << max(0, len(rows) - 1).bit_length()
    embedding = np.zeros((size, params.config.embed_dim))
    embedding[:len(rows)] = params.embedding[rows]
    sub = enc.EncoderParams(replace(params.config, hash_dim=size), embedding, params.projection)
    remapped = [sp.csr_matrix((t.data, np.searchsorted(rows, t.indices), t.indptr),
                              shape=(t.shape[0], size)) for t in tables]
    return rows, sub, remapped


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
    encoder_config: enc.EncoderConfig | None = None,
    out_dir: str | Path | None = None,
) -> tuple[enc.EncoderParams, RunReport]:
    """Run the full optimization loop and return (best params, report).

    With ``out_dir`` set, a checkpoint ``ckpt_<step>`` is written at every
    evaluation-loss improvement and the report files at the end.
    ``max_epochs = 0`` returns the initial parameters untouched.

    Before any other work, the fixed eval batches and the first training
    batch are drawn, so a split too small for (B, H) raises a
    ``ValueError`` naming it. The corpus, the train split and the eval
    split then give their cached positional token tables.

    Steps and Adam run on the sub-table of the module docstring. Every
    evaluation first writes it back into the full parameters, which
    encode the eval split and the corpus once; the fixed eval batches
    are rows of those two encodings. A run ends with an evaluation.
    """
    if encoder_config is None:
        encoder_config = enc.EncoderConfig(seed=derive_seed(config.seed, 1))
    steps_per_epoch = max(1, -(-len(train_queries) // config.B))
    max_steps = config.max_epochs * steps_per_epoch
    eval_rows = []
    batch = None
    if max_steps > 0:
        # fixed held-out batches: the evaluation loss is comparable across
        # steps. Drawn first, so an eval split too small for B fails early.
        eval_rng = Xoshiro256StarStar(derive_seed(config.seed, 3))
        try:
            eval_rows = [
                sample_batch(eval_queries, corpus, config.B, config.H, eval_rng)
                for _ in range(config.eval_batches)
            ]
        except ValueError as exc:
            raise ValueError(f"eval split ({len(eval_queries)} queries): {exc}") from exc
        # the batch stream is independent of the initialization, so
        # drawing the first batch before it changes no bits
        batch_rng = Xoshiro256StarStar(derive_seed(config.seed, 2))
        try:
            batch = sample_batch(train_queries, corpus, config.B, config.H, batch_rng)
        except ValueError as exc:
            raise ValueError(f"train split ({len(train_queries)} queries): {exc}") from exc

    params = enc.init_params(encoder_config)
    report = RunReport(loss_kind=config.loss_kind)
    loss, eval_value = _loss_fns(config.loss_kind)
    out_path = Path(out_dir) if out_dir is not None else None
    if max_steps == 0:
        if out_path is not None:
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
            batch = sample_batch(train_queries, corpus, config.B, config.H, batch_rng)
        q, p = batch
        value, grads = _train_step(sub, sub_train[q], sub_corpus[p], config.tau, loss)
        if not np.isfinite(value):
            raise TrainingDiverged(f"non-finite training loss at step {step}")
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
    encoder_config: enc.EncoderConfig | None = None,
) -> list[dict]:
    """One full train + evaluate per (lr, B, H) grid cell.

    Returns one row per cell with the evaluation metrics of the winning
    checkpoint; ``write_sweep_csv`` serializes the table.
    """
    if not lrs or not batch_sizes or not hard_negative_counts:
        raise ValueError("ablation grid must be non-empty in every dimension")
    rows = []
    for lr in lrs:
        for b in batch_sizes:
            for h in hard_negative_counts:
                cfg = replace(base_config, base_lr=lr, B=b, H=h)
                best, _ = train(cfg, train_queries, eval_queries, corpus, encoder_config)
                scores = enc.make_scorer(best)(eval_queries, corpus)
                _, metrics = evaluate(scores, eval_queries, corpus, top_k=base_config.eval_top_k)
                rows.append({
                    "lr": lr,
                    "batch_size": b,
                    "hard_negative": h,
                    "precision@10": metrics["precision10"],
                    "recall@1": metrics["recall1"],
                    "MRR": metrics["mrr10"],
                    "nDCG@10": metrics["ndcg10"],
                    "AUC": metrics["auc"],
                })
    return rows


def write_sweep_csv(rows: Sequence[dict], path: str | Path) -> None:
    columns = ["lr", "batch_size", "hard_negative",
               "precision@10", "recall@1", "MRR", "nDCG@10", "AUC"]
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        f.write(",".join(columns) + "\n")
        for row in rows:
            f.write(",".join(repr(row[c]) if isinstance(row[c], float) else str(row[c])
                             for c in columns) + "\n")
