"""Training loop: Adam updates, linear warmup, early stopping, reports.

One step samples a batch, encodes queries and passages with shared
weights, scores them, evaluates the configured loss, and backpropagates
analytically through scoring and the encoder. Every ``eval_every`` steps
the evaluation loss (same objective, fixed held-out batches) and pooled
retrieval metrics are computed; the parameters minimizing the evaluation
loss are kept, and training stops after ``patience`` evaluations without
improvement or when the epoch budget runs out.

Everything is a pure function of (config, data, seed): two runs with the
same inputs produce bit-identical parameters, logs, and files.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from . import encoder as enc
from .data import Corpus, QuerySet, sample_batch
from .metrics import (
    mrr_at_k,
    ndcg_at_k,
    pooled_auc_protocol,
    precision_at_k,
    ranked_lists,
    recall_at_k,
)
from .objectives import cl_loss, mw_loss
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
        if self.eval_every < 1:
            raise ValueError(f"eval_every must be >= 1, got {self.eval_every}")


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
    """Bias-corrected Adam update, in place on params and state."""
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
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * np.square(g)
        p -= lr * (m / bc1) / (np.sqrt(v / bc2) + state.eps)
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
    """Per-step losses, per-evaluation metrics, and the winning step.

    ``wall_time`` is informational only and is never written into the
    report files, which must be reproducible byte-for-byte.
    """

    steps: list[tuple[int, float, float]] = field(default_factory=list)  # (step, loss, lr)
    evals: list[EvalRecord] = field(default_factory=list)
    best_checkpoint_step: int = 0
    best_eval_loss: float = float("inf")
    loss_kind: str = "cl"
    wall_time: float = 0.0

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


def _loss_fn(kind: str):
    return cl_loss if kind == "cl" else mw_loss


def _batch_texts(batch, corpus: Corpus) -> tuple[list[str], list[str]]:
    q_texts = [q.text for q in batch.queries]
    p_texts = [corpus[d].text for d in batch.passage_ids]
    return q_texts, p_texts


def _train_step(params, batch, corpus, tau, loss):
    q_texts, p_texts = _batch_texts(batch, corpus)
    q_enc = enc.encode_forward(params, q_texts)
    p_enc = enc.encode_forward(params, p_texts)
    scores = score_batch(q_enc.vectors, p_enc.vectors, tau)
    out = loss(scores)
    d_q, d_p = backprop_scores(out.d_sim, q_enc.vectors, p_enc.vectors)
    grads = enc.encode_backward(q_enc, d_q, params)
    grads.add_(enc.encode_backward(p_enc, d_p, params))
    return out.value, grads


def _cached_corpus_scorer(params: enc.EncoderParams, corpus_tokens):
    """Scorer closure reusing pre-hashed corpus tokens across eval calls."""
    def scorer(query_texts: Sequence[str], doc_texts: Sequence[str]) -> np.ndarray:
        if len(doc_texts) != corpus_tokens.n:
            raise ValueError("scorer cache does not match the document list")
        q = enc.encode_forward(params, query_texts).vectors
        d = enc.encode_tokens(params, corpus_tokens).vectors
        return q @ d.T
    return scorer


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
    """
    if encoder_config is None:
        encoder_config = enc.EncoderConfig(seed=derive_seed(config.seed, 1))
    started = time.perf_counter()
    steps_per_epoch = max(1, -(-len(train_queries) // config.B))
    max_steps = config.max_epochs * steps_per_epoch
    eval_batch_set = []
    if max_steps > 0:
        # fixed held-out batches: the evaluation loss is comparable across
        # steps. Drawn first, so an eval split too small for B fails early.
        eval_rng = Xoshiro256StarStar(derive_seed(config.seed, 3))
        try:
            eval_batch_set = [
                sample_batch(eval_queries, config.B, config.H, eval_rng)
                for _ in range(config.eval_batches)
            ]
        except ValueError as exc:
            raise ValueError(f"eval split ({len(eval_queries)} queries): {exc}") from exc

    params = enc.init_params(encoder_config)
    state = OptimizerState.for_params(params)
    report = RunReport(loss_kind=config.loss_kind)
    loss = _loss_fn(config.loss_kind)
    out_path = Path(out_dir) if out_dir is not None else None
    if max_steps == 0:
        report.wall_time = time.perf_counter() - started
        if out_path is not None:
            report.write(out_path)
        return params, report

    batch_rng = Xoshiro256StarStar(derive_seed(config.seed, 2))
    corpus_tokens = enc.prepare_tokens(corpus.texts, encoder_config.hash_dim)

    def evaluate(step: int) -> EvalRecord:
        losses = []
        for batch in eval_batch_set:
            q_texts, p_texts = _batch_texts(batch, corpus)
            q_enc = enc.encode_forward(params, q_texts)
            p_enc = enc.encode_forward(params, p_texts)
            losses.append(loss(score_batch(q_enc.vectors, p_enc.vectors, config.tau)).value)
        # score the eval queries against the corpus once, reuse for both
        # the pooled protocol and the ranked-list metrics
        scorer = _cached_corpus_scorer(params, corpus_tokens)
        scores = scorer([q.text for q in eval_queries], corpus.texts)
        fixed = lambda q_texts, d_texts: scores  # noqa: E731
        _, pooled = pooled_auc_protocol(eval_queries, corpus, fixed, top_k=config.eval_top_k)
        lists = ranked_lists(eval_queries, corpus, fixed, depth=10)
        return EvalRecord(
            step=step,
            eval_loss=float(np.mean(losses)),
            auc=pooled,
            mrr10=mrr_at_k(lists, 10),
            ndcg10=ndcg_at_k(lists, 10),
        )

    best_params = params.copy()
    bad_evals = 0
    for step in range(1, max_steps + 1):
        batch = sample_batch(train_queries, config.B, config.H, batch_rng)
        value, grads = _train_step(params, batch, corpus, config.tau, loss)
        if not np.isfinite(value):
            raise TrainingDiverged(f"non-finite training loss at step {step}")
        lr = lr_at(step, config)
        adam_step(params, grads, state, lr)
        report.steps.append((step, value, lr))

        if step % config.eval_every == 0 or step == max_steps:
            rec = evaluate(step)
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

    if not report.evals:
        # run too short for any evaluation: the last step's params win
        best_params = params.copy()
        report.best_checkpoint_step = report.steps[-1][0]
    report.wall_time = time.perf_counter() - started
    if out_path is not None:
        report.write(out_path)
    return best_params, report


def evaluate_params(
    params: enc.EncoderParams,
    queries: QuerySet,
    corpus: Corpus,
    top_k: int = 500,
    depth: int = 10,
) -> dict:
    """Pooled AUC protocol plus ranked-list metrics for fixed parameters."""
    scorer = enc.make_scorer(params)
    _, pooled = pooled_auc_protocol(queries, corpus, scorer, top_k=top_k)
    lists = ranked_lists(queries, corpus, scorer, depth=depth)
    return {
        "auc": pooled,
        "mrr10": mrr_at_k(lists, 10),
        "ndcg10": ndcg_at_k(lists, 10),
        "precision10": precision_at_k(lists, 10),
        "recall1": recall_at_k(lists, 1),
    }


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
                best, report = train(cfg, train_queries, eval_queries, corpus, encoder_config)
                metrics = evaluate_params(best, eval_queries, corpus, top_k=base_config.eval_top_k)
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
