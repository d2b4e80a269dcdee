"""Side-by-side training of the two objectives under identical conditions.

For each seed the same data, the same mined hard negatives, and the same
parameter initialization feed two training runs differing only in the
loss. Each winner scores the held-out test split against the corpus
once; ``metrics.evaluate`` turns that matrix into the pooled AUC and the
ranked-list metrics, and its pool gives the positive/negative histogram
overlap.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

from .data import (EVAL_FRACTION, TRAIN_FRACTION, Corpus, QuerySet, SplitSpec,
                   mine_hard_negatives, split_queries)
from .encoder import EncoderConfig, init_params, make_scorer
from .metrics import evaluate, histogram
from .prng import derive_seed
from .synthetic import SyntheticSpec, make_benchmark
from .trainer import TrainConfig, train

DataProvider = Callable[[int], tuple[Corpus, QuerySet]]


@dataclass(frozen=True)
class ComparisonSettings:
    """Everything about a comparison run except the seed list. Each seed
    replaces the seeds of ``base_config`` and ``encoder``."""

    base_config: TrainConfig
    encoder: EncoderConfig
    mine_k: int = 50
    bins: int = 50

    def __post_init__(self):
        for name in ("mine_k", "bins"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")


def synthetic_provider(template: SyntheticSpec) -> DataProvider:
    """Regenerate the planted benchmark per seed (sizes fixed, content
    reseeded), so each comparison seed is a fully independent draw."""
    def provide(seed: int) -> tuple[Corpus, QuerySet]:
        return make_benchmark(replace(template, seed=derive_seed(seed, 10)))
    return provide


def fixed_provider(corpus: Corpus, queries: QuerySet) -> DataProvider:
    def provide(seed: int) -> tuple[Corpus, QuerySet]:
        return corpus, queries
    return provide


def _evaluate_side(params, queries, corpus, settings) -> dict:
    scores = make_scorer(params)(queries.texts, corpus.texts)
    pool, metrics = evaluate(scores, queries, corpus, top_k=settings.base_config.eval_top_k)
    return {
        "auc": metrics["auc"],
        "mrr10": metrics["mrr10"],
        "ndcg10": metrics["ndcg10"],
        "overlap": histogram(pool, settings.bins).overlap_coefficient(),
    }


def run_single_seed(
    seed: int, provider: DataProvider, settings: ComparisonSettings
) -> dict:
    """Mine, split, train both losses, and evaluate on the test split."""
    corpus, queries = provider(seed)
    encoder_config = replace(settings.encoder, seed=derive_seed(seed, 1))
    if settings.base_config.H > 0:
        scorer = make_scorer(init_params(encoder_config))
        queries = mine_hard_negatives(queries, corpus, scorer, k=settings.mine_k)
    split = SplitSpec(TRAIN_FRACTION, EVAL_FRACTION, seed=derive_seed(seed, 12))
    train_qs, eval_qs, test_qs = split_queries(queries, split)

    result: dict = {"seed": seed}
    for kind in ("cl", "mw"):
        cfg = replace(settings.base_config, loss_kind=kind, seed=seed)
        best, report = train(cfg, train_qs, eval_qs, corpus, encoder_config)
        side = _evaluate_side(best, test_qs, corpus, settings)
        side["best_checkpoint_step"] = report.best_checkpoint_step
        result[kind] = side
    result["auc_gain"] = result["mw"]["auc"] - result["cl"]["auc"]
    return result


def run_comparison(
    seeds: list[int], provider: DataProvider, settings: ComparisonSettings
) -> dict:
    """Per-seed results plus means; ``auc_gain`` is AUC(mw) - AUC(cl)."""
    if not seeds:
        raise ValueError("need at least one seed")
    per_seed = [run_single_seed(s, provider, settings) for s in seeds]
    mean = {}
    for kind in ("cl", "mw"):
        for key in ("auc", "mrr10", "ndcg10", "overlap"):
            mean[f"{key}_{kind}"] = float(np.mean([r[kind][key] for r in per_seed]))
    mean["auc_gain"] = float(np.mean([r["auc_gain"] for r in per_seed]))
    return {"per_seed": per_seed, "mean": mean}


def write_comparison(result: dict, path: str | Path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(result, f, sort_keys=True, indent=2)
        f.write("\n")
