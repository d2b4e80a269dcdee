"""Command-line entry point for the full experiment lifecycle.

Commands: mine, train, evaluate, roc, histogram, compare, lemma1-demo,
lemma2-check, ablate, counts. All figure data is emitted as CSV/JSON;
no images are rendered. Every command is deterministic given --seed and
read-only on its inputs apart from the declared outputs.

Exit codes: 0 success, 1 a checked bound or assertion failed, 2 usage or
IO error, or a training run that diverged.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields as dataclass_fields
from functools import partial
from pathlib import Path

from . import encoder as enc
from .data import (EVAL_FRACTION, TRAIN_FRACTION, SplitSpec, load_corpus, load_queries,
                   mine_hard_negatives, read_json, read_jsonl, save_queries, split_queries,
                   write_csv, write_json)
from .experiments import ComparisonSettings, fixed_provider, run_comparison, synthetic_provider
from .metrics import ScorePool, evaluate, histogram, roc_curve
from .objectives import check_tau, gaussian_degradation_demo, mw_bound_check
from .prng import Xoshiro256StarStar, derive_seed
from .scoring import comparison_counts
from .synthetic import SyntheticSpec, make_offset_demo_pools
from .trainer import LOSS_KINDS, TrainConfig, TrainingDiverged, ablation_sweep, train

# Encoder shape used when no checkpoint or config supplies one. Smaller
# than the EncoderConfig defaults so CLI runs stay fast on a laptop.
CLI_HASH_DIM = 8192
CLI_EMBED_DIM = 32
CLI_PROJ_DIM = 16

_TRAIN_FIELDS = {f.name for f in dataclass_fields(TrainConfig)}
_ENCODER_KEYS = {"hash_dim", "embed_dim", "proj_dim"}


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    raw = read_json(path, "config")
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    unknown = set(raw) - _TRAIN_FIELDS - _ENCODER_KEYS
    if unknown:
        raise ValueError(f"{path}: unknown config keys {sorted(unknown)}")
    return raw


def _build_configs(args, config: dict) -> tuple[TrainConfig, enc.EncoderConfig]:
    overrides = {k: v for k, v in config.items() if k in _TRAIN_FIELDS}
    if getattr(args, "loss", None) is not None:
        overrides["loss_kind"] = args.loss
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    train_cfg = TrainConfig(**overrides)
    encoder_cfg = enc.EncoderConfig(
        hash_dim=config.get("hash_dim", CLI_HASH_DIM),
        embed_dim=config.get("embed_dim", CLI_EMBED_DIM),
        proj_dim=config.get("proj_dim", CLI_PROJ_DIM),
        seed=derive_seed(train_cfg.seed, 1),
    )
    return train_cfg, encoder_cfg


def _evaluate_checkpoint(args) -> tuple[ScorePool, dict]:
    """The evaluation bundle of --checkpoint on --queries against --corpus."""
    corpus = load_corpus(args.corpus)
    queries = load_queries(args.queries, corpus)
    params, _ = enc.load_checkpoint(args.checkpoint)
    scores = enc.make_scorer(params)(queries, corpus)
    return evaluate(scores, queries, corpus, top_k=args.top_k)


def cmd_mine(args) -> int:
    corpus = load_corpus(args.corpus)
    queries = load_queries(args.queries, corpus)
    if args.checkpoint:
        params, _ = enc.load_checkpoint(args.checkpoint)
    else:
        params = enc.init_params(_build_configs(args, {})[1])
    mined = mine_hard_negatives(queries, corpus, enc.make_scorer(params), k=args.top_k)
    save_queries(mined, args.out)
    short = sum(1 for q in mined if len(q.hard_negative_ids) < args.top_k)
    print(f"mined {len(mined)} queries -> {args.out} "
          f"({short} with fewer than {args.top_k} negatives)")
    return 0


def _load_split_inputs(args):
    """(train config, encoder config, train split, eval split, corpus) of
    the --corpus, --queries, --config and fraction flags of train and
    ablate."""
    corpus = load_corpus(args.corpus)
    queries = load_queries(args.queries, corpus)
    train_cfg, encoder_cfg = _build_configs(args, _load_config(args.config))
    split = SplitSpec(args.train_fraction, args.eval_fraction,
                      seed=derive_seed(train_cfg.seed, 12))
    train_qs, eval_qs, _ = split_queries(queries, split)
    return train_cfg, encoder_cfg, train_qs, eval_qs, corpus


def cmd_train(args) -> int:
    train_cfg, encoder_cfg, train_qs, eval_qs, corpus = _load_split_inputs(args)
    _, report = train(train_cfg, train_qs, eval_qs, corpus, encoder_cfg, out_dir=args.out)
    print(f"trained {train_cfg.loss_kind} for {len(report.steps)} steps; "
          f"best step {report.best_checkpoint_step}; report in {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    pool, metrics = _evaluate_checkpoint(args)
    auc_value = metrics["auc"]
    write_json(Path(args.out) / "metrics.json", {
        "auc": auc_value,
        "aoc": 1.0 - auc_value,
        "mrr_at_10": metrics["mrr10"],
        "ndcg_at_10": metrics["ndcg10"],
        "n_pos": pool.n_pos,
        "n_neg": pool.n_neg,
    })
    print(f"auc={auc_value!r} n_pos={pool.n_pos} n_neg={pool.n_neg}")
    return 0


def cmd_roc(args) -> int:
    pool, _ = _evaluate_checkpoint(args)
    curve = roc_curve(pool)
    write_csv(Path(args.out) / "roc.csv", None, curve.points)
    print(f"wrote {len(curve.points)} roc points, area={curve.area()!r}")
    return 0


def cmd_histogram(args) -> int:
    pool, _ = _evaluate_checkpoint(args)
    hist = histogram(pool, bins=args.bins)
    write_csv(Path(args.out) / "hist.csv", None,
              zip(hist.edges[:-1], hist.edges[1:], hist.pos_counts, hist.neg_counts))
    print(f"wrote {hist.bins} bins, overlap={hist.overlap_coefficient()!r}")
    return 0


def cmd_compare(args) -> int:
    config = _load_config(args.config)
    if args.top_k is not None:
        config["eval_top_k"] = args.top_k
    train_cfg, encoder_cfg = _build_configs(args, config)
    settings = ComparisonSettings(
        base_config=train_cfg, encoder=encoder_cfg, mine_k=args.mine_k, bins=args.bins,
    )
    if args.synthetic:
        template = SyntheticSpec(n_queries=args.synth_queries, n_docs=args.synth_docs)
        provider = synthetic_provider(template)
    else:
        if not (args.corpus and args.queries):
            raise ValueError("compare needs --synthetic or both --corpus and --queries")
        corpus = load_corpus(args.corpus)
        queries = load_queries(args.queries, corpus)
        provider = fixed_provider(corpus, queries)
    result = run_comparison(args.seeds, provider, settings)
    write_json(Path(args.out) / "compare.json", result)
    mean = result["mean"]
    print(f"auc cl={mean['auc_cl']!r} mw={mean['auc_mw']!r} gain={mean['auc_gain']!r}")
    return 0


def cmd_lemma1_demo(args) -> int:
    if args.pool:
        pools = read_jsonl(args.pool, "pool",
                           lambda obj: ScorePool(obj["positives"], obj["negatives"]))
        if not pools:
            raise ValueError(f"{args.pool}: no pools found")
    elif args.synthetic:
        rng = Xoshiro256StarStar(derive_seed(args.seed, 20))
        pools = make_offset_demo_pools(args.n_queries, rng)
    else:
        raise ValueError("lemma1-demo needs --pool FILE or --synthetic")
    # every row first, so a bad --sigma leaves no partial --out file
    rows = [
        (sigma, *gaussian_degradation_demo(
            pools, sigma, Xoshiro256StarStar(derive_seed(args.seed, 100 + i)), tau=args.tau))
        for i, sigma in enumerate(args.sigma)
    ]
    out = Path(args.out)
    write_csv(out, ("sigma", "aoc_before", "aoc_after", "cl_before", "cl_after"), rows)
    print(f"wrote {len(args.sigma)} rows -> {out}")
    return 0


def cmd_lemma2_check(args) -> int:
    for flag, value in (("--trials", args.trials), ("--max-side", args.max_side)):
        if value < 1:
            raise ValueError(f"{flag} must be >= 1, got {value}")
    for tau in args.tau:  # every one, also those the trials never reach
        check_tau(tau)
    rng = Xoshiro256StarStar(derive_seed(args.seed, 30))
    violations = 0
    for trial in range(args.trials):
        tau = args.tau[trial % len(args.tau)]
        n_pos = 1 + rng.below(args.max_side)
        n_neg = 1 + rng.below(args.max_side)
        # random per-trial location and width keep the pools varied
        center = rng.uniform(-0.5, 0.5, 2)
        pos = rng.uniform(center[0] - 1.0, center[0] + 1.0, n_pos)
        neg = rng.uniform(center[1] - 1.0, center[1] + 1.0, n_neg)
        pool = ScorePool(pos, neg)
        aoc, mw, holds = mw_bound_check(pool, tau)
        if not holds:
            violations += 1
            dump = {"tau": tau, "aoc": aoc, "mw": mw,
                    "positives": pos.tolist(), "negatives": neg.tolist()}
            print(json.dumps(dump, sort_keys=True), file=sys.stderr)
    print(f"trials={args.trials} violations={violations}")
    return 0 if violations == 0 else 1


def cmd_counts(args) -> int:
    cl_terms, mw_terms = comparison_counts(args.B, args.H)
    print(f"cl_terms={cl_terms} mw_terms={mw_terms}")
    return 0


def cmd_ablate(args) -> int:
    train_cfg, encoder_cfg, train_qs, eval_qs, corpus = _load_split_inputs(args)
    rows = ablation_sweep(
        args.lrs, args.batch_sizes, args.hard_negatives,
        train_cfg, train_qs, eval_qs, corpus, encoder_cfg,
    )
    out = Path(args.out) / "ablation.csv"
    write_csv(out, rows[0].keys(), (row.values() for row in rows))
    print(f"wrote {len(rows)} rows -> {out}")
    return 0


def _add_eval_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--corpus", required=True, help="corpus JSONL")
    p.add_argument("--queries", required=True, help="query JSONL")
    p.add_argument("--checkpoint", required=True, help="encoder checkpoint")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--top-k", type=int, default=500, dest="top_k",
                   help="negatives pooled per query (default 500)")


def _add_split_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--corpus", required=True)
    p.add_argument("--queries", required=True, help="query JSONL (mined if H > 0)")
    p.add_argument("--config", help="JSON training config")
    p.add_argument("--out", required=True)
    p.add_argument("--loss", choices=LOSS_KINDS)
    p.add_argument("--seed", type=int)
    p.add_argument("--train-fraction", type=float, default=TRAIN_FRACTION, dest="train_fraction")
    p.add_argument("--eval-fraction", type=float, default=EVAL_FRACTION, dest="eval_fraction")


class _Parser(argparse.ArgumentParser):
    """Reads an argument that is a float in any spelling (-1e-3, -inf) as
    a value: argparse alone takes only -1 and -1.5 for negative numbers,
    and -1e-3 for an unknown option."""

    def _parse_optional(self, arg_string):
        try:
            float(arg_string)
        except ValueError:
            return super()._parse_optional(arg_string)
        return None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mwlab",
        description="Train and dissect dual-encoder retrievers under the "
                    "softmax contrastive loss and the pairwise Mann-Whitney loss.",
        allow_abbrev=False,
    )
    # no flag prefixes: `--seed 3` must not silently mean `--seeds 3`
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=partial(_Parser, allow_abbrev=False))

    p = sub.add_parser("mine", help="attach brute-force hard negatives to queries")
    p.add_argument("--corpus", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--out", required=True, help="augmented query JSONL")
    p.add_argument("--top-k", type=int, default=500, dest="top_k")
    p.add_argument("--checkpoint", help="scorer checkpoint (default: fresh encoder)")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_mine)

    p = sub.add_parser("train", help="train one model and write reports/checkpoints")
    _add_split_args(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="pooled AUC protocol -> metrics.json")
    _add_eval_args(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("roc", help="pooled ROC sweep -> roc.csv")
    _add_eval_args(p)
    p.set_defaults(func=cmd_roc)

    p = sub.add_parser("histogram", help="pooled score histogram -> hist.csv")
    _add_eval_args(p)
    p.add_argument("--bins", type=int, default=50)
    p.set_defaults(func=cmd_histogram)

    p = sub.add_parser("compare", help="train both losses under identical conditions")
    p.add_argument("--corpus")
    p.add_argument("--queries")
    p.add_argument("--synthetic", action="store_true",
                   help="generate the planted-offset benchmark instead of loading files")
    p.add_argument("--synth-queries", type=int, default=2000, dest="synth_queries")
    p.add_argument("--synth-docs", type=int, default=5000, dest="synth_docs")
    p.add_argument("--config", help="JSON training config (loss_kind ignored)")
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--mine-k", type=int, default=50, dest="mine_k")
    p.add_argument("--top-k", type=int, dest="top_k",
                   help="negatives pooled per query (default: the config's eval_top_k)")
    p.add_argument("--bins", type=int, default=50)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("lemma1-demo",
                       help="per-query Gaussian offsets: pooled AoC degrades, softmax loss blind")
    p.add_argument("--pool", help="per-query pools JSONL ({positives, negatives} per line)")
    p.add_argument("--synthetic", action="store_true")
    p.add_argument("--n-queries", type=int, default=250, dest="n_queries")
    p.add_argument("--sigma", type=float, nargs="+", required=True)
    p.add_argument("--tau", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_lemma1_demo)

    p = sub.add_parser("lemma2-check",
                       help="verify strict AoC <= pairwise BCE / log 2 on random pools")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--max-side", type=int, default=500, dest="max_side")
    p.add_argument("--tau", type=float, nargs="+", default=[0.01, 0.1, 1.0])
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_lemma2_check)

    p = sub.add_parser("ablate", help="grid sweep over lr/B/H -> ablation.csv")
    _add_split_args(p)
    p.add_argument("--lrs", type=float, nargs="+", required=True)
    p.add_argument("--batch-sizes", type=int, nargs="+", required=True, dest="batch_sizes")
    p.add_argument("--hard-negatives", type=int, nargs="+", required=True, dest="hard_negatives")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("counts", help="comparison-term counts for a (B, H) batch")
    p.add_argument("B", type=int)
    p.add_argument("H", type=int)
    p.set_defaults(func=cmd_counts)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, KeyError, MemoryError, TrainingDiverged) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
