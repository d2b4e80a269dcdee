"""The benchmark workloads and the checks on their outputs.

Every workload is a closed batch job that runs to completion. Each one
trains (so ``train_steps_per_s`` is measured everywhere) and evaluates
(so ``eval_queries_per_s`` is too); what differs is which layer carries
the work:

* ``compare-synth``: ``mwlab compare --synthetic`` through ``cli.main``,
  the paper's experiment as users run it. Every layer takes a share.
* ``train-wide-mw``: ``trainer.train`` with MW at B=128, H=7, where the
  pairwise loss over B x B(HB+B-1) pairs dominates time and memory.
* ``eval-large``: a briefly trained model scored by the evaluation
  bundle over 2000 queries x 5000 docs, where mining and the rank
  statistics dominate.

All mwlab calls go through module attributes (``trainer.train``, not a
name imported here) so that the instrumentation sees them.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from mwlab import cli, data, encoder, metrics, objectives, prng, synthetic, trainer

CLI_ENCODER = dict(hash_dim=cli.CLI_HASH_DIM, embed_dim=cli.CLI_EMBED_DIM, proj_dim=cli.CLI_PROJ_DIM)
TOY_ENCODER = dict(hash_dim=1024, embed_dim=16, proj_dim=8)


class JobFailed(RuntimeError):
    """The program under test reported failure (e.g. a non-zero exit)."""


@dataclass(frozen=True)
class Size:
    n_queries: int
    n_docs: int
    mine_k: int = 50
    B: int = 32
    H: int = 5
    max_epochs: int = 1
    train_fraction: float = 0.8
    eval_fraction: float = 0.1
    eval_batches: int = 4
    top_k: int = 500
    evals: int = 1  # evaluations per train() call, evenly spaced, the last at the last step
    encoder: dict = field(default_factory=lambda: dict(CLI_ENCODER))  # EncoderConfig shape


class Workload:
    name = ""
    loss_kinds: tuple[str, ...] = ()  # one train() call per entry, in order
    sizes: dict[str, Size] = {}

    def run(self, seed: int, size: Size, workdir: Path, probe) -> dict:
        """Run the job once; return its outputs for quality() and check()."""
        raise NotImplementedError

    def quality(self, out: dict, probe) -> dict[str, float]:
        """auc_<loss> and mrr10_<loss> of the final evaluation of each
        trained model; recorded per job, not an end-to-end metric."""
        q = {}
        for call in probe.trains:
            if call.report.evals:
                last = call.report.evals[-1]
                q[f"auc_{call.config.loss_kind}"] = last.auc
                q[f"mrr10_{call.config.loss_kind}"] = last.mrr10
        return q

    def check(self, out: dict, probe) -> list[str]:
        """Failed checks, as messages; empty when the outputs are right."""
        return check_trains(probe, self.loss_kinds)


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            part = np.ascontiguousarray(part).tobytes()
        elif not isinstance(part, bytes):
            part = repr(part).encode()
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()


def train_digest_parts(probe) -> list:
    parts = []
    for call in probe.trains:
        r = call.report
        parts += [call.params.embedding, call.params.projection, r.steps,
                  [(e.step, e.eval_loss, e.auc, e.mrr10, e.ndcg10) for e in r.evals],
                  r.best_checkpoint_step]
    return parts


def check_trains(probe, loss_kinds) -> list[str]:
    """The expected train() calls ran; their losses, evaluation metrics
    and final parameters are finite."""
    fails = []
    kinds = tuple(c.config.loss_kind for c in probe.trains)
    if kinds != tuple(loss_kinds):
        fails.append(f"expected train() calls {loss_kinds}, saw {kinds}")
    for call in probe.trains:
        kind = call.config.loss_kind
        losses = np.array([s[1] for s in call.report.steps], dtype=np.float64)
        if len(losses) == 0 or not np.isfinite(losses).all():
            fails.append(f"{kind}: training losses missing or not finite")
        if not (np.isfinite(call.params.embedding).all() and np.isfinite(call.params.projection).all()):
            fails.append(f"{kind}: final parameters not finite")
        if not call.report.evals:
            fails.append(f"{kind}: no evaluation recorded")
        elif not all(math.isfinite(v) for e in call.report.evals
                     for v in (e.eval_loss, e.auc, e.mrr10, e.ndcg10)):
            fails.append(f"{kind}: evaluation metrics not finite")
    return fails


def planted_data(seed: int, size: Size, mine_config: encoder.EncoderConfig):
    """The planted-offset benchmark mined with a fresh encoder, as
    ``experiments.run_single_seed`` prepares it."""
    spec = synthetic.SyntheticSpec(n_queries=size.n_queries, n_docs=size.n_docs,
                                   seed=prng.derive_seed(seed, 10))
    corpus, queries = synthetic.make_benchmark(spec)
    scorer = encoder.make_scorer(encoder.init_params(mine_config))
    return corpus, data.mine_hard_negatives(queries, corpus, scorer, k=size.mine_k)


def encoder_config(shape: dict, seed: int) -> encoder.EncoderConfig:
    return encoder.EncoderConfig(**shape, seed=prng.derive_seed(seed, 1))


def train_once(seed: int, size: Size, kind: str, corpus, queries, enc_cfg):
    """One trainer.train call of a fixed number of steps (patience never
    runs out). Returns the (train, eval, test) split."""
    split = data.SplitSpec(size.train_fraction, size.eval_fraction, seed=prng.derive_seed(seed, 12))
    train_qs, eval_qs, test_qs = data.split_queries(queries, split)
    steps = size.max_epochs * -(-len(train_qs) // size.B)
    config = trainer.TrainConfig(loss_kind=kind, B=size.B, H=size.H, max_epochs=size.max_epochs,
                                 eval_every=steps // size.evals, patience=size.evals, seed=seed,
                                 eval_batches=size.eval_batches, eval_top_k=size.top_k)
    trainer.train(config, train_qs, eval_qs, corpus, enc_cfg)
    return train_qs, eval_qs, test_qs


class CompareSynth(Workload):
    name = "compare-synth"
    loss_kinds = ("cl", "mw")
    sizes = {
        "full": Size(n_queries=400, n_docs=1000),
        "toy": Size(n_queries=60, n_docs=150, mine_k=10, B=4, H=2, max_epochs=2, top_k=20),
    }

    def run(self, seed, size, workdir, probe):
        argv = ["compare", "--synthetic", "--synth-queries", str(size.n_queries),
                "--synth-docs", str(size.n_docs), "--seeds", str(seed),
                "--out", str(workdir), "--mine-k", str(size.mine_k), "--top-k", str(size.top_k)]
        if size != self.sizes["full"]:
            # toy runs shrink the TrainConfig; the full run uses its defaults
            config = workdir / "config.json"
            workdir.mkdir(parents=True, exist_ok=True)
            config.write_text(json.dumps({
                "B": size.B, "H": size.H, "max_epochs": size.max_epochs,
                "eval_every": 3, "warmup_steps": 2, "eval_batches": 1, **TOY_ENCODER,
            }))
            argv += ["--config", str(config)]
        rc = cli.main(argv)
        if rc != 0:
            raise JobFailed(f"mwlab compare exited {rc}")
        raw = (workdir / "compare.json").read_bytes()
        return {"compare": json.loads(raw),
                "digest": digest(raw, *train_digest_parts(probe))}

    def quality(self, out, probe):
        mean = out["compare"]["mean"]
        return {k: mean[k] for k in ("auc_cl", "auc_mw", "mrr10_cl", "mrr10_mw")}

    def check(self, out, probe):
        fails = check_trains(probe, self.loss_kinds)
        bad = [k for k, v in out["compare"]["mean"].items() if not math.isfinite(v)]
        if bad:
            fails.append(f"compare.json has non-finite means {bad}")
        return fails


class TrainWideMW(Workload):
    name = "train-wide-mw"
    loss_kinds = ("mw",)
    sizes = {
        "full": Size(n_queries=2000, n_docs=5000, B=128, H=7, train_fraction=0.25,
                     eval_fraction=0.3, eval_batches=1, top_k=100),
        "toy": Size(n_queries=80, n_docs=200, mine_k=10, B=8, H=3, train_fraction=0.25,
                    eval_fraction=0.15, eval_batches=1, top_k=20, encoder=TOY_ENCODER),
    }

    def run(self, seed, size, workdir, probe):
        enc_cfg = encoder_config(size.encoder, seed)
        corpus, queries = planted_data(seed, size, enc_cfg)
        _, eval_qs, _ = train_once(seed, size, "mw", corpus, queries, enc_cfg)
        return {"digest": digest(*train_digest_parts(probe)), "corpus": corpus, "eval_qs": eval_qs}

    def check(self, out, probe):
        fails = check_trains(probe, self.loss_kinds)
        for call in probe.trains:
            # one evaluation, at the last step, so the returned params are the
            # ones that final evaluation scored
            scorer = encoder.make_scorer(call.params)
            pool, _ = metrics.pooled_auc_protocol(out["eval_qs"], out["corpus"], scorer,
                                                  top_k=call.config.eval_top_k)
            aoc, mw, holds = objectives.mw_bound_check(pool, call.config.tau)
            if not holds:
                fails.append(f"Lemma 2 bound violated: strict AoC {aoc!r} > MW/log2 {mw / objectives.LOG2!r}")
        return fails


class EvalLarge(Workload):
    name = "eval-large"
    loss_kinds = ("cl",)
    sizes = {
        "full": Size(n_queries=2000, n_docs=5000, train_fraction=0.1, max_epochs=4,
                     eval_batches=1),
        "toy": Size(n_queries=80, n_docs=200, mine_k=10, B=4, H=2, train_fraction=0.1,
                    eval_batches=1, top_k=20, encoder=TOY_ENCODER),
    }
    bins = 50
    depth = 10

    def run(self, seed, size, workdir, probe):
        enc_cfg = encoder_config(size.encoder, seed)
        corpus, queries = planted_data(seed, size, enc_cfg)
        # a short training run, so the model under evaluation has been trained
        train_once(seed, size, "cl", corpus, queries, enc_cfg)
        scorer = encoder.make_scorer(probe.trains[-1].params)
        pool, auc = metrics.pooled_auc_protocol(queries, corpus, scorer, top_k=size.top_k)
        lists = metrics.ranked_lists(queries, corpus, scorer, depth=self.depth)
        curve = metrics.roc_curve(pool)
        hist = metrics.histogram(pool, self.bins)
        ranked = [rl.ranked_ids for rl in lists]
        return {
            "pool": pool, "auc": auc, "curve": curve, "hist": hist,
            "mrr10": metrics.mrr_at_k(lists, 10),
            "digest": digest(*train_digest_parts(probe), pool.positives, pool.negatives, auc,
                             ranked, curve.points, hist.pos_counts, hist.neg_counts),
        }

    def quality(self, out, probe):
        return {"auc_cl": out["auc"], "mrr10_cl": out["mrr10"]}

    def check(self, out, probe):
        fails = check_trains(probe, self.loss_kinds)
        pool, auc = out["pool"], out["auc"]
        u_ref = pair_count_u(pool)
        # auc = U / (n_pos n_neg); distinct U values (multiples of 0.5, far
        # below 2**53) divide to distinct doubles, so this equality holds
        # exactly iff U equals the independent count
        if auc != u_ref / (pool.n_pos * pool.n_neg):
            fails.append(f"U disagrees with the searchsorted pair count {u_ref!r}")
        area = out["curve"].area()
        if abs(area - auc) > 1e-12:
            fails.append(f"ROC area {area!r} != auc {auc!r}")
        hist = out["hist"]
        if hist.pos_counts.sum() != pool.n_pos or hist.neg_counts.sum() != pool.n_neg:
            fails.append("histogram counts do not sum to the pool sizes")
        return fails


def pair_count_u(pool) -> float:
    """#(s+ > s-) + 0.5 #(s+ = s-) by binary search, independent of the
    midrank computation in metrics.mann_whitney_u."""
    neg = np.sort(pool.negatives)
    below = np.searchsorted(neg, pool.positives, side="left")
    ties = np.searchsorted(neg, pool.positives, side="right") - below
    return float(int(below.sum())) + 0.5 * int(ties.sum())


WORKLOADS = {w.name: w for w in (CompareSynth(), TrainWideMW(), EvalLarge())}
