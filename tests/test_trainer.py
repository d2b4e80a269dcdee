"""Tests for the training loop: the determinism contract and up-front
validation of the evaluation split."""

from dataclasses import replace

import numpy as np
import pytest

from mwlab import trainer
from mwlab.data import SplitSpec, mine_hard_negatives, split_queries
from mwlab.encoder import EncoderConfig, init_params, make_scorer
from mwlab.synthetic import SyntheticSpec, make_benchmark
from mwlab.trainer import TrainConfig, train

ENCODER = EncoderConfig(hash_dim=256, embed_dim=8, proj_dim=4, seed=5)
# 36 train queries: 6 steps per epoch, evaluations at steps 3, 6, 9, 12
MW_CONFIG = TrainConfig(
    loss_kind="mw", B=6, H=2, tau=0.05, base_lr=0.05, warmup_steps=2,
    max_epochs=2, eval_every=3, eval_batches=2, eval_top_k=20, seed=9,
)


@pytest.fixture(scope="module")
def toy_data():
    corpus, queries = make_benchmark(SyntheticSpec(n_queries=60, n_docs=120, seed=7))
    queries = mine_hard_negatives(queries, corpus, make_scorer(init_params(ENCODER)), k=4)
    train_qs, eval_qs, _ = split_queries(queries, SplitSpec(0.6, 0.3, seed=8))
    return corpus, train_qs, eval_qs


class TestDeterminism:
    def test_mw_runs_are_byte_identical(self, toy_data, tmp_path):
        corpus, train_qs, eval_qs = toy_data
        runs = [
            train(MW_CONFIG, train_qs, eval_qs, corpus, ENCODER, out_dir=tmp_path / name)
            for name in ("a", "b")
        ]
        (params_a, report), (params_b, _) = runs
        assert len(report.steps) == 12 and len(report.evals) == 4
        files = sorted(p.name for p in (tmp_path / "a").iterdir())
        assert {"report.json", "steps.csv", "evals.csv"} <= set(files)
        assert sorted(p.name for p in (tmp_path / "b").iterdir()) == files
        for name in files:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        np.testing.assert_array_equal(params_a.embedding, params_b.embedding)
        np.testing.assert_array_equal(params_a.projection, params_b.projection)
        # the runs trained: the winner is not the initialization
        assert not np.array_equal(params_a.embedding, init_params(ENCODER).embedding)


class TestEvalSplitValidation:
    @pytest.mark.parametrize("changes, message", [
        ({"B": 20}, r"eval split \(18 queries\): need 20 eligible"),
        ({"H": 5}, r"eval split \(18 queries\): .*>= 5 hard negatives"),
    ])
    def test_short_eval_split_fails_before_any_work(
        self, toy_data, monkeypatch, changes, message
    ):
        corpus, train_qs, eval_qs = toy_data

        def no_init(config):
            raise AssertionError("init_params ran before the eval split was checked")

        monkeypatch.setattr(trainer.enc, "init_params", no_init)
        with pytest.raises(ValueError, match=message):
            train(replace(MW_CONFIG, **changes), train_qs, eval_qs, corpus, ENCODER)

    def test_zero_epochs_needs_no_eval_batches(self, toy_data):
        corpus, train_qs, eval_qs = toy_data
        params, report = train(
            replace(MW_CONFIG, B=20, max_epochs=0), train_qs, eval_qs, corpus, ENCODER
        )
        np.testing.assert_array_equal(params.embedding, init_params(ENCODER).embedding)
        assert report.steps == []
