"""Tests for the training loop: the determinism contract, up-front
validation of both splits, the training step against text encoding and
finite differences, and Adam against its formula."""

from dataclasses import replace

import numpy as np
import pytest

from mwlab import trainer
from mwlab.data import QuerySet, SplitSpec, mine_hard_negatives, sample_batch, split_queries
from mwlab.encoder import (
    EncoderConfig,
    EncoderGrads,
    EncoderParams,
    encode_backward,
    encode_forward,
    init_params,
    load_checkpoint,
    make_scorer,
    prepare_tokens,
)
from mwlab.objectives import cl_loss, mw_loss
from mwlab.prng import Xoshiro256StarStar
from mwlab.scoring import backprop_scores, score_batch
from mwlab.synthetic import SyntheticSpec, make_benchmark
from mwlab.trainer import OptimizerState, TrainConfig, TrainingDiverged, adam_step, lr_at, train

from util import central_difference, naive_adam_step, relative_error

ENCODER = EncoderConfig(hash_dim=256, embed_dim=8, proj_dim=4, seed=5)
# 36 train queries: 6 steps per epoch, evaluations at steps 3, 6, 9, 12
MW_CONFIG = TrainConfig(
    loss_kind="mw", B=6, H=2, tau=0.05, base_lr=0.05, warmup_steps=2,
    max_epochs=2, eval_every=3, eval_batches=2, eval_top_k=20, seed=9,
)
LOSSES = {"cl": cl_loss, "mw": mw_loss}


@pytest.fixture(scope="module")
def toy_data():
    corpus, queries = make_benchmark(SyntheticSpec(n_queries=60, n_docs=120, seed=7))
    queries = mine_hard_negatives(queries, corpus, make_scorer(init_params(ENCODER)), k=4)
    train_qs, eval_qs, _ = split_queries(queries, SplitSpec(0.6, 0.3, seed=8))
    return corpus, train_qs, eval_qs


def gathered_batch(toy_data, seed: int = 3):
    """A training batch and its tokens gathered from the run's tables."""
    corpus, train_qs, _ = toy_data
    batch = sample_batch(train_qs, MW_CONFIG.B, MW_CONFIG.H, Xoshiro256StarStar(seed))
    q_tokens, p_tokens = trainer._gather(
        batch,
        train_qs, prepare_tokens([q.text for q in train_qs], ENCODER.hash_dim),
        corpus, prepare_tokens(corpus.texts, ENCODER.hash_dim),
    )
    return batch, q_tokens, p_tokens


def text_step(params, batch, corpus, tau, loss):
    """The training step with every batch text hashed afresh."""
    q_enc = encode_forward(params, [q.text for q in batch.queries])
    p_enc = encode_forward(params, [corpus[d].text for d in batch.passage_ids])
    out = loss(score_batch(q_enc.vectors, p_enc.vectors, tau))
    d_q, d_p = backprop_scores(out.d_sim, q_enc.vectors, p_enc.vectors)
    grads = encode_backward(q_enc, d_q, params)
    grads.add_(encode_backward(p_enc, d_p, params))
    return out.value, grads


class TestDeterminism:
    @pytest.mark.parametrize("loss_kind", ["cl", "mw"])
    def test_runs_are_byte_identical(self, toy_data, tmp_path, loss_kind):
        corpus, train_qs, eval_qs = toy_data
        config = replace(MW_CONFIG, loss_kind=loss_kind)
        runs = [
            train(config, train_qs, eval_qs, corpus, ENCODER, out_dir=tmp_path / name)
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
        # the best checkpoint holds the returned parameters bit for bit
        saved, step = load_checkpoint(tmp_path / "a" / f"ckpt_{report.best_checkpoint_step}")
        assert step == report.best_checkpoint_step
        np.testing.assert_array_equal(saved.embedding, params_a.embedding)
        np.testing.assert_array_equal(saved.projection, params_a.projection)
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


def short_train_splits(train_qs):
    """Train splits the eval split outlasts at B=6, H=2."""
    few = QuerySet(list(train_qs)[:5])
    one_negative = QuerySet(
        [replace(q, hard_negative_ids=q.hard_negative_ids[:1]) for q in train_qs])
    return [
        (few, r"train split \(5 queries\): need 6 eligible"),
        (one_negative, r"train split \(36 queries\): .*>= 2 hard negatives"),
    ]


class TestTrainSplitValidation:
    @pytest.mark.parametrize("case", [0, 1])
    def test_short_train_split_fails_before_any_work(self, toy_data, monkeypatch, case):
        corpus, train_qs, eval_qs = toy_data
        short, message = short_train_splits(train_qs)[case]

        def no_init(config):
            raise AssertionError("init_params ran before the train split was checked")

        monkeypatch.setattr(trainer.enc, "init_params", no_init)
        with pytest.raises(ValueError, match=message):
            train(MW_CONFIG, short, eval_qs, corpus, ENCODER)

    def test_zero_epochs_needs_no_train_batch(self, toy_data):
        corpus, train_qs, eval_qs = toy_data
        short, _ = short_train_splits(train_qs)[0]
        params, report = train(
            replace(MW_CONFIG, max_epochs=0), short, eval_qs, corpus, ENCODER
        )
        np.testing.assert_array_equal(params.embedding, init_params(ENCODER).embedding)
        assert report.steps == []


class TestTrainStep:
    @pytest.mark.parametrize("loss_kind", ["cl", "mw"])
    def test_gathered_tokens_match_text_encoding(self, toy_data, loss_kind):
        corpus = toy_data[0]
        params = init_params(ENCODER)
        batch, q_tokens, p_tokens = gathered_batch(toy_data)
        loss = LOSSES[loss_kind]
        value, grads = trainer._train_step(params, q_tokens, p_tokens, MW_CONFIG.tau, loss)
        ref_value, ref_grads = text_step(params, batch, corpus, MW_CONFIG.tau, loss)
        assert value == ref_value
        np.testing.assert_array_equal(grads.embedding, ref_grads.embedding)
        np.testing.assert_array_equal(grads.projection, ref_grads.projection)

    @pytest.mark.parametrize("loss_kind", ["cl", "mw"])
    def test_gradient_matches_finite_differences(self, toy_data, loss_kind):
        params = init_params(ENCODER)
        _, q_tokens, p_tokens = gathered_batch(toy_data)
        loss = LOSSES[loss_kind]
        _, grads = trainer._train_step(params, q_tokens, p_tokens, MW_CONFIG.tau, loss)
        touched = np.flatnonzero(np.any(grads.embedding != 0.0, axis=1))
        assert 0 < len(touched) < ENCODER.hash_dim
        checked = 0
        for name in ("embedding", "projection"):
            g = getattr(grads, name)
            # the three largest entries plus a middling one, within the
            # touched rows for the embedding
            rows = touched if name == "embedding" else np.arange(g.shape[0])
            flat = np.argsort(-np.abs(g[rows]), axis=None, kind="stable")
            for k in (*flat[:3], flat[len(flat) // 4]):
                r, c = np.unravel_index(k, g[rows].shape)
                r = rows[r]

                def value_at(x, name=name, r=r, c=c):
                    perturbed = params.copy()
                    getattr(perturbed, name)[r, c] = x
                    return trainer._train_step(
                        perturbed, q_tokens, p_tokens, MW_CONFIG.tau, loss)[0]

                x0 = getattr(params, name)[r, c]
                numeric = central_difference(value_at, x0, 1e-6)
                assert g[r, c] != 0.0
                assert relative_error(numeric, g[r, c]) < 1e-6, (name, r, c)
                checked += 1
        assert checked == 8


def row_sparse_grads(rng, params, touched_frac: float) -> EncoderGrads:
    """A dense projection gradient and an embedding gradient that is zero
    outside a random subset of rows, with entries across many scales."""
    emb = np.zeros_like(params.embedding)
    rows = rng.random(emb.shape[0]) < touched_frac
    emb[rows] = rng.normal(size=(rows.sum(), emb.shape[1])) * 10.0 ** rng.integers(
        -8, 3, size=(rows.sum(), 1))
    proj = rng.normal(size=params.projection.shape) * 10.0 ** rng.integers(
        -8, 3, size=params.projection.shape)
    return EncoderGrads(embedding=emb, projection=proj)


def snapshot(params: EncoderParams, state: OptimizerState) -> list[bytes]:
    arrays = (params.embedding, params.projection, state.m.embedding,
              state.m.projection, state.v.embedding, state.v.projection)
    return [a.tobytes() for a in arrays] + [repr(state.step).encode()]


class TestAdam:
    def test_matches_formula_bit_for_bit(self):
        rng = np.random.default_rng(11)
        config = replace(MW_CONFIG, base_lr=1e-3, warmup_steps=10)
        fast = init_params(EncoderConfig(hash_dim=512, embed_dim=16, proj_dim=8, seed=2))
        slow = fast.copy()
        fast_state, slow_state = OptimizerState.for_params(fast), OptimizerState.for_params(slow)
        for step in range(1, 26):
            grads = row_sparse_grads(rng, fast, touched_frac=0.1)
            lr = lr_at(step, config)
            adam_step(fast, grads, fast_state, lr)
            naive_adam_step(slow, grads, slow_state, lr)
            assert snapshot(fast, fast_state) == snapshot(slow, slow_state), step
        # rows never touched still moved: the moments decay everywhere
        assert not np.array_equal(fast.embedding, init_params(fast.config).embedding)

    @pytest.mark.parametrize("where, bad", [
        ("embedding", np.nan), ("projection", np.inf), ("embedding", -np.inf),
    ])
    def test_non_finite_gradient_changes_nothing(self, where, bad):
        rng = np.random.default_rng(4)
        params = init_params(EncoderConfig(hash_dim=64, embed_dim=8, proj_dim=4, seed=1))
        state = OptimizerState.for_params(params)
        adam_step(params, row_sparse_grads(rng, params, 0.5), state, 1e-3)
        before = snapshot(params, state)
        grads = row_sparse_grads(rng, params, 0.5)
        getattr(grads, where)[1, 2] = bad
        with pytest.raises(TrainingDiverged, match="optimizer step 2"):
            adam_step(params, grads, state, 1e-3)
        assert snapshot(params, state) == before
