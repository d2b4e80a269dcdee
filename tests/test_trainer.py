"""Tests for the training loop: the determinism contract, up-front
validation of both splits, the training step against text encoding and
finite differences, training on the sub-table of touchable rows, and Adam
against its formula."""

import hashlib
from dataclasses import astuple, replace

import numpy as np
import pytest

from mwlab import trainer
from mwlab.data import (Corpus, QuerySet, SplitSpec, batch_rows, mine_hard_negatives, sample_batch,
                        split_queries)
from mwlab.encoder import (
    EncoderConfig,
    EncoderGrads,
    EncoderParams,
    ScoreRows,
    encode_backward,
    init_params,
    load_checkpoint,
    make_scorer,
    prepare_tokens,
)
from mwlab.objectives import cl_loss, mw_loss
from mwlab.prng import Xoshiro256StarStar
from mwlab.scoring import backprop_scores, score_batch
from mwlab.synthetic import SyntheticSpec, make_benchmark
from mwlab.trainer import (OptimizerState, TrainConfig, TrainingDiverged, ablation_sweep, adam_step,
                           lr_at, train)

from util import central_difference, encode_forward, naive_adam_step, relative_error

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
    """A training batch's rows and its tokens gathered from the run's tables."""
    corpus, train_qs, _ = toy_data
    rows = sample_batch(batch_rows(train_qs, corpus, MW_CONFIG.B, MW_CONFIG.H),
                        Xoshiro256StarStar(seed))
    q_tokens = prepare_tokens(train_qs.texts, ENCODER.hash_dim)[rows[0]]
    p_tokens = prepare_tokens(corpus.texts, ENCODER.hash_dim)[rows[1]]
    return rows, q_tokens, p_tokens


def text_step(params, rows, queries, corpus, tau, loss):
    """The training step with every batch text hashed afresh."""
    q_rows, p_rows = rows
    q_enc = encode_forward(params, [queries[i].text for i in q_rows])
    p_enc = encode_forward(params, [corpus.texts[j] for j in p_rows])
    out = loss(score_batch(q_enc.vectors, p_enc.vectors, tau))
    d_q, d_p = backprop_scores(out.d_sim, q_enc.vectors, p_enc.vectors)
    grads = encode_backward(q_enc, d_q, params)
    grads.add_(encode_backward(p_enc, d_p, params))
    return out.value, grads


class TestDeterminism:
    @pytest.mark.parametrize("loss_kind", trainer.LOSS_KINDS)
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


def test_train_builds_batch_rows_once_per_split(toy_data, monkeypatch):
    corpus, train_qs, eval_qs = toy_data
    built, drawn_from, lookups = [], [], []
    columns = Corpus.columns

    def counting_columns(self, doc_ids):
        lookups.append(doc_ids)
        return columns(self, doc_ids)

    def counting_batch_rows(queries, *args):
        built.append(queries)
        return batch_rows(queries, *args)

    def recording_sample_batch(rows, rng):
        before = len(lookups)
        drawn_from.append(rows)
        batch = sample_batch(rows, rng)
        assert len(lookups) == before, "a draw looked up a document id"
        return batch

    monkeypatch.setattr(Corpus, "columns", counting_columns)
    monkeypatch.setattr(trainer, "batch_rows", counting_batch_rows)
    monkeypatch.setattr(trainer, "sample_batch", recording_sample_batch)
    _, report = train(MW_CONFIG, train_qs, eval_qs, corpus, ENCODER)
    assert built == [eval_qs, train_qs]
    assert lookups  # the rows were built through Corpus.columns
    # the eval batches, then one draw per step, all from the two row sets
    assert len(drawn_from) == MW_CONFIG.eval_batches + len(report.steps)
    assert len({id(rows) for rows in drawn_from}) == 2


class TestTrainStep:
    @pytest.mark.parametrize("loss_kind", trainer.LOSS_KINDS)
    def test_gathered_tokens_match_text_encoding(self, toy_data, loss_kind):
        corpus, train_qs, _ = toy_data
        params = init_params(ENCODER)
        rows, q_tokens, p_tokens = gathered_batch(toy_data)
        loss = LOSSES[loss_kind]
        value, grads = trainer._train_step(params, q_tokens, p_tokens, MW_CONFIG.tau, loss)
        ref_value, ref_grads = text_step(params, rows, train_qs, corpus, MW_CONFIG.tau, loss)
        assert value == ref_value
        np.testing.assert_array_equal(grads.embedding, ref_grads.embedding)
        np.testing.assert_array_equal(grads.projection, ref_grads.projection)

    @pytest.mark.parametrize("loss_kind", trainer.LOSS_KINDS)
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


# 4096 buckets: the toy runs hash to a few hundred, so training runs on a
# sub-table well below the full one (256 buckets leave it at full size)
WIDE = replace(ENCODER, hash_dim=4096)
# sha256 of train()'s params bytes, steps and evals, recorded with the
# full-table training loop before the sub-table existed
GOLDEN = {
    ("wide", "cl"): "0fbcba7fe620c4121c441e8bcdd38f26cc13941ddfbf830c791be2e8a2424c25",
    ("wide", "mw"): "438fa091b6d02948e4187a4d631e65c03b5f097c18a4dca0dfd86f676bed7b27",
    ("token-free", "cl"): "191da9d089163fddc61c85342e1f21e80cb5af96157ccfef143e1610644c4223",
    ("token-free", "mw"): "99ef5fbc5e6c26a225230de4dbcdf7c3fe7cf0e20c55b5b42f79185876f47404",
}


@pytest.fixture(scope="module")
def planted_split():
    corpus, queries = make_benchmark(SyntheticSpec(n_queries=150, n_docs=150, seed=4))
    return corpus, QuerySet(list(queries)[:21]), list(queries)[21:]


@pytest.mark.parametrize("proj_dim", [4, 16, 32])
@pytest.mark.parametrize("n_eval", [63, 65, 129])
def test_evaluation_scores_through_make_scorer(planted_split, monkeypatch, n_eval, proj_dim):
    # the in-run metrics read the bits `mwlab evaluate` reads from the
    # checkpoint: make_scorer's block products, here in 1, 2 and 3 blocks
    corpus, train_qs, rest = planted_split
    eval_qs = QuerySet(rest[:n_eval])
    handed, evaluate = [], trainer.evaluate

    def recording_evaluate(scores, *args, **kwargs):
        handed.append(scores)
        return evaluate(scores, *args, **kwargs)

    monkeypatch.setattr(trainer, "evaluate", recording_evaluate)
    # 3 steps, one evaluation at the last: the returned params are the evaluated ones
    config = TrainConfig(B=8, H=0, base_lr=0.05, warmup_steps=1, max_epochs=1,
                         eval_every=100, eval_top_k=30, seed=3)
    encoder = EncoderConfig(hash_dim=512, embed_dim=8, proj_dim=proj_dim, seed=2)
    params, report = train(config, train_qs, eval_qs, corpus, encoder)
    assert [r.step for r in report.evals] == [3] and len(handed) == 1
    want = np.asarray(make_scorer(params)(eval_qs, corpus))
    assert np.asarray(handed[0]).tobytes() == want.tobytes()
    assert isinstance(handed[0], ScoreRows)


def retext(queries, text_of) -> QuerySet:
    return QuerySet([replace(q, text=text_of(i, q.text)) for i, q in enumerate(queries)])


@pytest.fixture(scope="module")
def sub_table_data(toy_data):
    """Two variants of the toy data. "wide": every train query has a word
    of its own, so the train split hashes to rows the corpus does not, and
    every eval query too, so the eval split hashes to rows no batch
    touches. "token-free": every fifth document and every third train
    query has no token."""
    corpus, train_qs, eval_qs = toy_data
    return {
        "wide": (corpus, retext(train_qs, lambda i, t: f"{t} trainword{i}"),
                 retext(eval_qs, lambda i, t: f"{t} evalword{i}")),
        "token-free": (
            Corpus([replace(d, text="--" if i % 5 == 0 else d.text)
                    for i, d in enumerate(corpus)]),
            retext(train_qs, lambda i, t: "!!!" if i % 3 == 0 else t), eval_qs),
    }


def run_digest(params: EncoderParams, report: trainer.RunReport) -> str:
    h = hashlib.sha256()
    h.update(params.embedding.tobytes())
    h.update(params.projection.tobytes())
    h.update(repr(report.steps).encode())
    h.update(repr([astuple(r) for r in report.evals]).encode())
    return h.hexdigest()


def touchable_rows(corpus, train_qs) -> np.ndarray:
    return np.union1d(prepare_tokens(corpus.texts, WIDE.hash_dim).indices,
                      prepare_tokens(train_qs.texts, WIDE.hash_dim).indices)


class TestSubTable:
    @pytest.mark.parametrize("data, loss_kind", sorted(GOLDEN))
    def test_equals_full_table_training(self, sub_table_data, data, loss_kind):
        corpus, train_qs, eval_qs = sub_table_data[data]
        params, report = train(
            replace(MW_CONFIG, loss_kind=loss_kind), train_qs, eval_qs, corpus, WIDE)
        assert len(report.steps) == 12 and len(report.evals) == 4
        assert run_digest(params, report) == GOLDEN[data, loss_kind]

    @pytest.mark.parametrize("loss_kind", trainer.LOSS_KINDS)
    def test_untouchable_rows_are_fixed_points(self, sub_table_data, loss_kind):
        corpus, train_qs, eval_qs = sub_table_data["wide"]
        params, _ = train(replace(MW_CONFIG, loss_kind=loss_kind), train_qs, eval_qs, corpus, WIDE)
        init = init_params(WIDE)
        rows = touchable_rows(corpus, train_qs)
        outside = np.setdiff1d(np.arange(WIDE.hash_dim), rows)
        eval_only = np.setdiff1d(prepare_tokens(eval_qs.texts, WIDE.hash_dim).indices, rows)
        assert len(rows) < WIDE.hash_dim // 8 and len(eval_only) > 0
        assert params.embedding[outside].tobytes() == init.embedding[outside].tobytes()
        # rows only the train split hashes to trained too
        train_only = np.setdiff1d(rows, prepare_tokens(corpus.texts, WIDE.hash_dim).indices)
        assert len(train_only) > 0
        assert (params.embedding[train_only] != init.embedding[train_only]).any()

    def test_tables_keep_their_nonzero_order(self, sub_table_data):
        corpus, train_qs, _ = sub_table_data["wide"]
        tables = [prepare_tokens(texts, WIDE.hash_dim) for texts in (corpus.texts, train_qs.texts)]
        params = init_params(WIDE)
        rows, sub, remapped = trainer._sub_table(params, tables)
        np.testing.assert_array_equal(rows, touchable_rows(corpus, train_qs))
        # exactly |R| rows: no padding
        size = sub.config.hash_dim
        assert size == len(rows) == sub.embedding.shape[0]
        assert sub.projection is params.projection
        np.testing.assert_array_equal(sub.embedding, params.embedding[rows])
        for full, small in zip(tables, remapped):
            assert small.shape == (full.shape[0], size)
            np.testing.assert_array_equal(small.indptr, full.indptr)
            assert small.data.tobytes() == full.data.tobytes()
            np.testing.assert_array_equal(rows[small.indices], full.indices)
            # slots ascend within every token row, as the buckets do
            for i in range(small.shape[0]):
                slots = small.indices[small.indptr[i]:small.indptr[i + 1]]
                assert (np.diff(slots) > 0).all()

    @pytest.mark.parametrize("data", ["wide", "token-free"])
    def test_adam_runs_on_exactly_the_touchable_rows(self, sub_table_data, monkeypatch, data):
        corpus, train_qs, eval_qs = sub_table_data[data]
        seen = []
        adam = trainer.adam_step

        def counting(params, grads, state, lr):
            seen.append((params.embedding.shape[0], grads.embedding.shape[0],
                         state.m.embedding.shape[0], state.v.embedding.shape[0]))
            return adam(params, grads, state, lr)

        monkeypatch.setattr(trainer, "adam_step", counting)
        train(MW_CONFIG, train_qs, eval_qs, corpus, WIDE)
        n = max(1, len(touchable_rows(corpus, train_qs)))
        assert n < WIDE.hash_dim and seen == [(n,) * 4] * 12

    def test_token_free_tables_train_nothing(self, toy_data):
        corpus, train_qs, eval_qs = toy_data
        blank_corpus = Corpus([replace(d, text="--") for d in corpus])
        blank_train = retext(train_qs, lambda i, t: "!!!")
        rows, sub, _ = trainer._sub_table(init_params(WIDE), [
            prepare_tokens(blank_corpus.texts, WIDE.hash_dim),
            prepare_tokens(blank_train.texts, WIDE.hash_dim)])
        assert len(rows) == 0 and sub.embedding.shape == (1, WIDE.embed_dim)
        params, report = train(MW_CONFIG, blank_train, eval_qs, blank_corpus, WIDE)
        assert len(report.steps) == 12 and np.isfinite([s[1] for s in report.steps]).all()
        # every training text encodes to the fallback, which carries no gradient
        init = init_params(WIDE)
        assert params.embedding.tobytes() == init.embedding.tobytes()
        assert params.projection.tobytes() == init.projection.tobytes()


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


@pytest.mark.parametrize("name", ["tau", "base_lr"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_config_rejects_a_non_finite_float(name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite, got {value!r}"):
        TrainConfig(**{name: float(value)})


@pytest.mark.parametrize("warmup_steps, rates", [(0, [0.5, 0.5, 0.5]), (2, [0.25, 0.5, 0.5])])
def test_lr_warms_up_linearly(warmup_steps, rates):
    config = TrainConfig(base_lr=0.5, warmup_steps=warmup_steps)
    assert [lr_at(step, config) for step in (1, 2, 3)] == rates


@pytest.mark.parametrize("step", [0, -1])
def test_lr_needs_a_step_of_at_least_one(step):
    with pytest.raises(ValueError, match=f"step must be >= 1, got {step}"):
        lr_at(step, TrainConfig())


@pytest.mark.parametrize("grid", [([], [4], [0]), ([0.1], [], [0]), ([0.1], [4], [])])
def test_ablation_needs_a_value_in_every_dimension(toy_data, grid):
    corpus, train_qs, eval_qs = toy_data
    with pytest.raises(ValueError, match="ablation grid must be non-empty in every dimension"):
        ablation_sweep(*grid, MW_CONFIG, train_qs, eval_qs, corpus, ENCODER)


def test_an_unknown_loss_kind_is_rejected():
    with pytest.raises(ValueError, match=r"loss_kind must be one of \('cl', 'mw'\), got 'hinge'"):
        TrainConfig(loss_kind="hinge")
