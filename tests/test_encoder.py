"""Tests for the feature-hashing encoder and its analytic backward pass."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mwlab.data import Corpus, Document, Query, QuerySet
from mwlab.encoder import (
    NORM_FLOOR,
    EncoderConfig,
    EncoderParams,
    encode_backward,
    encode_tokens,
    fnv1a64,
    init_params,
    load_checkpoint,
    make_scorer,
    prepare_tokens,
    save_checkpoint,
)

from mwlab.prng import derive_seed
from mwlab.synthetic import SyntheticSpec, make_benchmark
from util import encode_forward, naive_token_table

SMALL = EncoderConfig(hash_dim=256, embed_dim=12, proj_dim=8, seed=7)


def token_row(text: str, hash_dim: int = 256) -> dict[int, float]:
    """The text's row of ``prepare_tokens``: bucket -> count / total."""
    row = prepare_tokens([text], hash_dim)
    return dict(zip(row.indices.tolist(), row.data.tolist()))


class TestTokenizeHash:
    def test_case_folding_collapses(self):
        # "the" and "x" hash to distinct buckets of 256
        the, x = fnv1a64("the") % 256, fnv1a64("x") % 256
        assert token_row("The THE x the") == {the: 0.75, x: 0.25}

    def test_empty_text(self):
        assert token_row("") == {}
        assert token_row("   .,;!") == {}

    def test_order_invariance(self):
        assert token_row("a b") == token_row("b a")

    def test_split_on_non_alphanumeric_runs(self):
        assert token_row("foo--bar") == token_row("foo bar")
        assert token_row("a1b") != token_row("a 1 b")

    def test_bucket_range(self):
        assert all(0 <= b < 64 for b in token_row("lorem ipsum dolor sit amet", 64))

    def test_mod_equals_the_mask_for_powers_of_two(self):
        # every power-of-two table keeps the buckets the mask gave it
        rng = np.random.default_rng(0)
        alphabet = list("abcdefghijklmnopqrstuvwxyz0123456789é")
        tokens = ["".join(rng.choice(alphabet, rng.integers(1, 12))) for _ in range(1000)]
        hashes = [fnv1a64(t) for t in tokens]
        for d in (1 << e for e in range(17)):
            assert [h % d for h in hashes] == [h & (d - 1) for h in hashes]

    def test_bucket_is_the_hash_mod_hash_dim(self):
        assert token_row("x", 100) == {fnv1a64("x") % 100: 1.0}

    @pytest.mark.parametrize("hash_dim", [0, -4])
    def test_hash_dim_must_be_positive(self, hash_dim):
        with pytest.raises(ValueError, match=f"hash_dim must be >= 1, got {hash_dim}"):
            prepare_tokens(["x"], hash_dim)

    def test_fnv1a_reference_value(self):
        # FNV-1a 64 of empty input is the offset basis
        assert fnv1a64("") == 0xCBF29CE484222325


class TestForward:
    def test_repetition_cancels_in_mean_pool(self):
        params = init_params(SMALL)
        outs = encode_forward(params, ["token", "token token token"])
        np.testing.assert_allclose(outs.vectors[0], outs.vectors[1], atol=1e-12)

    def test_empty_text_hits_fallback(self):
        params = init_params(SMALL)
        out = encode_forward(params, [""])
        expected = np.zeros(SMALL.proj_dim)
        expected[0] = 1.0
        np.testing.assert_array_equal(out.vectors[0], expected)
        assert not out.active[0]

    def test_vanishing_vector_hits_fallback(self):
        # tokens present, but the pre-normalization norm is under the floor
        params = init_params(SMALL)
        params.embedding *= 1e-14
        out = encode_forward(params, ["alpha beta", "gamma"])
        assert (0.0 < out.norms).all() and (out.norms < NORM_FLOOR).all()
        assert not out.active.any()
        expected = np.zeros((2, SMALL.proj_dim))
        expected[:, 0] = 1.0
        np.testing.assert_array_equal(out.vectors, expected)

    def test_output_rows_unit_norm(self):
        params = init_params(SMALL)
        texts = [f"word{i} blah{i * 3} common" for i in range(20)]
        out = encode_forward(params, texts)
        np.testing.assert_allclose(np.linalg.norm(out.vectors, axis=1), 1.0, atol=1e-6)

    def test_forward_is_pure(self):
        params = init_params(SMALL)
        texts = ["alpha beta", "gamma"]
        v1 = encode_forward(params, texts).vectors
        v2 = encode_forward(params, texts).vectors
        np.testing.assert_array_equal(v1, v2)

    def test_cosine_in_range(self):
        params = init_params(SMALL)
        out = encode_forward(params, ["one two", "three four", "five"])
        sims = out.vectors @ out.vectors.T
        assert (sims <= 1 + 1e-9).all() and (sims >= -1 - 1e-9).all()


class TestBackward:
    def loss_and_grad(self, params, texts, upstream):
        out = encode_forward(params, texts)
        value = float((upstream * out.vectors).sum())
        grads = encode_backward(out, upstream, params)
        return value, grads

    def test_zero_upstream_zero_grads(self):
        params = init_params(SMALL)
        out = encode_forward(params, ["a b c"])
        grads = encode_backward(out, np.zeros((1, SMALL.proj_dim)), params)
        assert not grads.embedding.any()
        assert not grads.projection.any()

    def test_upstream_parallel_to_output_gives_zero(self):
        # the normalization Jacobian annihilates the output direction
        params = init_params(SMALL)
        out = encode_forward(params, ["some words here"])
        upstream = 2.5 * out.vectors
        grads = encode_backward(out, upstream, params)
        np.testing.assert_allclose(grads.embedding, 0.0, atol=1e-12)
        np.testing.assert_allclose(grads.projection, 0.0, atol=1e-12)

    def test_fallback_rows_get_zero_gradient(self):
        params = init_params(SMALL)
        out = encode_forward(params, ["", "real text"])
        upstream = np.zeros((2, SMALL.proj_dim))
        upstream[0] = 1.0  # only the fallback row carries gradient
        grads = encode_backward(out, upstream, params)
        assert not grads.embedding.any()
        assert not grads.projection.any()

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        params = init_params(SMALL)
        texts = ["alpha beta gamma", "delta alpha", "epsilon zeta eta theta"]
        upstream = rng.normal(size=(3, SMALL.proj_dim))
        _, grads = self.loss_and_grad(params, texts, upstream)
        h = 1e-4

        def check_entries(matrix, grad_matrix, n_checks):
            flat_idx = rng.choice(matrix.size, size=n_checks, replace=False)
            for fi in flat_idx:
                i, j = np.unravel_index(fi, matrix.shape)
                orig = matrix[i, j]
                matrix[i, j] = orig + h
                up = float((upstream * encode_forward(params, texts).vectors).sum())
                matrix[i, j] = orig - h
                down = float((upstream * encode_forward(params, texts).vectors).sum())
                matrix[i, j] = orig
                fd = (up - down) / (2 * h)
                analytic = grad_matrix[i, j]
                if abs(fd) > 1e-8 or abs(analytic) > 1e-8:
                    assert abs(analytic - fd) / max(abs(analytic), abs(fd)) < 1e-4

        check_entries(params.projection, grads.projection, 25)
        # restrict embedding checks to rows the texts actually touch
        touched = prepare_tokens(texts, SMALL.hash_dim).indices
        for bucket in set(touched.tolist()):
            for j in rng.choice(SMALL.embed_dim, size=3, replace=False):
                orig = params.embedding[bucket, j]
                params.embedding[bucket, j] = orig + h
                up = float((upstream * encode_forward(params, texts).vectors).sum())
                params.embedding[bucket, j] = orig - h
                down = float((upstream * encode_forward(params, texts).vectors).sum())
                params.embedding[bucket, j] = orig
                fd = (up - down) / (2 * h)
                analytic = grads.embedding[bucket, j]
                if abs(fd) > 1e-8 or abs(analytic) > 1e-8:
                    assert abs(analytic - fd) / max(abs(analytic), abs(fd)) < 1e-4

    def test_shape_mismatch_rejected(self):
        params = init_params(SMALL)
        out = encode_forward(params, ["a"])
        with pytest.raises(ValueError, match="shape"):
            encode_backward(out, np.zeros((2, SMALL.proj_dim)), params)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_upstream_rejected(self, bad):
        params = init_params(SMALL)
        out = encode_forward(params, ["a b"])
        upstream = np.zeros((1, SMALL.proj_dim))
        upstream[0, 3] = bad
        with pytest.raises(ValueError, match="upstream_grad must be finite"):
            encode_backward(out, upstream, params)


class TestInit:
    def test_determinism(self):
        p1 = init_params(SMALL)
        p2 = init_params(SMALL)
        np.testing.assert_array_equal(p1.embedding, p2.embedding)
        np.testing.assert_array_equal(p1.projection, p2.projection)

    def test_different_seed_different_params(self):
        p1 = init_params(SMALL)
        p2 = init_params(EncoderConfig(hash_dim=256, embed_dim=12, proj_dim=8, seed=8))
        assert not np.array_equal(p1.embedding, p2.embedding)

    def test_entries_within_support(self):
        params = init_params(SMALL)
        a_e = np.sqrt(6.0 / (SMALL.hash_dim + SMALL.embed_dim))
        a_p = np.sqrt(6.0 / (SMALL.embed_dim + SMALL.proj_dim))
        assert (np.abs(params.embedding) < a_e).all()
        assert (np.abs(params.projection) < a_p).all()

    def test_sample_mean_near_zero(self):
        # mean of n uniform(-a, a) draws: |mean| < 3 a / sqrt(3 n)
        params = init_params(SMALL)
        n = params.embedding.size
        a = np.sqrt(6.0 / (SMALL.hash_dim + SMALL.embed_dim))
        assert abs(params.embedding.mean()) < 3 * a / np.sqrt(3 * n)

    def test_config_validation(self):
        assert EncoderConfig(hash_dim=100).hash_dim == 100
        with pytest.raises(ValueError, match=">= 1"):
            EncoderConfig(hash_dim=16, embed_dim=0)


def table_digest(table) -> str:
    """sha256 over data, indices and indptr: each array's dtype, then its bytes."""
    h = hashlib.sha256()
    for array in (table.data, table.indices, table.indptr):
        h.update(array.dtype.str.encode())
        h.update(array.tobytes())
    return h.hexdigest()


# Pieces of text: empty, punctuation only, underscores (which split tokens),
# non-ASCII letters and digits, case variants, and repeats
PIECES = ["", " ", "!!", "?.", "_", "a_b", "__x__", "é", "É", "ß", "Straße", "ΣΑΣ", "σ", "İ",
          "٣4", "½", "x2", "Tok", "tok", "TOK", "tok tok tok", "a", "a a", "\t\n", "ǅ", "ﬁ"]
TEXT_LISTS = st.lists(st.tuples(st.sampled_from(["", " ", ","]), st.lists(st.sampled_from(PIECES),
                                                                    max_size=6))
                 .map(lambda t: t[0].join(t[1])), max_size=8)


class TestTokenTableCounts:
    @settings(max_examples=150, deadline=None)
    # past 2^31 columns scipy stores int64 indices
    @given(texts=TEXT_LISTS, hash_dim=st.sampled_from([1, 3, 8192, 1 << 40]))
    def test_matches_counting_one_text_at_a_time(self, texts, hash_dim):
        table, naive = prepare_tokens(texts, hash_dim), naive_token_table(texts, hash_dim)
        assert table.shape == naive.shape
        for attr in ("data", "indices", "indptr"):
            got, want = getattr(table, attr), getattr(naive, attr)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), attr

    @pytest.mark.parametrize("n_queries, n_docs, corpus_digest, queries_digest", [
        (400, 1000, "856192d95f196b5b781619e9a4febdfe637f0f1fb7bec7959226cdfc22c6a4e6",
         "13937ccd7545fd3b43207afc409f9d46cc6bd699469fb3e6836be6f2599f359c"),
        (2000, 5000, "4129d7d4688c2c49c204ffec7a39f85fb7de280f15cf7c6312331af070b16b57",
         "2d0695734cd9d0cd54ec6732ffdb045d697a5b68d93f9fa8cf3919553603bb08"),
    ])
    def test_planted_benchmark_tables_golden(self, n_queries, n_docs, corpus_digest,
                                             queries_digest):
        # recorded from tables counted one text at a time
        corpus, queries = make_benchmark(SyntheticSpec(n_queries, n_docs, derive_seed(0, 10)))
        assert table_digest(prepare_tokens(corpus.texts, 8192)) == corpus_digest
        assert table_digest(prepare_tokens(queries.texts, 8192)) == queries_digest


class TestTokenTableRows:
    TEXTS = ["alpha beta beta", "!!!", "gamma delta alpha", "", "Beta ALPHA epsilon"]

    @pytest.mark.parametrize("rows", [[2, 0, 4], [1, 3], [4, 1, 4, 0, 1], [0]])
    def test_equals_hashing_the_rows_texts(self, rows):
        table = prepare_tokens(self.TEXTS, 64)
        taken = table[np.array(rows, dtype=np.intp)]
        direct = prepare_tokens([self.TEXTS[i] for i in rows], 64)
        assert taken.shape == direct.shape
        for attr in ("data", "indices", "indptr"):
            np.testing.assert_array_equal(getattr(taken, attr), getattr(direct, attr))

    def test_rows_encode_like_their_texts(self):
        params = init_params(SMALL)
        rows = np.array([1, 2, 2, 4], dtype=np.intp)
        taken = encode_tokens(params, prepare_tokens(self.TEXTS, SMALL.hash_dim)[rows])
        direct = encode_forward(params, [self.TEXTS[i] for i in rows])
        np.testing.assert_array_equal(taken.vectors, direct.vectors)
        np.testing.assert_array_equal(taken.active, direct.active)


class TestParams:
    def test_shapes_must_match_the_config(self):
        params = init_params(SMALL)
        with pytest.raises(ValueError, match=r"parameter shapes \(256, 12\)/\(8, 8\) do not "
                                             r"match config \(256, 12\)/\(12, 8\)"):
            EncoderParams(SMALL, params.embedding, params.projection[:8])

    @pytest.mark.parametrize("where", ["embedding", "projection"])
    def test_parameters_must_be_finite(self, where):
        params = init_params(SMALL)
        getattr(params, where)[1, 2] = np.nan
        with pytest.raises(ValueError, match="parameters must be finite"):
            EncoderParams(SMALL, params.embedding, params.projection)


class TestCheckpoint:
    def test_missing_file_rejected(self, tmp_path):
        path = tmp_path / "absent"
        with pytest.raises(FileNotFoundError, match=f"checkpoint not found: {path}"):
            load_checkpoint(path)

    def test_header_lacking_a_key_rejected(self, tmp_path):
        import json

        path = tmp_path / "ckpt"
        save_checkpoint(init_params(SMALL), step=0, path=path)
        header, payload = path.read_bytes().split(b"\n", 1)
        fields = json.loads(header)
        del fields["seed"]
        path.write_bytes(json.dumps(fields).encode() + b"\n" + payload)
        with pytest.raises(ValueError, match="checkpoint header lacks 'seed'"):
            load_checkpoint(path)

    def test_roundtrip(self, tmp_path):
        params = init_params(SMALL)
        path = tmp_path / "ckpt_12"
        save_checkpoint(params, step=12, path=path)
        loaded, step = load_checkpoint(path)
        assert step == 12
        assert loaded.config == SMALL
        # storage is float64: the parameters come back bit for bit
        np.testing.assert_array_equal(loaded.embedding, params.embedding)
        np.testing.assert_array_equal(loaded.projection, params.projection)

    def test_float32_payload_rejected(self, tmp_path):
        params = init_params(SMALL)
        path = tmp_path / "ckpt"
        save_checkpoint(params, step=0, path=path)
        header = path.read_bytes().split(b"\n", 1)[0] + b"\n"
        n = params.embedding.size + params.projection.size
        path.write_bytes(header + np.zeros(n, dtype="<f4").tobytes())
        with pytest.raises(ValueError, match=f"is {4 * n} bytes, expected {8 * n}"):
            load_checkpoint(path)

    def test_header_is_json_line(self, tmp_path):
        import json

        params = init_params(SMALL)
        path = tmp_path / "ckpt"
        save_checkpoint(params, step=3, path=path)
        with open(path, "rb") as f:
            header = json.loads(f.readline())
        assert header == {"hash_dim": 256, "embed_dim": 12, "proj_dim": 8,
                          "seed": 7, "step": 3}

    def test_truncated_payload_rejected(self, tmp_path):
        params = init_params(SMALL)
        path = tmp_path / "ckpt"
        save_checkpoint(params, step=0, path=path)
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(ValueError, match="bytes"):
            load_checkpoint(path)

    def test_scorer_from_params(self):
        params = init_params(SMALL)
        scorer = make_scorer(params)
        queries = QuerySet([Query("q", "hello world", ["a"])])
        corpus = Corpus([Document("a", "hello world"), Document("b", "other text")])
        scores = np.asarray(scorer(queries, corpus))
        assert scores.shape == (1, 2)
        assert scores[0, 0] == pytest.approx(1.0, abs=1e-9)
