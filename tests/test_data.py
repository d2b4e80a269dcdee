"""Tests for corpus/query ingestion, mining, and batch sampling."""

import ast
import hashlib
import json
import threading
import tracemalloc
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mwlab
from mwlab import cli, data
from mwlab.data import (
    Corpus,
    Document,
    Query,
    QuerySet,
    SplitSpec,
    batch_rows,
    load_corpus,
    load_queries,
    mine_hard_negatives,
    read_json,
    read_jsonl,
    sample_batch,
    save_queries,
    score_matrix,
    split_queries,
    top_k_columns,
    top_k_scores,
    write_csv,
    write_json,
)
from mwlab.encoder import BLOCK_ROWS, EncoderConfig, ScoreRows, init_params, make_scorer, prepare_tokens
from mwlab.metrics import pooled_auc_protocol, ranked_lists
from mwlab.prng import Xoshiro256StarStar, derive_seed
from mwlab.synthetic import SyntheticSpec, make_benchmark
from util import force_split, naive_top_k


def write_jsonl(path, rows):
    with open(path, "w", encoding="utf-8") as f:
        for row in rows:
            f.write(json.dumps(row) + "\n")


@pytest.fixture
def small_corpus():
    return Corpus([Document(f"d{i}", f"text {i}") for i in range(1, 5)])


class TestLoadCorpus:
    def test_three_valid_lines(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        write_jsonl(path, [{"id": f"d{i}", "text": f"doc {i}"} for i in range(3)])
        corpus = load_corpus(path)
        assert len(corpus) == 3
        assert corpus.ids == ["d0", "d1", "d2"]

    def test_duplicate_id_names_line(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        write_jsonl(path, [
            {"id": "d1", "text": "a"},
            {"id": "d2", "text": "b"},
            {"id": "d3", "text": "c"},
            {"id": "d1", "text": "again"},
        ])
        with pytest.raises(ValueError, match="line 4"):
            load_corpus(path)

    def test_empty_file_is_valid(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text("")
        assert len(load_corpus(path)) == 0

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_corpus(tmp_path / "nope.jsonl")

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"id": "d1", "text": "ok"}\nnot json\n')
        with pytest.raises(ValueError, match="line 2"):
            load_corpus(path)

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_every_line_ending_loads_the_same_corpus(self, tmp_path, end):
        path = tmp_path / "corpus.jsonl"
        path.write_bytes(end.join(['{"id": "d1", "text": "a"}', '{"id": "d2", "text": "b c"}',
                                   ""]).encode())
        corpus = load_corpus(path)
        assert corpus.ids == ["d1", "d2"] and [d.text for d in corpus] == ["a", "b c"]

    def test_empty_text_rejected(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        write_jsonl(path, [{"id": "d1", "text": ""}])
        with pytest.raises(ValueError, match="line 1"):
            load_corpus(path)


class TestFileFormats:
    def test_read_jsonl_skips_blank_lines_and_numbers_the_rest(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        path.write_text('{"a": 1}\n\n  \n{"a": 2}\n{"b": 3}\n')
        with pytest.raises(ValueError, match=f"^{path}: line 5: 'a'$"):
            read_jsonl(path, "row", lambda obj: obj["a"])
        path.write_text('{"a": 1}\n\n{"a": 2}\n')
        assert read_jsonl(path, "row", lambda obj: obj["a"]) == [1, 2]

    def test_read_json_names_the_file_in_its_errors(self, tmp_path):
        path = tmp_path / "config.json"
        with pytest.raises(FileNotFoundError, match=f"^config file not found: {path}$"):
            read_json(path, "config")
        path.write_text('{"b": [1, 2.5]}')
        assert read_json(path, "config") == {"b": [1, 2.5]}
        path.write_text("[1,")
        with pytest.raises(ValueError, match=f"^{path}: Expecting value"):
            read_json(path, "config")
        path.write_bytes(b'"\xff"')
        with pytest.raises(ValueError, match=f"^{path}: 'utf-8' codec can't decode byte 0xff"):
            read_json(path, "config")

    def test_write_json_sorts_keys_and_ends_the_line(self, tmp_path):
        path = tmp_path / "new" / "dir" / "out.json"
        write_json(path, {"b": [1, 2.5], "a": np.float64(0.1)})
        assert path.read_text() == '{\n  "a": 0.1,\n  "b": [\n    1,\n    2.5\n  ]\n}\n'

    def test_write_csv_writes_floats_by_repr(self, tmp_path):
        path = tmp_path / "new" / "out.csv"
        write_csv(path, ("x", "y", "n"), [(np.float64(0.1), 1 / 3, np.int64(4)), (2.0, 1e-20, 5)])
        assert path.read_text() == "x,y,n\n0.1,0.3333333333333333,4\n2.0,1e-20,5\n"
        write_csv(path, None, np.array([[0.5, 1.0]]))
        assert path.read_text() == "0.5,1.0\n"


def file_writes(source: str) -> list[str]:
    """Calls in Python source that write a file or make a directory:
    ``json.dump``, ``write_text``, ``write_bytes``, ``mkdir``, and an
    ``open`` whose mode is not a constant read mode."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
        if name == "open":
            # open(path, mode) or path.open(mode)
            modes = node.args[1:2] if isinstance(func, ast.Name) else node.args[:1]
            modes += [kw.value for kw in node.keywords if kw.arg == "mode"]
            if not all(isinstance(m, ast.Constant) and isinstance(m.value, str)
                       and not set(m.value) & set("wax+") for m in modes):
                found.append(f"{node.lineno}: open")
        elif name in ("write_text", "write_bytes", "mkdir") or ast.unparse(func) == "json.dump":
            found.append(f"{node.lineno}: {name}")
    return found


def test_the_write_scan_finds_each_kind_of_write():
    source = """
json.dump(x, f); json.dumps(x); p.write_text(s); p.write_bytes(b); p.parent.mkdir()
open(p, "w"); open(p, mode="ab"); p.open("x"); open(p, "r+"); open(p, mode)
open(p); open(p, "rb"); p.open(); open(p, encoding="utf-8")
"""
    assert [w.split(": ")[1] for w in file_writes(source)] == [
        "dump", "write_text", "write_bytes", "mkdir", "open", "open", "open", "open", "open"]


def file_reads(source: str) -> list[str]:
    """Calls in Python source that read a file: ``json.load``,
    ``read_text``, ``read_bytes``, and ``open`` in any mode."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            if name in ("open", "read_text", "read_bytes") or ast.unparse(func) == "json.load":
                found.append(f"{node.lineno}: {name}")
    return found


def test_the_read_scan_finds_each_kind_of_read():
    source = """
json.load(f); json.loads(s); p.read_text(); p.read_bytes(); open(p); p.open("rb")
open(p, "w"); io.open(p); p.write_text(s); p.readlines()
"""
    assert [r.split(": ")[1] for r in file_reads(source)] == [
        "load", "read_text", "read_bytes", "open", "open", "open", "open"]


def found_outside_data_and_encoder(scan) -> dict[str, list[str]]:
    src = Path(mwlab.__file__).parent
    found = {path.name: scan(path.read_text(encoding="utf-8"))
             for path in sorted(src.glob("*.py")) if path.name not in ("data.py", "encoder.py")}
    return {name: calls for name, calls in found.items() if calls}


def test_only_data_and_encoder_write_files():
    # data owns the text formats (JSON, CSV, JSONL) and encoder the binary
    # checkpoints; every other module writes through data's writers
    assert found_outside_data_and_encoder(file_writes) == {}


def test_only_data_and_encoder_read_files():
    # and every other module reads through data's readers
    assert found_outside_data_and_encoder(file_reads) == {}


def private_imports(source: str) -> list[str]:
    """Relative imports in Python source that take a ``_``-prefixed name
    from a sibling module (``from .x import _name``)."""
    return [f"{node.lineno}: {'.' * node.level}{node.module or ''} {alias.name}"
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.level
            for alias in node.names if alias.name.startswith("_")]


def test_the_private_import_scan_finds_each_kind():
    source = """
from .data import Corpus, _BLOCK_ROWS as rows
from . import _helpers
from ..pkg.data import _x
from data import _absolute
from .data import score_matrix
import _thread
"""
    assert private_imports(source) == [
        "2: .data _BLOCK_ROWS", "3: . _helpers", "4: ..pkg.data _x"]


def test_no_module_imports_another_modules_private_name():
    # a module's private names are its own: a job two modules share lives
    # in one of them behind a public name
    src = Path(mwlab.__file__).parent
    found = {path.name: private_imports(path.read_text(encoding="utf-8"))
             for path in sorted(src.glob("*.py"))}
    assert {name: hits for name, hits in found.items() if hits} == {}


class TestFieldTypes:
    @pytest.mark.parametrize("doc_id, text", [(7, "t"), (None, "t"), ("d1", 5), ("d1", ["t"])])
    def test_document_rejects_non_string(self, doc_id, text):
        with pytest.raises(ValueError, match="must be a string"):
            Document(doc_id, text)

    @pytest.mark.parametrize("fields", [
        {"id": 7},
        {"text": 5},
        {"positive_ids": [7]},
        {"hard_negative_ids": ["d2", None]},
        {"positive_ids": "d1"},
        {"hard_negative_ids": "d2"},
    ])
    def test_query_rejects_wrong_types(self, fields):
        args = {"id": "q1", "text": "x", "positive_ids": ["d1"], **fields}
        with pytest.raises(ValueError, match="must be a string|must be lists"):
            Query(**args)

    def test_load_corpus_names_file_and_line(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        write_jsonl(path, [{"id": "d1", "text": "a"}, {"id": "d3", "text": 5}])
        with pytest.raises(ValueError, match=r"corpus\.jsonl: line 2: .*text must be a string"):
            load_corpus(path)

    def test_load_queries_names_file_and_line(self, tmp_path):
        corpus = Corpus([Document("7", "a")])
        path = tmp_path / "queries.jsonl"
        write_jsonl(path, [{"id": "q1", "text": "x", "positive_ids": [7]}])
        with pytest.raises(ValueError, match=r"queries\.jsonl: line 1: .*must be a string"):
            load_queries(path, corpus)


class TestErrorText:
    """The full text of each field check's error, whose name is formatted
    only when the check fails."""

    @pytest.mark.parametrize("make, expected", [
        (lambda: Document(7, "t"), "document id must be a string, got int 7"),
        (lambda: Document("", "t"), "document id must be non-empty"),
        (lambda: Document("d1", 5), "document 'd1': text must be a string, got int 5"),
        (lambda: Document("d1", ["t"]), "document 'd1': text must be a string, got list ['t']"),
        (lambda: Document("d1", ""), "document 'd1': text must be non-empty"),
        (lambda: Query(None, "x", ["d1"]), "query id must be a string, got NoneType None"),
        (lambda: Query("", "x", ["d1"]), "query id must be non-empty"),
        (lambda: Query("q1", 5, ["d1"]), "query 'q1': text must be a string, got int 5"),
        (lambda: Query("q1", "x", ["d1", 7]),
         "query 'q1': document id must be a string, got int 7"),
        (lambda: Query("q1", "x", ["d1"], ["d2", None]),
         "query 'q1': document id must be a string, got NoneType None"),
        (lambda: Query("q1", "x", []), "query 'q1': positive_ids must be non-empty"),
        # a repeat within a list is named before an overlap between the lists
        (lambda: Query("q1", "x", ["d1", "d1"], ["d1"]),
         "query 'q1': document 'd1' appears twice in positive_ids"),
        (lambda: Query("q1", "x", ["d1"], ["d2", "d1", "d2"]),
         "query 'q1': document 'd2' appears twice in hard_negative_ids"),
        (lambda: Query("q1", "x", ["d3", "d1"], ["d1", "d2", "d3"]),
         "query 'q1': ids ['d1', 'd3'] are both positive and hard negative"),
    ])
    def test_direct(self, make, expected):
        with pytest.raises(ValueError) as caught:
            make()
        assert str(caught.value) == expected

    def test_through_load_corpus(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        write_jsonl(path, [{"id": "d1", "text": "a"}, {"id": "d3", "text": 5}])
        with pytest.raises(ValueError) as caught:
            load_corpus(path)
        assert str(caught.value) == f"{path}: line 2: document 'd3': text must be a string, got int 5"

    @pytest.mark.parametrize("row, expected", [
        ({"id": "q1", "text": 5, "positive_ids": ["7"]},
         "query 'q1': text must be a string, got int 5"),
        ({"id": "q1", "text": "x", "positive_ids": [7]},
         "query 'q1': document id must be a string, got int 7"),
        ({"id": "q1", "text": "x", "positive_ids": ["7"], "hard_negative_ids": [False]},
         "query 'q1': document id must be a string, got bool False"),
    ])
    def test_through_load_queries(self, tmp_path, row, expected):
        corpus = Corpus([Document("7", "a")])
        path = tmp_path / "queries.jsonl"
        write_jsonl(path, [{"id": "q0", "text": "ok", "positive_ids": ["7"]}, row])
        with pytest.raises(ValueError) as caught:
            load_queries(path, corpus)
        assert str(caught.value) == f"{path}: line 2: {expected}"


class TestLoadQueries:
    def test_valid_reference_accepted(self, tmp_path, small_corpus):
        path = tmp_path / "queries.jsonl"
        write_jsonl(path, [{"id": "q1", "text": "hi", "positive_ids": ["d1"]}])
        queries = load_queries(path, small_corpus)
        assert len(queries) == 1
        assert queries[0].positive_ids == ["d1"]

    def test_empty_positive_ids_rejected(self, tmp_path, small_corpus):
        path = tmp_path / "queries.jsonl"
        write_jsonl(path, [{"id": "q1", "text": "hi", "positive_ids": []}])
        with pytest.raises(ValueError, match="positive_ids"):
            load_queries(path, small_corpus)

    def test_hard_negative_equal_to_positive_rejected(self, tmp_path, small_corpus):
        path = tmp_path / "queries.jsonl"
        write_jsonl(path, [{
            "id": "q1", "text": "hi",
            "positive_ids": ["d1"], "hard_negative_ids": ["d1"],
        }])
        with pytest.raises(ValueError, match="both positive and hard negative"):
            load_queries(path, small_corpus)

    @pytest.mark.parametrize("field, ids", [
        ("positive_ids", ["d1", "d2", "d1"]),
        ("hard_negative_ids", ["d3", "d3"]),
    ])
    def test_repeated_id_rejected(self, tmp_path, small_corpus, field, ids):
        row = {"id": "q1", "text": "hi", "positive_ids": ["d2"], field: ids}
        path = tmp_path / "queries.jsonl"
        write_jsonl(path, [{"id": "q0", "text": "ok", "positive_ids": ["d4"]}, row])
        expected = rf"queries\.jsonl: line 2: query 'q1': document '{ids[-1]}' appears twice in {field}"
        with pytest.raises(ValueError, match=expected):
            load_queries(path, small_corpus)

    def test_dangling_reference_rejected(self, tmp_path, small_corpus):
        path = tmp_path / "queries.jsonl"
        write_jsonl(path, [{"id": "q1", "text": "hi", "positive_ids": ["ghost"]}])
        with pytest.raises(ValueError, match="ghost"):
            load_queries(path, small_corpus)

    def test_roundtrip_through_save(self, tmp_path, small_corpus):
        queries = QuerySet([
            Query("q1", "alpha", ["d1"], ["d2", "d3"]),
            Query("q2", "beta", ["d2"]),
        ])
        path = tmp_path / "queries.jsonl"
        save_queries(queries, path)
        loaded = load_queries(path, small_corpus)
        assert [q.id for q in loaded] == ["q1", "q2"]
        assert loaded[0].hard_negative_ids == ["d2", "d3"]


TEXTS = ["alpha beta beta", "!!!", "gamma delta alpha", "Beta ALPHA epsilon"]


def items(kind):
    if kind == "corpus":
        return [Document(f"d{i}", t) for i, t in enumerate(TEXTS)]
    return [Query(f"q{i}", t, ["d0"]) for i, t in enumerate(TEXTS)]


def collection(kind, n=len(TEXTS)):
    return (Corpus if kind == "corpus" else QuerySet)(items(kind)[:n])


def assert_same_table(a, b):
    assert a.shape == b.shape
    for attr in ("data", "indices", "indptr"):
        x, y = getattr(a, attr), getattr(b, attr)
        assert x.dtype == y.dtype
        np.testing.assert_array_equal(x, y)


@pytest.mark.parametrize("kind", ["corpus", "queries"])
class TestTokenCache:
    def test_equals_fresh_prepare_tokens(self, kind):
        assert_same_table(collection(kind).tokens(64), prepare_tokens(TEXTS, 64))

    def test_repeat_call_returns_the_same_table(self, kind):
        c = collection(kind)
        assert c.tokens(64) is c.tokens(64)

    def test_each_hash_dim_has_its_own_table(self, kind):
        c = collection(kind)
        small, large = c.tokens(64), c.tokens(128)
        assert small.shape == (4, 64) and large.shape == (4, 128)
        assert c.tokens(64) is small
        assert_same_table(large, prepare_tokens(TEXTS, 128))

    def test_add_invalidates(self, kind):
        c = collection(kind, 3)
        before = c.tokens(64)
        c.add(items(kind)[3])
        after = c.tokens(64)
        assert after is not before
        assert_same_table(after, prepare_tokens(TEXTS, 64))

    @pytest.mark.parametrize("attr", ["data", "indices", "indptr"])
    def test_table_is_read_only(self, kind, attr):
        with pytest.raises(ValueError, match="read-only"):
            getattr(collection(kind).tokens(64), attr)[0] = 0


def children(how, queries):
    """The query sets derived from ``queries``: its three splits, or its
    mined set (a constant scorer, so mining itself hashes nothing)."""
    if how == "split":
        return list(split_queries(queries, SplitSpec(0.5, 0.25, seed=3)))
    corpus = Corpus([Document(f"d{i}", f"doc {i}") for i in range(6)])
    return [mine_hard_negatives(queries, corpus, lambda qs, c: np.zeros((len(qs), len(c))), k=2)]


@pytest.fixture
def hashed_texts(monkeypatch):
    """Every text list collections hash, in call order."""
    calls = []
    prepare = data.prepare_tokens

    def counting(texts, hash_dim):
        calls.append(list(texts))
        return prepare(texts, hash_dim)

    monkeypatch.setattr(data, "prepare_tokens", counting)
    return calls


@pytest.mark.parametrize("how", ["split", "mine"])
class TestDerivedTokenCache:
    def test_child_inherits_its_parents_rows(self, how, hashed_texts):
        parent = collection("queries")
        parent.tokens(64)
        for child in children(how, parent):
            table = child.tokens(64)
            assert_same_table(table, prepare_tokens(child.texts, 64))
            for attr in ("data", "indices", "indptr"):
                assert not getattr(table, attr).flags.writeable
        assert hashed_texts == [TEXTS]

    def test_child_of_an_unhashed_parent_hashes_lazily(self, how, hashed_texts):
        parent = collection("queries")
        parent.tokens(128)  # another hash_dim is no help at 64
        kids = children(how, parent)
        assert hashed_texts == [TEXTS]
        for child in kids:
            assert_same_table(child.tokens(64), prepare_tokens(child.texts, 64))
        assert hashed_texts == [TEXTS] + [child.texts for child in kids]


def test_mined_set_shares_its_parents_table():
    parent = collection("queries")
    table = parent.tokens(64)
    assert children("mine", parent)[0].tokens(64) is table


def test_query_is_frozen():
    q = Query("q", "old text", ["d0"])
    with pytest.raises(FrozenInstanceError):
        q.text = "new text"
    assert replace(q, text="new text").text == "new text"


class TestMining:
    def test_top_k_excludes_positives(self, small_corpus):
        # scores: d1=0.9 (positive), d2=0.8, d3=0.1, d4=0.5 -> top 2 are d2, d4
        table = {"d1": 0.9, "d2": 0.8, "d3": 0.1, "d4": 0.5}

        def scorer(queries, corpus):
            row = [table[d.id] for d in corpus]
            return np.array([row] * len(queries))

        queries = QuerySet([Query("q1", "x", ["d1"])])
        mined = mine_hard_negatives(queries, small_corpus, scorer, k=2)
        assert mined[0].hard_negative_ids == ["d2", "d4"]
        # input unchanged
        assert queries[0].hard_negative_ids == []

    def test_k_zero_rejected(self, small_corpus):
        queries = QuerySet([Query("q1", "x", ["d1"])])
        with pytest.raises(ValueError, match="k must be >= 1"):
            mine_hard_negatives(queries, small_corpus, lambda qs, c: np.zeros((1, 4)), k=0)

    def test_tie_broken_by_ascending_id(self):
        corpus = Corpus([Document("b", "t"), Document("a", "t"), Document("pos", "t")])

        def scorer(queries, corpus):
            return np.array([[0.5, 0.5, 0.9]])

        queries = QuerySet([Query("q1", "x", ["pos"])])
        mined = mine_hard_negatives(queries, corpus, scorer, k=1)
        assert mined[0].hard_negative_ids == ["a"]

    def test_short_corpus_returns_all_available(self, small_corpus, caplog):
        def scorer(queries, corpus):
            return np.ones((len(queries), len(corpus)))

        queries = QuerySet([Query("q1", "x", ["d1"])])
        with caplog.at_level("WARNING"):
            mined = mine_hard_negatives(queries, small_corpus, scorer, k=10)
        assert sorted(mined[0].hard_negative_ids) == ["d2", "d3", "d4"]
        assert any("only 3 negatives" in r.getMessage() for r in caplog.records)

    def test_short_queries_log_one_warning(self, small_corpus, caplog):
        # one line per call, not one per short query
        def scorer(queries, corpus):
            return np.ones((len(queries), len(corpus)))

        queries = QuerySet([Query("q0", "x", ["d1"]), Query("q1", "x", ["d1", "d2"]),
                            Query("q2", "x", ["d3"])])
        with caplog.at_level("WARNING"):
            mine_hard_negatives(queries, small_corpus, scorer, k=3)
        assert [r.getMessage() for r in caplog.records] == [
            "1 of 3 queries have fewer than the 3 negatives requested; "
            "the first, 'q1', has only 2 negatives available"]
        caplog.clear()
        with caplog.at_level("WARNING"):
            mine_hard_negatives(queries, small_corpus, scorer, k=4)
        assert [r.getMessage() for r in caplog.records] == [
            "3 of 3 queries have fewer than the 4 negatives requested; "
            "the first, 'q0', has only 3 negatives available"]

    def test_matches_full_sort_brute_force(self):
        rng = np.random.default_rng(11)
        corpus = Corpus([Document(f"d{i:03d}", f"t{i}") for i in range(60)])
        queries = QuerySet([Query(f"q{j}", "x", [f"d{j:03d}"]) for j in range(10)])
        scores = rng.uniform(-1, 1, size=(10, 60)).round(2)  # rounding forces ties

        def scorer(queries, corpus):
            return scores

        mined = mine_hard_negatives(queries, corpus, scorer, k=7)
        for j, q in enumerate(mined):
            expected = sorted(
                (d for d in corpus.ids if d != f"d{j:03d}"),
                key=lambda d: (-scores[j, corpus.ids.index(d)], d),
            )[:7]
            assert q.hard_negative_ids == expected


class TestScoreMatrix:
    def test_wrong_shape_rejected(self, small_corpus):
        queries = QuerySet([Query("q1", "x", ["d1"])])
        with pytest.raises(ValueError, match="scorer returned shape"):
            score_matrix(queries, small_corpus, lambda qs, c: np.zeros((1, 3)))


@pytest.fixture(scope="module")
def planted_150():
    return make_benchmark(SyntheticSpec(n_queries=129, n_docs=150, seed=4))


@pytest.fixture(scope="module")
def planted_2000():
    corpus, queries = make_benchmark(SyntheticSpec(n_queries=400, n_docs=2000, seed=3))
    scorer = make_scorer(init_params(EncoderConfig(hash_dim=256, embed_dim=8, proj_dim=4,
                                                   seed=1)))
    queries.tokens(256), corpus.tokens(256)  # hashed before tracing
    return corpus, queries, scorer


def traced_peak(call) -> tuple[object, int]:
    """``call()``'s result and the peak of the memory traced while it ran."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBlockScoring:
    # an encoder's scores are its ScoreRows' block products, whether a
    # selection reads the blocks as it walks or the materialised matrix
    @pytest.mark.parametrize("proj_dim", [2, 16, 32])
    @pytest.mark.parametrize("n_queries", [1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1,
                                           2 * BLOCK_ROWS + 1])
    def test_selections_read_the_materialised_matrix_bit_for_bit(self, planted_150, n_queries,
                                                                  proj_dim):
        corpus, all_queries = planted_150
        queries = QuerySet(list(all_queries)[:n_queries])
        scorer = make_scorer(init_params(EncoderConfig(hash_dim=512, embed_dim=8,
                                                       proj_dim=proj_dim, seed=2)))
        rows = scorer(queries, corpus)
        matrix = np.asarray(rows)
        blocks = [rows[s:s + BLOCK_ROWS] for s in range(0, n_queries, BLOCK_ROWS)]
        assert isinstance(rows, ScoreRows) and matrix.tobytes() == np.vstack(blocks).tobytes()

        def fixed(_queries, _corpus):
            return matrix

        for mined, want in zip(mine_hard_negatives(queries, corpus, scorer, k=20),
                               mine_hard_negatives(queries, corpus, fixed, k=20)):
            assert mined.hard_negative_ids == want.hard_negative_ids
        (pool, value), (want_pool, want_value) = (
            pooled_auc_protocol(queries, corpus, s, top_k=30) for s in (scorer, fixed))
        assert pool.positives.tobytes() == want_pool.positives.tobytes()
        assert pool.negatives.tobytes() == want_pool.negatives.tobytes()
        assert value == want_value
        assert ([rl.ranked_ids for rl in ranked_lists(queries, corpus, scorer)]
                == [rl.ranked_ids for rl in ranked_lists(queries, corpus, fixed)])

    def test_mining_holds_two_blocks_not_the_matrix(self, planted_2000):
        # the 400 x 2000 matrix is 6.4 MB; the bound is two blocks in
        # flight plus a block's worth of selection temporaries
        corpus, queries, scorer = planted_2000
        bound = 3 * BLOCK_ROWS * len(corpus) * 8
        assert bound < len(queries) * len(corpus) * 8
        mined, peak = traced_peak(lambda: mine_hard_negatives(queries, corpus, scorer, k=10))
        assert all(len(q.hard_negative_ids) == 10 for q in mined)
        assert peak < bound

    def test_top_k_columns_scores_each_block_as_it_reaches_it(self, planted_2000):
        # scoring every block before the walk would hold the whole matrix
        corpus, queries, scorer = planted_2000
        rows = scorer(queries, corpus)
        tops, peak = traced_peak(lambda: top_k_columns(rows, corpus.ids, 10))
        assert [t.tolist() for t in tops] == [
            t.tolist() for t in top_k_columns(np.asarray(rows), corpus.ids, 10)]
        assert peak < 3 * BLOCK_ROWS * len(corpus) * 8


class TestSplitWalk:
    # the second half of a walk's blocks runs on a worker thread; every
    # output must keep its bits, and the call must leave no thread behind

    @staticmethod
    def selections(scores, ids, exclude) -> list[bytes]:
        excluded, top = top_k_scores(scores, 5, exclude)
        return [excluded.tobytes(), top.tobytes(),
                *(t.tobytes() for t in top_k_columns(scores, ids, 4, exclude=exclude)),
                *(t.tobytes() for t in top_k_columns(scores, ids, 3))]

    # 1, 2 and 3 blocks; 2 * BLOCK_ROWS + 1 leaves a last block of one row
    @pytest.mark.parametrize("n_rows", [BLOCK_ROWS, BLOCK_ROWS + 5, 2 * BLOCK_ROWS + 1,
                                        3 * BLOCK_ROWS])
    @pytest.mark.parametrize("kind", ["array", "rows"])
    def test_split_and_serial_walks_are_byte_equal(self, monkeypatch, n_rows, kind):
        rng = np.random.default_rng(n_rows)
        n = 40
        # small integer encodings: every score is one of a few integers
        rows = ScoreRows(rng.integers(-1, 2, (n_rows, 3)).astype(float),
                         rng.integers(-1, 2, (n, 3)).astype(float))
        scores = rows if kind == "rows" else np.asarray(rows)
        ids = [f"d{j:02d}" for j in rng.permutation(n)]
        exclude = [rng.choice(n, rng.integers(0, 4), replace=False).tolist() for _ in range(n_rows)]
        force_split(monkeypatch, on=False)
        # the array's walk gathers each row's other cells; a ScoreRows
        # walk shifts them in its own buffer
        serial = self.selections(np.asarray(rows), ids, exclude)
        assert self.selections(scores, ids, exclude) == serial
        started = force_split(monkeypatch, on=True)
        assert self.selections(scores, ids, exclude) == serial
        # three walks per call, each split when it has two blocks or more
        assert len(started) == (3 if n_rows > BLOCK_ROWS else 0)

    # of three blocks, the calling thread walks the first two and the
    # worker the third
    @pytest.mark.parametrize("failing", [0, 2 * BLOCK_ROWS])
    def test_a_block_that_raises_raises_the_same_and_leaves_no_thread(self, monkeypatch,
                                                                       failing):
        class Failing(ScoreRows):
            def product(self, rows, out=None):
                if rows.start == failing:
                    raise ValueError(f"block at row {rows.start}")
                return super().product(rows, out)

        rng = np.random.default_rng(0)
        scores = Failing(rng.normal(size=(3 * BLOCK_ROWS, 4)), rng.normal(size=(30, 4)))
        started = force_split(monkeypatch, on=True)
        threads = threading.active_count()
        with pytest.raises(ValueError, match=f"^block at row {failing}$"):
            top_k_scores(scores, 5, [[0]] * len(scores.queries))
        assert len(started) == 1 and threading.active_count() == threads

    def test_the_memory_bounds_hold_split(self, monkeypatch, planted_2000):
        started = force_split(monkeypatch, on=True)
        TestBlockScoring().test_mining_holds_two_blocks_not_the_matrix(planted_2000)
        TestBlockScoring().test_top_k_columns_scores_each_block_as_it_reaches_it(planted_2000)
        assert len(started) == 3


class TestTopKColumns:
    @pytest.mark.parametrize("k", [1, 4, 17, 30])  # 30 > 20 columns
    def test_matches_full_sort_oracle(self, k):
        rng = np.random.default_rng(k)
        n = 20
        ids = [f"d{i:02d}" for i in rng.permutation(n)]  # columns not in id order
        scores = rng.integers(0, 4, size=(12, n)) / 4.0  # few values: many ties
        exclude = [rng.choice(n, size=rng.integers(0, 5), replace=False).tolist()
                   for _ in range(len(scores))]
        excluded = top_k_columns(scores, ids, k, exclude=exclude)
        full = top_k_columns(scores, ids, k)
        for i, row in enumerate(scores):
            assert excluded[i].tolist() == naive_top_k(row, ids, k, exclude[i])
            assert full[i].tolist() == naive_top_k(row, ids, k)

    # 300 columns: k << n ranks only each row's candidates; k >= n and
    # k + |exclude| >= n sort the whole row
    @pytest.mark.parametrize("k", [0, 1, 10, 40, 295, 300, 450])
    def test_candidate_ranking_matches_full_sort_oracle(self, k):
        rng = np.random.default_rng(100 + k)
        n = 300
        ids = [f"d{i:03d}" for i in rng.permutation(n)]
        order = rng.permutation(n)
        leaders, group = order[:5], order[5:25]
        straddle = rng.uniform(-1.0, 0.0, n)
        straddle[leaders] = 1.0 + np.arange(5)
        straddle[group] = 0.5  # one tie group over places 6-25
        scores = np.vstack([
            np.full(n, 0.25),  # all equal: every column is a candidate
            straddle,
            straddle,
            rng.normal(size=n),
            rng.integers(0, 3, size=n) / 2.0,
        ])
        exclude = [
            rng.choice(n, size=2, replace=False).tolist(),
            [],
            group[:3].tolist() + [leaders[0]],  # excluded inside the boundary tie group
            rng.choice(n, size=min(k + 5, n), replace=False).tolist(),  # |exclude| > k
            rng.choice(n, size=3, replace=False).tolist(),
        ]
        excluded = top_k_columns(scores, ids, k, exclude=exclude)
        full = top_k_columns(scores, ids, k)
        for i, row in enumerate(scores):
            assert excluded[i].tolist() == naive_top_k(row, ids, k, exclude[i])
            assert full[i].tolist() == naive_top_k(row, ids, k)

    # -1 must not wrap around to the last column, nor 1.5 truncate to column 1
    @pytest.mark.parametrize("bad", [-1, -5, 5, 6, 1.5, float("nan")])
    def test_an_exclude_entry_that_is_not_a_column_is_rejected(self, bad):
        with pytest.raises(ValueError) as caught:
            top_k_columns(np.zeros((2, 5)), list("abcde"), 2, exclude=[[0], [1, bad]])
        assert str(caught.value) == f"exclude holds {bad!r}, not a column index in [0, 5)"

    @pytest.mark.parametrize("k", [-1, -3])
    def test_a_negative_k_is_rejected(self, k):
        # a negative k once dropped the row's last |k| columns: [0, 2, 1] at k=-1
        scores = np.array([[3.0, 1.0, 2.0, 0.0]])
        with pytest.raises(ValueError, match=f"k must be >= 0, got {k}"):
            top_k_columns(scores, list("abcd"), k)
        assert top_k_columns(scores, list("abcd"), 0)[0].tolist() == []

    def test_exclude_rows_may_be_tuples_or_arrays(self):
        rng = np.random.default_rng(5)
        scores = rng.integers(0, 3, size=(3, 9)) / 2.0
        ids = [f"d{i}" for i in rng.permutation(9)]
        rows = [[4, 0], [], [8, 8, 3]]
        expected = top_k_columns(scores, ids, 3, exclude=rows)
        for kind in (tuple, lambda r: np.array(r, dtype=np.int64)):
            got = top_k_columns(scores, ids, 3, exclude=[kind(r) for r in rows])
            assert [g.tolist() for g in got] == [e.tolist() for e in expected]

    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(st.data())
    def test_property_matches_full_sort_oracle(self, draw):
        # few score values force ties, at the candidate boundary too;
        # excluded columns repeat and may outnumber the columns left. Up to
        # four drawn rows repeat, in turn, over as many rows as three blocks
        n = draw.draw(st.integers(1, 30), label="n")
        n_drawn = draw.draw(st.integers(1, 4), label="drawn rows")
        n_rows = draw.draw(st.one_of(st.integers(1, 4), st.integers(1, 3 * BLOCK_ROWS)), label="rows")
        k = draw.draw(st.integers(0, n + 5), label="k")
        ids = [f"d{i:02d}" for i in draw.draw(st.permutations(range(n)), label="ids")]
        scores = np.array(draw.draw(st.lists(
            st.lists(st.sampled_from([-1.0, -0.0, 0.0, 0.5, 1.0]), min_size=n, max_size=n),
            min_size=n_drawn, max_size=n_drawn), label="scores"))
        exclude = draw.draw(st.lists(st.lists(st.integers(0, n - 1), max_size=n + 2),
                                     min_size=n_drawn, max_size=n_drawn), label="exclude")
        scores = scores[np.arange(n_rows) % n_drawn]
        exclude = [exclude[i % n_drawn] for i in range(n_rows)]
        excluded = top_k_columns(scores, ids, k, exclude=exclude)
        full = top_k_columns(scores, ids, k)
        for i, row in enumerate(scores):
            assert excluded[i].tolist() == naive_top_k(row, ids, k, exclude[i])
            assert full[i].tolist() == naive_top_k(row, ids, k)


class TestTopKScores:
    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(st.data())
    def test_property_matches_the_per_row_oracle(self, draw):
        # rows exclude 0 to n distinct columns, so some keep fewer than k
        # columns and some none; k = 0 keeps nothing; rows reach three blocks
        n = draw.draw(st.integers(1, 12), label="n")
        n_rows = draw.draw(st.one_of(st.integers(0, 4), st.integers(1, 3 * BLOCK_ROWS)),
                           label="rows")
        k = draw.draw(st.integers(0, n + 2), label="k")
        rng = np.random.default_rng(draw.draw(st.integers(0, 2**32 - 1), label="seed"))
        scores = rng.choice([-1.0, 0.0, 0.5, 1.0], size=(n_rows, n))
        exclude = [rng.permutation(n)[:rng.integers(0, n + 1)].tolist() for _ in range(n_rows)]
        excluded, top = top_k_scores(scores, k, exclude)
        assert excluded.tolist() == [scores[i, j] for i, cols in enumerate(exclude) for j in cols]
        want = [sorted((v for j, v in enumerate(row) if j not in cols), reverse=True)[:k]
                for row, cols in zip(scores.tolist(), exclude)]
        ends = np.cumsum([len(w) for w in want], dtype=int)
        assert len(top) == (ends[-1] if n_rows else 0)
        for got, w in zip(np.split(top, ends[:-1]), want):
            assert sorted(got.tolist(), reverse=True) == w

    @pytest.mark.parametrize("k, exclude, message", [
        (-1, [[0]], "k must be >= 0, got -1"),
        (2, [[3]], "exclude holds 3, not a column index in \\[0, 3\\)"),
    ])
    def test_bad_input_is_rejected(self, k, exclude, message):
        with pytest.raises(ValueError, match=message):
            top_k_scores(np.zeros((1, 3)), k, exclude)


def sha256_lines(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def test_mining_golden():
    # recorded before the per-row exclusion and the lazily built field
    # errors: the planted data of compare seed 0 at the compare-synth size,
    # mined at k=50 with the CLI encoder
    corpus, queries = make_benchmark(SyntheticSpec(400, 1000, seed=derive_seed(0, 10)))
    assert sha256_lines(corpus.texts) == (
        "a794ecd24ddd08c0d60f9acfc216e1310a1cc716e002c4c371b1411f7a555cc6")
    assert sha256_lines(queries.texts) == (
        "147ae9c23487f1747859017d3ec472da5f40c68c14e78743b11d221f81241a4f")
    config = EncoderConfig(hash_dim=cli.CLI_HASH_DIM, embed_dim=cli.CLI_EMBED_DIM,
                           proj_dim=cli.CLI_PROJ_DIM, seed=derive_seed(0, 1))
    mined = mine_hard_negatives(queries, corpus, make_scorer(init_params(config)), k=50)
    assert sha256_lines(json.dumps(q.hard_negative_ids) for q in mined) == (
        "2ef4317e8b4b1338e0ec99fe22746fcaabff330100b1cc17d2cea8391701ecda")


def test_evaluation_selection_golden():
    # recorded before the block-wise selections: the pool of the AUC
    # protocol, negatives in order, and the depth-10 ranked ids, over the
    # data and encoder of test_mining_golden at top_k 500
    corpus, queries = make_benchmark(SyntheticSpec(400, 1000, seed=derive_seed(0, 10)))
    config = EncoderConfig(hash_dim=cli.CLI_HASH_DIM, embed_dim=cli.CLI_EMBED_DIM,
                           proj_dim=cli.CLI_PROJ_DIM, seed=derive_seed(0, 1))
    scorer = make_scorer(init_params(config))
    pool, _ = pooled_auc_protocol(queries, corpus, scorer, top_k=500)
    digest = hashlib.sha256(pool.positives.tobytes() + pool.negatives.tobytes())
    lists = ranked_lists(queries, corpus, scorer, depth=10)
    digest.update("\n".join(json.dumps(rl.ranked_ids) for rl in lists).encode("utf-8"))
    assert digest.hexdigest() == (
        "72e2155740f20834f6a59b1a58100845a28bab30e8abf343f952d72c9375930a")


@pytest.fixture(scope="module")
def mined_toy():
    """Mined planted data in which query i also counts query i + 1's
    positive as its own, so drawn positives collide and get redrawn."""
    corpus, queries = make_benchmark(SyntheticSpec(n_queries=30, n_docs=80, seed=3))
    scorer = make_scorer(init_params(EncoderConfig(hash_dim=256, embed_dim=8, proj_dim=4, seed=1)))
    queries = mine_hard_negatives(queries, corpus, scorer, k=5)
    shared = []
    for i, q in enumerate(queries):
        extra = queries[(i + 1) % len(queries)].positive_ids[0]
        shared.append(replace(
            q, positive_ids=q.positive_ids + [extra],
            hard_negative_ids=[d for d in q.hard_negative_ids if d != extra]))
    return corpus, QuerySet(shared)


class TestSampleBatch:
    def make_data(self, n, n_negs=3):
        corpus = Corpus([Document(f"d{i}", f"text {i}") for i in range(3 * n)])
        qs = []
        for i in range(n):
            negs = [f"d{(i + j + 1) % (2 * n)}" for j in range(n_negs)]
            qs.append(Query(f"q{i}", f"text {i}", [f"d{i + 2 * n}"], negs))
        return QuerySet(qs), corpus

    def test_exhaustive_two_queries(self):
        queries, corpus = self.make_data(2, n_negs=0)
        q_rows, p_rows = sample_batch(batch_rows(queries, corpus, 2, 0), Xoshiro256StarStar(0))
        assert sorted(q_rows.tolist()) == [0, 1]
        assert [corpus.ids[j] for j in p_rows] == [f"d{4 + i}" for i in q_rows]

    def test_deterministic_under_seed(self):
        queries, corpus = self.make_data(20)
        b1 = sample_batch(batch_rows(queries, corpus, 5, 2), Xoshiro256StarStar(123))
        b2 = sample_batch(batch_rows(queries, corpus, 5, 2), Xoshiro256StarStar(123))
        for rows1, rows2 in zip(b1, b2):
            assert rows1.dtype == np.intp
            np.testing.assert_array_equal(rows1, rows2)

    def test_single_query_batch_rejected(self):
        queries, corpus = self.make_data(4)
        with pytest.raises(ValueError, match="B must be >= 2, got 1"):
            batch_rows(queries, corpus, B=1, H=0)

    def test_negative_hard_negative_count_rejected(self):
        queries, corpus = self.make_data(4)
        with pytest.raises(ValueError, match="H must be >= 0, got -1"):
            batch_rows(queries, corpus, B=2, H=-1)

    def test_insufficient_queries(self):
        queries, corpus = self.make_data(2)
        with pytest.raises(ValueError, match="eligible"):
            batch_rows(queries, corpus, B=3, H=0)

    def test_too_few_hard_negatives_excludes_query(self):
        queries, corpus = self.make_data(4, n_negs=1)
        with pytest.raises(ValueError, match="eligible"):
            batch_rows(queries, corpus, B=3, H=2)

    def test_shared_positive_batches_redrawn(self):
        # two queries share the only positive; a batch with both is impossible
        corpus = Corpus([Document("p", "x"), Document("other", "y")])
        queries = QuerySet([
            Query("q0", "a", ["p"]),
            Query("q1", "b", ["p"]),
            Query("q2", "c", ["other"]),
        ])
        for seed in range(10):
            q_rows, p_rows = sample_batch(batch_rows(queries, corpus, 2, 0), Xoshiro256StarStar(seed))
            assert 2 in q_rows
            assert sorted(p_rows.tolist()) == [0, 1]

    def test_rows_form_a_valid_batch(self, mined_toy):
        corpus, queries = mined_toy
        ids = corpus.ids
        for seed in range(50):
            B, H = 2 + seed % 7, seed % 4
            q_rows, p_rows = sample_batch(batch_rows(queries, corpus, B, H), Xoshiro256StarStar(seed))
            assert len(set(q_rows.tolist())) == len(q_rows) == B
            assert len(p_rows) == B * (1 + H)
            assert len(set(p_rows[:B].tolist())) == B
            for i, r in enumerate(q_rows):
                q = queries[r]
                assert ids[p_rows[i]] in q.positive_ids
                negatives = [ids[j] for j in p_rows[B + i * H:B + (i + 1) * H]]
                assert len(set(negatives)) == H
                assert set(negatives) <= set(q.hard_negative_ids)
                assert not set(negatives) & set(q.positive_ids)


def batch_stream_digest(rows, rng, n=300) -> str:
    """sha256 of n successive (q_rows, p_rows) draws, as little-endian int64."""
    h = hashlib.sha256()
    for _ in range(n):
        for part in sample_batch(rows, rng):
            h.update(part.astype("<i8").tobytes())
    return h.hexdigest()


def collision_fixture():
    """Ten queries over four positives, so most (3, 2) draws collide and
    are redrawn. q0 has three positives, q3 exactly two hard negatives,
    and q5 one, which leaves it ineligible."""
    corpus = Corpus([Document(f"p{i}", f"pos {i}") for i in range(4)]
                    + [Document(f"n{i}", f"neg {i}") for i in range(12)])
    queries = []
    for i in range(10):
        positives = ["p0", "p1", "p2"] if i == 0 else [f"p{i % 4}"]
        n_negs = {3: 2, 5: 1}.get(i, 4 + i % 5)
        queries.append(Query(f"q{i}", f"query {i}", positives,
                             [f"n{(i + j) % 12}" for j in range(n_negs)]))
    return corpus, QuerySet(queries)


class TestBatchStream:
    # Both digests were recorded from scalar xoshiro steps and per-draw id
    # lookups, an implementation independent of the buffered stream.
    def test_compare_synth_stream_is_pinned(self):
        # the compare-synth shape: 400q/1000d, top-50 mined by the seed-0
        # init, train split, B=32, H=5, the seed-0 batch stream
        corpus, queries = make_benchmark(SyntheticSpec(400, 1000, seed=derive_seed(0, 10)))
        encoder = EncoderConfig(hash_dim=8192, embed_dim=32, proj_dim=16, seed=derive_seed(0, 1))
        queries = mine_hard_negatives(queries, corpus, make_scorer(init_params(encoder)), k=50)
        train, _, _ = split_queries(queries, SplitSpec(0.8, 0.1, seed=derive_seed(0, 12)))
        rows = batch_rows(train, corpus, 32, 5)
        assert batch_stream_digest(rows, Xoshiro256StarStar(derive_seed(0, 2))) == (
            "0557291e33efde599e907ae63718920c0582bb2964a20b9f51626159bb9b4558")

    def test_redrawn_stream_is_pinned(self):
        corpus, queries = collision_fixture()
        rows = batch_rows(queries, corpus, 3, 2)
        assert 5 not in rows.eligible
        assert batch_stream_digest(rows, Xoshiro256StarStar(7)) == (
            "8746a19f631de1b59e39727fd81547e0ca129e6f148e2f4a2e7a2b132d68dc5b")

    def test_gives_up_after_100_attempts(self):
        corpus = Corpus([Document("p", "x")])
        queries = QuerySet([Query(f"q{i}", "a", ["p"]) for i in range(3)])
        rng = Xoshiro256StarStar(0)
        with pytest.raises(ValueError, match="distinct positives after 100 attempts"):
            sample_batch(batch_rows(queries, corpus, 2, 0), rng)
        oracle = Xoshiro256StarStar(0)
        for _ in range(100):
            oracle.sample_indices(3, 2)
            oracle.below(1)
            oracle.below(1)
        assert rng.next_u64() == oracle.next_u64()


class TestSplit:
    def test_deterministic_and_disjoint(self):
        queries = QuerySet([Query(f"q{i}", "t", [f"d{i}"]) for i in range(100)])
        spec = SplitSpec(0.8, 0.1, seed=5)
        t1, e1, s1 = split_queries(queries, spec)
        t2, e2, s2 = split_queries(queries, spec)
        assert [q.id for q in t1] == [q.id for q in t2]
        assert [q.id for q in e1] == [q.id for q in e2]
        ids = [q.id for q in t1] + [q.id for q in e1] + [q.id for q in s1]
        assert sorted(ids) == sorted(q.id for q in queries)
        assert len(t1) == 80 and len(e1) == 10 and len(s1) == 10

    def test_fraction_validation(self):
        with pytest.raises(ValueError):
            SplitSpec(0.9, 0.2, seed=0)
        with pytest.raises(ValueError):
            SplitSpec(0.0, 0.5, seed=0)
