"""Tests for the command-line entry point: seeds and exit codes."""

import argparse
import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mwlab import cli, data, encoder, experiments, trainer
from mwlab.data import SplitSpec, load_corpus, load_queries, save_queries, split_queries
from mwlab.experiments import synthetic_provider
from mwlab.prng import derive_seed
from mwlab.synthetic import SyntheticSpec


def write_inputs(tmp_path, corpus, queries):
    corpus_path = tmp_path / "corpus.jsonl"
    with open(corpus_path, "w", encoding="utf-8") as f:
        for doc in corpus:
            f.write(json.dumps({"id": doc.id, "text": doc.text}) + "\n")
    queries_path = tmp_path / "queries.jsonl"
    save_queries(queries, queries_path)
    return str(corpus_path), str(queries_path)


class _Mined(Exception):
    pass


def test_mine_seed_matches_compare_mining(tmp_path, monkeypatch):
    seed, k = 4, 5
    provider = synthetic_provider(SyntheticSpec(n_queries=30, n_docs=80))
    corpus_path, queries_path = write_inputs(tmp_path, *provider(seed))
    out = tmp_path / "mined.jsonl"
    argv = ["mine", "--corpus", corpus_path, "--queries", queries_path,
            "--out", str(out), "--top-k", str(k), "--seed", str(seed)]
    assert cli.main(argv) == 0
    from_cli = load_queries(out, load_corpus(corpus_path))

    mine = experiments.mine_hard_negatives

    def capture(*args, **kwargs):
        # stop after mining: training is not under test
        raise _Mined(mine(*args, **kwargs))

    monkeypatch.setattr(experiments, "mine_hard_negatives", capture)
    with pytest.raises(_Mined) as caught:
        cli.main(["compare", "--corpus", corpus_path, "--queries", queries_path,
                  "--seeds", str(seed), "--mine-k", str(k), "--out", str(tmp_path / "cmp")])
    from_compare = caught.value.args[0]
    assert [q.id for q in from_cli] == [q.id for q in from_compare]
    assert [q.hard_negative_ids for q in from_cli] == [
        q.hard_negative_ids for q in from_compare]


def test_mine_with_a_checkpoint_scores_with_it(tmp_path):
    args = toy_checkpoint(tmp_path)
    out = tmp_path / "mined.jsonl"
    assert cli.main(["mine", *args, "--out", str(out), "--top-k", "3"]) == 0
    corpus = load_corpus(args[1])
    params, _ = encoder.load_checkpoint(args[5])
    expected = data.mine_hard_negatives(load_queries(args[3], corpus), corpus,
                                        encoder.make_scorer(params), k=3)
    assert [q.hard_negative_ids for q in load_queries(out, corpus)] == [
        q.hard_negative_ids for q in expected]


def test_train_with_short_eval_split_exits_2(tmp_path, capsys):
    provider = synthetic_provider(SyntheticSpec(n_queries=30, n_docs=80))
    corpus_path, queries_path = write_inputs(tmp_path, *provider(0))
    config = tmp_path / "config.json"
    config.write_text(json.dumps(
        {"B": 8, "H": 0, "hash_dim": 256, "embed_dim": 8, "proj_dim": 4}))
    argv = ["train", "--corpus", corpus_path, "--queries", queries_path,
            "--config", str(config), "--out", str(tmp_path / "run")]
    assert cli.main(argv) == 2
    assert "error: eval split (3 queries): need 8 eligible" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_train_with_short_train_split_exits_2(tmp_path, capsys):
    provider = synthetic_provider(SyntheticSpec(n_queries=30, n_docs=80))
    corpus_path, queries_path = write_inputs(tmp_path, *provider(0))
    config = tmp_path / "config.json"
    config.write_text(json.dumps(
        {"B": 8, "H": 0, "hash_dim": 256, "embed_dim": 8, "proj_dim": 4}))
    argv = ["train", "--corpus", corpus_path, "--queries", queries_path,
            "--config", str(config), "--out", str(tmp_path / "run"),
            "--train-fraction", "0.1", "--eval-fraction", "0.5"]
    assert cli.main(argv) == 2
    assert "error: train split (3 queries): need 8 eligible" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_evaluate_on_best_checkpoint_reproduces_in_run_eval(tmp_path):
    # (queries, docs, train fraction, eval fraction, proj_dim): 6 eval
    # queries score in one block, 65 in two
    for n_queries, n_docs, train_fraction, eval_fraction, proj_dim in [
            (60, 120, 0.8, 0.1, 4), (130, 150, 0.4, 0.5, 32)]:
        reproduce_in_run_eval(tmp_path / f"q{n_queries}", n_queries, n_docs,
                              train_fraction, eval_fraction, proj_dim)


def reproduce_in_run_eval(tmp_path, n_queries, n_docs, train_fraction, eval_fraction, proj_dim):
    """Train through the CLI, then check that ``mwlab evaluate`` on the best
    checkpoint reads the metrics its evals.csv row recorded."""
    tmp_path.mkdir()
    seed = 2
    provider = synthetic_provider(SyntheticSpec(n_queries=n_queries, n_docs=n_docs))
    corpus, queries = provider(seed)
    corpus_path, queries_path = write_inputs(tmp_path, corpus, queries)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "B": 4, "H": 0, "base_lr": 0.05, "warmup_steps": 2, "max_epochs": 3,
        "eval_every": 4, "eval_top_k": 20, "hash_dim": 256, "embed_dim": 8, "proj_dim": proj_dim,
    }))
    run = tmp_path / "run"
    assert cli.main(["train", "--corpus", corpus_path, "--queries", queries_path,
                     "--config", str(config), "--out", str(run), "--seed", str(seed),
                     "--train-fraction", str(train_fraction),
                     "--eval-fraction", str(eval_fraction)]) == 0
    best = json.loads((run / "report.json").read_text())["best_checkpoint_step"]
    with open(run / "evals.csv", encoding="utf-8") as f:
        row = next(r for r in csv.DictReader(f) if int(r["step"]) == best)

    # the eval split train used, as cmd_train derives it
    _, eval_qs, _ = split_queries(
        queries, SplitSpec(train_fraction, eval_fraction, seed=derive_seed(seed, 12)))
    eval_path = tmp_path / "eval.jsonl"
    save_queries(eval_qs, eval_path)
    out = tmp_path / "eval_out"
    assert cli.main(["evaluate", "--corpus", corpus_path, "--queries", str(eval_path),
                     "--checkpoint", str(run / f"ckpt_{best}"), "--out", str(out),
                     "--top-k", "20"]) == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["auc"] == float(row["auc"])
    assert metrics["mrr_at_10"] == float(row["mrr10"])
    assert metrics["ndcg_at_10"] == float(row["ndcg10"])


def test_mine_with_non_string_text_exits_2(tmp_path, capsys):
    corpus_path = tmp_path / "corpus.jsonl"
    corpus_path.write_text('{"id": "d1", "text": "a b"}\n{"id": "d3", "text": 5}\n')
    queries_path = tmp_path / "queries.jsonl"
    queries_path.write_text('{"id": "q1", "text": "a", "positive_ids": ["d1"]}\n')
    argv = ["mine", "--corpus", str(corpus_path), "--queries", str(queries_path),
            "--out", str(tmp_path / "mined.jsonl")]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert "corpus.jsonl: line 2: document 'd3': text must be a string" in err


@pytest.mark.parametrize("config, expected", [
    ({"B": "4"}, "B must be int"),
    ({"B": 4.5}, "B must be int"),
    ({"eval_every": True}, "eval_every must be int"),
    ({"tau": None}, "tau must be float"),
    ({"loss_kind": 1}, "loss_kind must be str"),
    ({"hash_dim": "x"}, "hash_dim must be int"),
])
def test_train_with_wrongly_typed_config_exits_2(tmp_path, capsys, config, expected):
    provider = synthetic_provider(SyntheticSpec(n_queries=30, n_docs=80))
    corpus_path, queries_path = write_inputs(tmp_path, *provider(0))
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    argv = ["train", "--corpus", corpus_path, "--queries", queries_path,
            "--config", str(config_path), "--out", str(tmp_path / "run")]
    assert cli.main(argv) == 2
    assert f"error: {expected}, got " in capsys.readouterr().err


@pytest.mark.parametrize("loss, cause", [
    ("cl", "non-finite gradient at optimizer step 1"),
    ("mw", "loss value must be finite and >= 0, got inf"),
], ids=["cl", "mw"])
def test_a_diverging_run_exits_2_naming_the_step(tmp_path, capsys, loss, cause):
    # scores over tau overflow at once; the suite turns any numpy warning
    # into an error, so the run must also keep its expected overflow quiet
    provider = synthetic_provider(SyntheticSpec(n_queries=60, n_docs=150))
    corpus_path, queries_path = write_inputs(tmp_path, *provider(0))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"tau": 1e-308, "B": 4, "H": 0, "max_epochs": 1,
                                  "eval_every": 2, "eval_batches": 1, "hash_dim": 256,
                                  "embed_dim": 8, "proj_dim": 4}))
    argv = ["train", "--corpus", corpus_path, "--queries", queries_path, "--loss", loss,
            "--config", str(config), "--out", str(tmp_path / "run")]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == (
        f"error: {loss} training diverged at step 1 (tau=1e-308): {cause}\n")


def test_evaluate_hashes_queries_and_corpus_once(tmp_path, monkeypatch):
    corpus, queries = synthetic_provider(SyntheticSpec(n_queries=20, n_docs=50))(0)
    corpus_path, queries_path = write_inputs(tmp_path, corpus, queries)
    ckpt = tmp_path / "ckpt"
    encoder.save_checkpoint(encoder.init_params(encoder.EncoderConfig(
        hash_dim=256, embed_dim=8, proj_dim=4, seed=1)), 0, ckpt)
    calls = []
    prepare = encoder.prepare_tokens

    def counting(texts, hash_dim):
        calls.append(len(texts))
        return prepare(texts, hash_dim)

    # collections hash their texts through the name data binds
    monkeypatch.setattr(data, "prepare_tokens", counting)
    assert cli.main(["evaluate", "--corpus", corpus_path, "--queries", queries_path,
                     "--checkpoint", str(ckpt), "--out", str(tmp_path / "out"),
                     "--top-k", "10"]) == 0
    assert calls == [len(queries), len(corpus)]


@pytest.mark.parametrize("edit, expected", [
    ({"hash_dim": 0}, "all dimensions must be >= 1"),
    ({"step": "x"}, "invalid literal for int()"),
])
def test_evaluate_with_bad_checkpoint_header_exits_2(tmp_path, capsys, edit, expected):
    corpus, queries = synthetic_provider(SyntheticSpec(n_queries=20, n_docs=50))(0)
    corpus_path, queries_path = write_inputs(tmp_path, corpus, queries)
    ckpt = tmp_path / "ckpt"
    encoder.save_checkpoint(encoder.init_params(encoder.EncoderConfig(
        hash_dim=256, embed_dim=8, proj_dim=4, seed=1)), 0, ckpt)
    header, payload = ckpt.read_bytes().split(b"\n", 1)
    ckpt.write_bytes(json.dumps({**json.loads(header), **edit}).encode() + b"\n" + payload)
    assert cli.main(["evaluate", "--corpus", corpus_path, "--queries", queries_path,
                     "--checkpoint", str(ckpt), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert str(ckpt) in err and expected in err


def test_train_and_evaluate_with_a_hash_dim_that_is_not_a_power_of_two(tmp_path, monkeypatch):
    corpus, queries = synthetic_provider(SyntheticSpec(n_queries=60, n_docs=120))(0)
    corpus_path, queries_path = write_inputs(tmp_path, corpus, queries)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "B": 4, "H": 0, "base_lr": 0.05, "warmup_steps": 2, "max_epochs": 2,
        "eval_every": 4, "eval_top_k": 20, "hash_dim": 300, "embed_dim": 8, "proj_dim": 4,
    }))
    trained = []

    def capturing(*args, **kwargs):
        trained.append(trainer.train(*args, **kwargs))
        return trained[-1]

    monkeypatch.setattr(cli, "train", capturing)
    run = tmp_path / "run"
    assert cli.main(["train", "--corpus", corpus_path, "--queries", queries_path,
                     "--config", str(config), "--out", str(run)]) == 0
    (best, report), = trained
    assert best.config.hash_dim == 300
    assert not np.array_equal(best.embedding, encoder.init_params(best.config).embedding)
    ckpt = run / f"ckpt_{report.best_checkpoint_step}"
    saved, step = encoder.load_checkpoint(ckpt)
    assert step == report.best_checkpoint_step and saved.config == best.config
    np.testing.assert_array_equal(saved.embedding, best.embedding)
    np.testing.assert_array_equal(saved.projection, best.projection)
    out = tmp_path / "eval_out"
    assert cli.main(["evaluate", "--corpus", corpus_path, "--queries", queries_path,
                     "--checkpoint", str(ckpt), "--out", str(out), "--top-k", "20"]) == 0
    assert json.loads((out / "metrics.json").read_text())["n_pos"] > 0


def exit_code(argv) -> int:
    """cli.main's return value, or the code of the SystemExit that argparse
    raises for an argument it cannot parse."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


def toy_checkpoint(tmp_path) -> list[str]:
    """Arguments naming a 20-query, 50-document fixture and a fresh
    checkpoint, for the commands that evaluate one."""
    corpus, queries = synthetic_provider(SyntheticSpec(n_queries=20, n_docs=50))(0)
    corpus_path, queries_path = write_inputs(tmp_path, corpus, queries)
    ckpt = tmp_path / "ckpt"
    encoder.save_checkpoint(encoder.init_params(encoder.EncoderConfig(
        hash_dim=256, embed_dim=8, proj_dim=4, seed=1)), 0, ckpt)
    return ["--corpus", corpus_path, "--queries", queries_path, "--checkpoint", str(ckpt)]


def test_mine_with_repeated_positive_exits_2(tmp_path, capsys):
    corpus_path = tmp_path / "corpus.jsonl"
    corpus_path.write_text('{"id": "a", "text": "x y"}\n{"id": "b", "text": "y z"}\n')
    queries_path = tmp_path / "queries.jsonl"
    queries_path.write_text('{"id": "q", "text": "t", "positive_ids": ["a", "a"]}\n')
    argv = ["mine", "--corpus", str(corpus_path), "--queries", str(queries_path),
            "--out", str(tmp_path / "mined.jsonl")]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert "queries.jsonl: line 1: query 'q': document 'a' appears twice in positive_ids" in err
    assert not (tmp_path / "mined.jsonl").exists()


@pytest.mark.parametrize("what", ["corpus", "query", "pool"])
def test_a_missing_input_file_exits_2_naming_it(tmp_path, capsys, what):
    corpus, queries = synthetic_provider(SyntheticSpec(n_queries=20, n_docs=50))(0)
    corpus_path, queries_path = write_inputs(tmp_path, corpus, queries)
    missing, out = str(tmp_path / "missing.jsonl"), tmp_path / "out"
    argv = {
        "corpus": ["mine", "--corpus", missing, "--queries", queries_path,
                   "--out", str(out / "mined.jsonl")],
        "query": ["train", "--corpus", corpus_path, "--queries", missing, "--out", str(out)],
        "pool": ["lemma1-demo", "--pool", missing, "--sigma", "1", "--out", str(out / "d.csv")],
    }[what]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == f"error: {what} file not found: {missing}\n"
    assert not out.exists()


@pytest.mark.parametrize("content, expected", [
    (None, "config file not found: {path}\n"),
    (b'{"B": 4,', "{path}: Expecting property name enclosed in double quotes"),
    (b'{"B": 4}\xff', "{path}: 'utf-8' codec can't decode byte 0xff"),
    (b'[{"B": 4}]', "{path}: config must be a JSON object\n"),
    (b'{"B": 4, "Bee": 4, "lr": 1}', "{path}: unknown config keys ['Bee', 'lr']\n"),
], ids=["missing", "malformed", "not-utf-8", "not-an-object", "unknown-keys"])
def test_a_bad_config_file_exits_2_naming_it(tmp_path, capsys, content, expected):
    corpus, queries = synthetic_provider(SyntheticSpec(n_queries=20, n_docs=50))(0)
    corpus_path, queries_path = write_inputs(tmp_path, corpus, queries)
    config, out = tmp_path / "config.json", tmp_path / "out"
    if content is not None:
        config.write_bytes(content)
    argv = ["train", "--corpus", corpus_path, "--queries", queries_path,
            "--config", str(config), "--out", str(out)]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith("error: " + expected.format(path=config))
    assert not out.exists()


# 2**40 x 32 and 8192 x 10**11 doubles are 2**48 bytes or more, beyond the
# 47-bit user address space, so the request fails under any overcommit setting
@pytest.mark.parametrize("config", [{"hash_dim": 2**40}, {"embed_dim": 10**11}])
def test_a_table_too_large_to_allocate_exits_2(tmp_path, capsys, config):
    config_path, out = tmp_path / "config.json", tmp_path / "out"
    config_path.write_text(json.dumps(config))
    assert cli.main(["compare", "--synthetic", "--synth-queries", "60", "--synth-docs", "150",
                     "--seeds", "0", "--config", str(config_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: Unable to allocate") and err.count("\n") == 1
    assert not out.exists()


def test_the_docstring_lists_exactly_the_commands():
    listed = cli.__doc__.split("Commands:")[1].split(".")[0]
    commands = next(a.choices for a in cli.build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction))
    assert [c.strip() for c in listed.split(",")] == list(commands)


def test_an_input_file_that_is_not_utf8_exits_2_naming_file_and_line(tmp_path, capsys):
    corpus_path = tmp_path / "corpus.jsonl"
    corpus_path.write_bytes(b'{"id": "d1", "text": "a"}\n\xff{"id": "d2", "text": "b"}\n')
    queries_path = tmp_path / "queries.jsonl"
    queries_path.write_text('{"id": "q1", "text": "a", "positive_ids": ["d1"]}\n')
    argv = ["mine", "--corpus", str(corpus_path), "--queries", str(queries_path),
            "--out", str(tmp_path / "mined.jsonl")]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {corpus_path}: line 2: 'utf-8' codec can't decode byte 0xff")
    assert not (tmp_path / "mined.jsonl").exists()


def test_train_writes_its_own_best_checkpoint_over_an_older_one(tmp_path):
    corpus, queries = synthetic_provider(SyntheticSpec(n_queries=20, n_docs=50))(0)
    corpus_path, queries_path = write_inputs(tmp_path, corpus, queries)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"max_epochs": 0, "hash_dim": 256, "embed_dim": 8,
                                  "proj_dim": 4}))

    def best_checkpoint(out, seed) -> bytes:
        assert cli.main(["train", "--corpus", corpus_path, "--queries", queries_path,
                         "--config", str(config), "--out", str(out),
                         "--seed", str(seed)]) == 0
        assert json.loads((out / "report.json").read_text())["best_checkpoint_step"] == 0
        return (out / "ckpt_0").read_bytes()

    older = best_checkpoint(tmp_path / "run", 1)
    fresh = best_checkpoint(tmp_path / "fresh", 2)
    assert older != fresh
    assert best_checkpoint(tmp_path / "run", 2) == fresh


def test_lemma1_demo_writes_one_row_per_sigma(tmp_path):
    out = tmp_path / "demo.csv"
    assert cli.main(["lemma1-demo", "--synthetic", "--n-queries", "20",
                     "--sigma", "0", "2", "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert [r["sigma"] for r in rows] == ["0.0", "2.0"]
    # the demo pools start cleanly separated, and no offset keeps them so
    assert float(rows[0]["aoc_before"]) == float(rows[0]["aoc_after"]) == 0.0
    assert float(rows[1]["aoc_after"]) > 0.0


@pytest.mark.parametrize("pool, tau, code, err", [
    # a negative above a positive: the loss overflows to +inf
    ('{"positives": [0.1, 0.6], "negatives": [0.5, 0.0]}', "1e-310", 2,
     "error: the softmax loss is not finite at tau=1e-310\n"),
    # every positive above every negative: the loss saturates at 0
    ('{"positives": [0.6], "negatives": [0.5, 0.0]}', "1e-310", 0, ""),
    ("", "1.0", 2, "error: {path}: no pools found\n"),
], ids=["overflow", "saturated", "no-pools"])
def test_lemma1_demo_on_a_pool_file(tmp_path, capsys, pool, tau, code, err):
    path, out = tmp_path / "pools.jsonl", tmp_path / "demo.csv"
    path.write_text(pool + "\n")
    assert cli.main(["lemma1-demo", "--pool", str(path), "--sigma", "0", "0.5",
                     "--tau", tau, "--out", str(out)]) == code
    assert capsys.readouterr().err == err.format(path=path)
    if code == 0:
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert [(r["cl_before"], r["cl_after"]) for r in rows] == [("0.0", "0.0")] * 2
    else:
        assert not out.exists()


def test_lemma2_check_at_an_overflowing_tau_keeps_stderr_empty(capsys):
    # (s- - s+) / tau overflows to +inf, the limit of the pair loss, so
    # the bound holds in every trial
    assert cli.main(["lemma2-check", "--trials", "3", "--max-side", "5", "--tau", "1e-320"]) == 0
    assert capsys.readouterr() == ("trials=3 violations=0\n", "")


def test_lemma2_check_passes(capsys):
    argv = ["lemma2-check", "--trials", "12", "--max-side", "30"]
    assert cli.main(argv) == 0
    assert "trials=12 violations=0" in capsys.readouterr().out


@pytest.mark.parametrize("argv, code", [
    (["lemma2-check", "--trials", "2", "--max-side", "5"], 0),
    (["compare", "--seed", "3"], 2),
])
def test_python_dash_m_mwlab_exits_with_the_cli_code(argv, code):
    run = python_dash_m_mwlab(argv)
    assert run.returncode == code, run.stderr


def python_dash_m_mwlab(argv) -> subprocess.CompletedProcess:
    """``python -m mwlab argv`` in a fresh process, so stderr holds all
    the run wrote there, logging's last-resort handler included."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "mwlab", *argv], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path}, timeout=120)


def test_mine_short_of_k_reports_the_shortfall_on_stdout_alone(tmp_path):
    provider = synthetic_provider(SyntheticSpec(n_queries=5, n_docs=20))
    corpus_path, queries_path = write_inputs(tmp_path, *provider(0))
    run = python_dash_m_mwlab(["mine", "--corpus", corpus_path, "--queries", queries_path,
                               "--out", str(tmp_path / "mined.jsonl"), "--top-k", "30"])
    assert (run.returncode, run.stderr) == (0, "")
    assert "(5 with fewer than 30 negatives)" in run.stdout


def test_compare_mining_short_of_k_keeps_stderr_empty(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "B": 4, "H": 2, "max_epochs": 1, "eval_every": 3, "warmup_steps": 2, "eval_batches": 1,
        "eval_top_k": 20, "hash_dim": 1024, "embed_dim": 16, "proj_dim": 8}))
    run = python_dash_m_mwlab(["compare", "--synthetic", "--synth-queries", "60",
                               "--synth-docs", "60", "--mine-k", "70", "--seeds", "0",
                               "--config", str(config), "--out", str(tmp_path / "cmp")])
    assert (run.returncode, run.stderr) == (0, "")


def test_lemma2_check_exits_1_when_the_bound_fails(monkeypatch, capsys):
    monkeypatch.setattr(cli, "mw_bound_check", lambda pool, tau: (0.5, 0.25, False))
    assert cli.main(["lemma2-check", "--trials", "3", "--max-side", "5"]) == 1
    captured = capsys.readouterr()
    assert "trials=3 violations=3" in captured.out
    dumps = [json.loads(line) for line in captured.err.splitlines()]
    assert [(d["aoc"], d["mw"]) for d in dumps] == [(0.5, 0.25)] * 3


def test_counts_prints_both_term_counts(capsys):
    assert cli.main(["counts", "4", "2"]) == 0
    assert capsys.readouterr().out.strip() == "cl_terms=44 mw_terms=176"


def test_roc_writes_points_from_origin_to_corner(tmp_path):
    out = tmp_path / "out"
    assert cli.main(["roc", *toy_checkpoint(tmp_path), "--out", str(out), "--top-k", "10"]) == 0
    points = [tuple(map(float, line.split(","))) for line in (out / "roc.csv").read_text().splitlines()]
    assert points[0] == (0.0, 0.0) and points[-1] == (1.0, 1.0)


def test_histogram_counts_add_up_to_the_pool(tmp_path):
    out = tmp_path / "out"
    assert cli.main(["histogram", *toy_checkpoint(tmp_path), "--out", str(out),
                     "--top-k", "10", "--bins", "7"]) == 0
    rows = [line.split(",") for line in (out / "hist.csv").read_text().splitlines()]
    assert len(rows) == 7
    # 20 queries, one positive and 10 pooled negatives each
    assert sum(int(r[2]) for r in rows) == 20
    assert sum(int(r[3]) for r in rows) == 200


def test_ablate_writes_one_row_per_grid_cell(tmp_path):
    corpus, queries = synthetic_provider(SyntheticSpec(n_queries=60, n_docs=120))(0)
    corpus_path, queries_path = write_inputs(tmp_path, corpus, queries)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "max_epochs": 1, "eval_every": 4, "eval_top_k": 20,
        "hash_dim": 256, "embed_dim": 8, "proj_dim": 4,
    }))
    out = tmp_path / "out"
    assert cli.main(["ablate", "--corpus", corpus_path, "--queries", queries_path,
                     "--config", str(config), "--out", str(out), "--lrs", "0.01", "0.05",
                     "--batch-sizes", "4", "--hard-negatives", "0"]) == 0
    with open(out / "ablation.csv", encoding="utf-8") as f:
        rows = list(csv.DictReader(f))
    assert [(r["lr"], r["batch_size"], r["hard_negative"]) for r in rows] == [
        ("0.01", "4", "0"), ("0.05", "4", "0")]


@pytest.mark.parametrize("argv", [
    ["lemma1-demo", "--sigma", "1", "--out", "demo.csv"],  # neither --pool nor --synthetic
    ["lemma1-demo", "--synthetic", "--sigma", "x", "--out", "demo.csv"],
    ["lemma2-check", "--tau", "0"],
    ["lemma2-check", "--trials", "many"],
    ["counts", "1", "0"],
    ["counts", "4"],
    ["lemma1-demo", "--synthetic", "--sigma", "1", "--tau", "0", "--out", "demo.csv"],
    ["lemma1-demo", "--synthetic", "--sigma", "1", "--tau", "-1", "--out", "demo.csv"],
])
def test_bad_argument_exits_2(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    assert exit_code(argv) == 2
    assert not (tmp_path / "demo.csv").exists()


@pytest.mark.parametrize("command, extra", [
    ("roc", ["--top-k", "0"]),
    ("roc", ["--top-k", "ten"]),
    ("histogram", ["--bins", "0"]),
    ("histogram", ["--bins", "1.5"]),
])
def test_evaluating_command_with_bad_argument_exits_2(tmp_path, command, extra):
    out = tmp_path / "out"
    assert exit_code([command, *toy_checkpoint(tmp_path), "--out", str(out), *extra]) == 2
    assert not out.exists()


@pytest.mark.parametrize("extra", [
    ["--lrs", "0.05", "--batch-sizes", "1", "--hard-negatives", "0"],
    ["--lrs", "0.05", "--batch-sizes", "4", "--hard-negatives", "-1"],
    ["--lrs", "0.05", "--batch-sizes", "4"],
    # a bad cell after a good one: no cell trains
    ["--lrs", "0.05", "-1", "--batch-sizes", "4", "--hard-negatives", "0"],
])
def test_ablate_with_bad_argument_exits_2(tmp_path, monkeypatch, extra):
    def refused(*args, **kwargs):
        raise AssertionError("a cell trained before the grid was checked")

    monkeypatch.setattr(trainer, "train", refused)
    corpus, queries = synthetic_provider(SyntheticSpec(n_queries=30, n_docs=60))(0)
    corpus_path, queries_path = write_inputs(tmp_path, corpus, queries)
    out = tmp_path / "out"
    assert exit_code(["ablate", "--corpus", corpus_path, "--queries", queries_path,
                      "--out", str(out), *extra]) == 2
    assert not out.exists()


def test_ablate_with_a_cell_a_split_cannot_draw_trains_no_cell(tmp_path, monkeypatch, capsys):
    def refused(*args, **kwargs):
        raise AssertionError("a cell trained before the splits were checked")

    monkeypatch.setattr(trainer, "train", refused)
    corpus, queries = synthetic_provider(SyntheticSpec(n_queries=60, n_docs=120))(0)
    corpus_path, queries_path = write_inputs(tmp_path, corpus, queries)
    out = tmp_path / "out"
    # B=4 draws from both splits; B=64 from neither, and it comes second
    assert exit_code(["ablate", "--corpus", corpus_path, "--queries", queries_path,
                      "--out", str(out), "--lrs", "0.01", "--batch-sizes", "4", "64",
                      "--hard-negatives", "0"]) == 2
    assert "error: eval split (6 queries): need 64 eligible" in capsys.readouterr().err
    assert not out.exists()


def test_lemma1_demo_with_a_negative_sigma_writes_no_file(tmp_path, capsys):
    out = tmp_path / "demo.csv"
    assert cli.main(["lemma1-demo", "--synthetic", "--n-queries", "20",
                     "--sigma", "1", "-1", "--out", str(out)]) == 2
    assert "sigma must be >= 0, got -1.0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("extra, message", [
    (["--sigma", "nan"], "sigma must be finite, got nan"),
    (["--sigma", "1", "--tau", "inf"], "tau must be positive and finite, got inf"),
])
def test_lemma1_demo_with_a_non_finite_setting_exits_2(tmp_path, capsys, extra, message):
    out = tmp_path / "demo.csv"
    assert cli.main(["lemma1-demo", "--synthetic", "--n-queries", "20", *extra,
                     "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("extra, shown", [
    pytest.param(["--trials", "2", "--tau", "nan"], "nan", id="nan"),
    pytest.param(["--trials", "2", "--tau", "inf"], "inf", id="inf"),
    # the trial never reaches the second tau, which is checked all the same
    pytest.param(["--trials", "1", "--tau", "0.5", "-1"], "-1.0", id="unused-negative"),
])
def test_lemma2_check_with_a_non_finite_tau_exits_2(capsys, extra, shown):
    # a NaN tau used to report every trial as a bound violation, exit 1
    assert cli.main(["lemma2-check", *extra]) == 2
    captured = capsys.readouterr()
    assert f"tau must be positive and finite, got {shown}\n" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("extra, message", [
    (["--trials", "0"], "--trials must be >= 1, got 0"),
    (["--trials", "-3"], "--trials must be >= 1, got -3"),
    (["--max-side", "0"], "--max-side must be >= 1, got 0"),
])
def test_lemma2_check_rejects_an_empty_run(capsys, extra, message):
    assert cli.main(["lemma2-check", *extra]) == 2
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""


def compare_inputs(tmp_path) -> list[str]:
    """--corpus, --queries and a small --config for `compare` on a
    60-query, 150-document fixture."""
    corpus, queries = synthetic_provider(SyntheticSpec(n_queries=60, n_docs=150))(0)
    corpus_path, queries_path = write_inputs(tmp_path, corpus, queries)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "B": 4, "H": 2, "max_epochs": 1, "eval_every": 3, "warmup_steps": 2,
        "eval_batches": 1, "hash_dim": 256, "embed_dim": 8, "proj_dim": 4,
    }))
    return ["--corpus", corpus_path, "--queries", queries_path, "--config", str(config)]


def test_compare_on_files_writes_the_comparison(tmp_path):
    out = tmp_path / "out"
    assert cli.main(["compare", *compare_inputs(tmp_path), "--seeds", "0", "--out", str(out),
                     "--mine-k", "5", "--top-k", "20"]) == 0
    result = json.loads((out / "compare.json").read_text())
    assert [r["seed"] for r in result["per_seed"]] == [0]
    assert result["mean"]["auc_gain"] == result["per_seed"][0]["auc_gain"]


def test_compare_hashes_the_corpus_once(tmp_path, monkeypatch):
    # mining, both train runs and both test-split evaluations share the
    # corpus table; the mined set and its splits inherit the queries' rows
    calls = []
    prepare = encoder.prepare_tokens

    def counting(texts, hash_dim):
        calls.append(list(texts))
        return prepare(texts, hash_dim)

    monkeypatch.setattr(data, "prepare_tokens", counting)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "B": 4, "H": 2, "max_epochs": 1, "eval_every": 3, "warmup_steps": 2,
        "eval_batches": 1, "hash_dim": 256, "embed_dim": 8, "proj_dim": 4,
    }))
    assert cli.main(["compare", "--synthetic", "--synth-queries", "60", "--synth-docs", "150",
                     "--seeds", "0", "--mine-k", "5", "--top-k", "20", "--config", str(config),
                     "--out", str(tmp_path / "out")]) == 0
    corpus, _ = synthetic_provider(SyntheticSpec(n_queries=60, n_docs=150))(0)
    assert calls.count(corpus.texts) == 1
    assert len(calls) == 2 and [len(c) for c in calls if c != corpus.texts] == [60]


def test_compare_without_hard_negatives_never_mines(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("compare with H = 0 mined")

    monkeypatch.setattr(experiments, "mine_hard_negatives", refuse)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "B": 4, "H": 0, "max_epochs": 1, "eval_every": 3, "warmup_steps": 2,
        "eval_batches": 1, "hash_dim": 256, "embed_dim": 8, "proj_dim": 4,
    }))
    out = tmp_path / "out"
    assert cli.main(["compare", "--synthetic", "--synth-queries", "60", "--synth-docs", "150",
                     "--seeds", "0", "--top-k", "20", "--config", str(config),
                     "--out", str(out)]) == 0
    (seed,) = json.loads((out / "compare.json").read_text())["per_seed"]
    for kind in ("cl", "mw"):
        assert set(seed[kind]) == {"auc", "mrr10", "ndcg10", "overlap", "best_checkpoint_step"}
        assert 0.0 <= seed[kind]["auc"] <= 1.0
    assert seed["auc_gain"] == seed["mw"]["auc"] - seed["cl"]["auc"]


@pytest.mark.parametrize("keep", ["--corpus", "--queries"])
def test_compare_with_one_input_file_exits_2(tmp_path, capsys, keep):
    args = compare_inputs(tmp_path)
    one = args[args.index(keep):args.index(keep) + 2]
    out = tmp_path / "out"
    assert exit_code(["compare", *one, "--seeds", "0", "--out", str(out)]) == 2
    assert "compare needs --synthetic or both --corpus and --queries" in capsys.readouterr().err
    assert not out.exists()


def refuse_training(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a run with bad settings started training")
    monkeypatch.setattr(cli, "train", refuse)
    monkeypatch.setattr(experiments, "train", refuse)


@pytest.mark.parametrize("config, message", [
    ({"eval_batches": 0}, "eval_batches must be >= 1, got 0"),
    ({"eval_top_k": 0}, "eval_top_k must be >= 1, got 0"),
])
def test_train_with_out_of_range_config_exits_2(tmp_path, monkeypatch, capsys, config, message):
    refuse_training(monkeypatch)
    corpus, queries = synthetic_provider(SyntheticSpec(n_queries=30, n_docs=80))(0)
    corpus_path, queries_path = write_inputs(tmp_path, corpus, queries)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    out = tmp_path / "run"
    assert cli.main(["train", "--corpus", corpus_path, "--queries", queries_path,
                     "--config", str(config_path), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("extra, message", [
    (["--bins", "0"], "bins must be >= 1, got 0"),
    (["--mine-k", "0"], "mine_k must be >= 1, got 0"),
    (["--top-k", "-1"], "eval_top_k must be >= 1, got -1"),
])
def test_compare_with_out_of_range_setting_exits_2(tmp_path, monkeypatch, capsys, extra, message):
    refuse_training(monkeypatch)
    out = tmp_path / "out"
    assert cli.main(["compare", *compare_inputs(tmp_path), "--seeds", "0", "--out", str(out),
                     *extra]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("seeds, repeated", [
    (["3", "3"], "[3, 3]"),
    (["-1", "4", "18446744073709551615"], "[-1, 18446744073709551615]"),  # equal mod 2**64
    (["0", "18446744073709551616", "2", "2"], "[0, 18446744073709551616, 2, 2]"),
])
def test_compare_with_aliased_seeds_exits_2(tmp_path, monkeypatch, capsys, seeds, repeated):
    refuse_training(monkeypatch)
    monkeypatch.setattr(experiments, "mine_hard_negatives",
                        lambda *args, **kwargs: pytest.fail("compare mined"))
    out = tmp_path / "out"
    assert cli.main(["compare", *compare_inputs(tmp_path), "--seeds", *seeds,
                     "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: seeds must be distinct mod 2**64, got repeats {repeated}\n"
    assert captured.out == "" and not out.exists()


def test_compare_takes_seeds_that_differ_mod_2_64(monkeypatch):
    ran = []
    outcome = {kind: {"auc": 0.5, "mrr10": 0.5, "ndcg10": 0.5, "overlap": 0.5}
               for kind in ("cl", "mw")}
    monkeypatch.setattr(experiments, "run_single_seed",
                        lambda seed, *args: ran.append(seed) or {**outcome, "auc_gain": 0.0})
    seeds = [-1, 0, 2**64 + 1, 2**64 - 2]
    experiments.run_comparison(seeds, None, None)
    assert ran == seeds


@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
def test_compare_with_a_non_finite_config_value_exits_2(tmp_path, monkeypatch, capsys, value):
    refuse_training(monkeypatch)
    monkeypatch.setattr(cli, "run_comparison", lambda *args: pytest.fail("compare ran"))
    args = compare_inputs(tmp_path)
    config = tmp_path / "config.json"  # the one compare_inputs wrote
    config.write_text(config.read_text()[:-1] + f', "tau": {value}}}')
    out = tmp_path / "out"
    assert cli.main(["compare", *args, "--seeds", "0", "--out", str(out)]) == 2
    assert f"tau must be finite, got {float(value)!r}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, extra, flag", [
    ("compare", ["--seeds", "0", "1"], ["--seed", "3"]),  # not --seeds 3
    ("train", [], ["--los", "mw"]),  # not --loss mw
])
def test_flag_prefix_exits_2(tmp_path, monkeypatch, capsys, command, extra, flag):
    refuse_training(monkeypatch)
    monkeypatch.setattr(cli, "run_comparison", lambda *args: pytest.fail("compare ran"))
    corpus, queries = synthetic_provider(SyntheticSpec(n_queries=30, n_docs=80))(0)
    corpus_path, queries_path = write_inputs(tmp_path, corpus, queries)
    out = tmp_path / "out"
    assert exit_code([command, "--corpus", corpus_path, "--queries", queries_path, *extra,
                      "--out", str(out), *flag]) == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
    assert not out.exists()


class _Trained(Exception):
    pass


@pytest.mark.parametrize("extra, top_k", [(["--top-k", "7"], 7), ([], 500)])
def test_compare_top_k_sets_the_runs_eval_top_k(tmp_path, monkeypatch, extra, top_k):
    def capture(config, *args, **kwargs):
        raise _Trained(config)

    monkeypatch.setattr(experiments, "train", capture)
    with pytest.raises(_Trained) as caught:
        cli.main(["compare", *compare_inputs(tmp_path), "--seeds", "0", "--mine-k", "5",
                  "--out", str(tmp_path / "out"), *extra])
    assert caught.value.args[0].eval_top_k == top_k


GOLDEN_CONFIG = {"B": 4, "H": 2, "base_lr": 0.05, "max_epochs": 2, "eval_every": 3,
                 "warmup_steps": 2, "eval_batches": 1, "eval_top_k": 20,
                 "hash_dim": 256, "embed_dim": 8, "proj_dim": 4}


def golden_run(tmp_path, capsys) -> dict[str, str]:
    """Run every command once at toy size through ``cli.main``. Returns the
    sha256 of each file written under ``out/`` and of each command's stdout,
    with ``tmp_path`` masked; inputs live under ``in/``."""
    inp, out = tmp_path / "in", tmp_path / "out"
    inp.mkdir()
    corpus_path, queries_path = write_inputs(
        inp, *synthetic_provider(SyntheticSpec(n_queries=60, n_docs=150))(0))
    config = inp / "config.json"
    config.write_text(json.dumps(GOLDEN_CONFIG))
    pools = inp / "pools.jsonl"
    pools.write_text('{"positives": [0.5, 0.75], "negatives": [-0.25, 0.0, 0.25]}\n\n'
                     '{"positives": [0.125], "negatives": [0.5, -0.5]}\n')
    mined = str(out / "mine" / "mined.jsonl")
    split = ["--corpus", corpus_path, "--queries", mined, "--config", str(config)]
    commands = [
        ("mine", ["mine", "--corpus", corpus_path, "--queries", queries_path,
                  "--out", mined, "--top-k", "5", "--seed", "3"]),
        ("train-cl", ["train", *split, "--loss", "cl", "--out", str(out / "train-cl")]),
        ("train-mw", ["train", *split, "--loss", "mw", "--seed", "1",
                      "--out", str(out / "train-mw")]),
    ]
    stdout = {}
    for name, argv in commands:
        assert cli.main(argv) == 0, name
        stdout[name] = capsys.readouterr().out
    best = json.loads((out / "train-mw" / "report.json").read_text())["best_checkpoint_step"]
    evaluated = ["--corpus", corpus_path, "--queries", mined,
                 "--checkpoint", str(out / "train-mw" / f"ckpt_{best}"), "--top-k", "20"]
    commands = [
        ("evaluate", ["evaluate", *evaluated, "--out", str(out / "evaluate")]),
        ("roc", ["roc", *evaluated, "--out", str(out / "roc")]),
        ("histogram", ["histogram", *evaluated, "--bins", "7", "--out", str(out / "histogram")]),
        ("compare-synthetic", ["compare", "--synthetic", "--synth-queries", "60",
                               "--synth-docs", "150", "--seeds", "0", "1", "--mine-k", "5",
                               "--config", str(config), "--out", str(out / "compare-synthetic")]),
        ("compare-files", ["compare", "--corpus", corpus_path, "--queries", queries_path,
                           "--seeds", "2", "--mine-k", "5", "--top-k", "10",
                           "--config", str(config), "--out", str(out / "compare-files")]),
        ("ablate", ["ablate", *split, "--lrs", "0.01", "0.05", "--batch-sizes", "4",
                    "--hard-negatives", "0", "2", "--out", str(out / "ablate")]),
        ("lemma1-synthetic", ["lemma1-demo", "--synthetic", "--n-queries", "20",
                              "--sigma", "0", "0.5", "2", "--out", str(out / "lemma1" / "s.csv")]),
        ("lemma1-pool", ["lemma1-demo", "--pool", str(pools), "--sigma", "0.25", "1",
                         "--seed", "4", "--out", str(out / "lemma1" / "p.csv")]),
        ("lemma2-check", ["lemma2-check", "--trials", "12", "--max-side", "30"]),
        ("counts", ["counts", "4", "2"]),
    ]
    for name, argv in commands:
        assert cli.main(argv) == 0, name
        stdout[name] = capsys.readouterr().out
    digests = {f"stdout:{name}": text.replace(str(tmp_path), "<tmp>").encode()
               for name, text in stdout.items()}
    digests.update((path.relative_to(out).as_posix(), path.read_bytes())
                   for path in sorted(out.rglob("*")) if path.is_file())
    return {name: hashlib.sha256(raw).hexdigest() for name, raw in digests.items()}


# recorded before the readers and writers moved into data.py; a command
# whose bytes change shows here by file name
GOLDEN = {
    "ablate/ablation.csv":
        "08be9bb04928d53748d3f3c2b7a342feb0b8ee4131f2c106b4d19324e955a3b8",
    "compare-files/compare.json":
        "05238183a009e4e777b09ebe1ecf51d0cca0244bcfbc08232c68aa613f3b3f35",
    "compare-synthetic/compare.json":
        "06f8d5e3178cb162c248ae07d62e34d3e1331084607696896a4c67d22d541987",
    "evaluate/metrics.json":
        "a62d2672feca387426dc7e3889134e8fcec31a99527595db533144f973aa1ca2",
    "histogram/hist.csv":
        "05ae9613c87facc2581aef2231ea130677a6d26baf2abb3f96a34754688d2806",
    "lemma1/p.csv":
        "5832729e5d2567c1bb51abc78430a32bd757ad63aeb6e25d0dd4d92a947975fc",
    "lemma1/s.csv":
        "e3bec500bc60806a43f0208b9d34dbb5fe06756ede9040d978eb253a9de63d03",
    "mine/mined.jsonl":
        "6666f3ba493d7e2aeb532da9bcf021d1c60b2b0ce4da061a64548c8e6400cdc4",
    "roc/roc.csv":
        "ec39426a18117ef5e8cdbbc7dee8e88b1930e83e3d28bf2829ef3a30436c671f",
    "stdout:ablate":
        "619a92a0d021e2f6e2750e605661affd18abe31cf4965b436212f317871006c2",
    "stdout:compare-files":
        "b49eea46893f91b58ac7190b4370c28900c460ce60f2ddd025db15fb10f1ad37",
    "stdout:compare-synthetic":
        "3572cf6966a48e379db469290b9c0318b7b4127612b3ea8e7a8df13639a28468",
    "stdout:counts":
        "29cb87103a00ce701b970367f36f5e0753efd0ce2ae25de433f5ab1b28b768ce",
    "stdout:evaluate":
        "5b77f050397b3b15e0121875fd2fb4a359998dce09c6db65efb282c57da54003",
    "stdout:histogram":
        "1b9c44e9c4574832865952a4baf8fb2e3fc3c86057a0e71ab88f40fff7eb95cb",
    "stdout:lemma1-pool":
        "83741e6cea5a8c50c3e07cef9cd7fc76898a27c742d0455bd8b2f43d3f389d0d",
    "stdout:lemma1-synthetic":
        "c6de89f661dd7cd90cec5fcec838af686e839168aa16afe1562b30a35b4a519e",
    "stdout:lemma2-check":
        "d0c8efb9d67becbbc8d44e6e573151aa949a9240cd6974de6017b633d505a968",
    "stdout:mine":
        "e7ffde168a86dbdebcc90dfe80e18fc85f8e6c6cb980615dd295d5b9c771642b",
    "stdout:roc":
        "d2a858f33e4d352f77196bdbee21c0519cce17d1b1409bc8d433f31b35ddf111",
    "stdout:train-cl":
        "feebd335dfeb7c817aa21825681f22998d27635647f4e3812fdf1a0d2bc13246",
    "stdout:train-mw":
        "f2229c909483cb0c4b6b0f03c18a029b6fe5f9040a7f8359e37b0bfdc223ca53",
    "train-cl/ckpt_3":
        "cc92aabe592477f54ffcf0ff9662f4b76e498ef0b4e13a26c12c2b7cbf79abb2",
    "train-cl/ckpt_6":
        "6fed705adb4d9447ab51a9223d8fc17922e424661d3e34b2fadfd4fef5cd08aa",
    "train-cl/ckpt_9":
        "e8e3ec26c8407b794656dc097eb530e6be68da8ee9668d2e40044cc9e5ca720f",
    "train-cl/evals.csv":
        "6f5eded5525caafbf1a356d6b8dde26dbd533c1a3e59ed91190a690fc22fb473",
    "train-cl/report.json":
        "dd0af064a37c21f40fb0a39a1050e7e917513906f37389273f0f4af10f0d0b80",
    "train-cl/steps.csv":
        "10b7ac72d9217840c95ab0c9802d5c308f362d208a75efaa041ed7ae8a4896a6",
    "train-mw/ckpt_12":
        "86af45f8b7eaab1d12202446323b408d7133fa909b6c91a7a265aa06cf568707",
    "train-mw/ckpt_15":
        "75e4290456568df65f9898eb0e3fbdb5cba6f8c90a930ebb6ae379682ea2b5e1",
    "train-mw/ckpt_18":
        "38ba986ad2b61f7d7bb98eb29bb1bfd85d85a3526618f87f6811bac9ef52c4c1",
    "train-mw/ckpt_21":
        "7c4d7e73635628014d4490e4945e0f6cdd0ef39a00c6b8b0369f2b4259441d72",
    "train-mw/ckpt_24":
        "215a9a15efb4f7a244f70bdd98c38c2e107b81b5e1962595db7329088e946273",
    "train-mw/ckpt_3":
        "f53bd59ac3c282383de37df93aa2d1cc0ffe20eb11c2b79cc2e91d6fe3deddf4",
    "train-mw/ckpt_6":
        "e1f6eb94b907b97f5cee376053124496ee94239d4ad1b84fcd4abfa3a4ad9e55",
    "train-mw/ckpt_9":
        "b9f7ac49d3f5bfc770fc3f0dce015871ce9a63ceb2f8174a06e33883b220021d",
    "train-mw/evals.csv":
        "67bd43de4a5c5e9bfc1fc3979fbc3b0e3017ee946a3badd4a78174434a91ffa8",
    "train-mw/report.json":
        "daad90e3e7ea4afe5ec9baf8b8b4edb33719d6a755ce90bceff112975efdb41f",
    "train-mw/steps.csv":
        "56966ffebe3da71f5af6f97112395b66c4f4d7a8849560ad37827d843c7c20f0",
}


def test_every_command_writes_the_recorded_bytes(tmp_path, capsys):
    assert golden_run(tmp_path, capsys) == GOLDEN
