"""Tests for the command-line entry point: seeds and exit codes."""

import csv
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
    seed = 2
    provider = synthetic_provider(SyntheticSpec(n_queries=60, n_docs=120))
    corpus, queries = provider(seed)
    corpus_path, queries_path = write_inputs(tmp_path, corpus, queries)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "B": 4, "H": 0, "base_lr": 0.05, "warmup_steps": 2, "max_epochs": 3,
        "eval_every": 4, "eval_top_k": 20, "hash_dim": 256, "embed_dim": 8, "proj_dim": 4,
    }))
    run = tmp_path / "run"
    assert cli.main(["train", "--corpus", corpus_path, "--queries", queries_path,
                     "--config", str(config), "--out", str(run),
                     "--seed", str(seed)]) == 0
    best = json.loads((run / "report.json").read_text())["best_checkpoint_step"]
    with open(run / "evals.csv", encoding="utf-8") as f:
        row = next(r for r in csv.DictReader(f) if int(r["step"]) == best)

    # the eval split train used, as cmd_train derives it
    _, eval_qs, _ = split_queries(queries, SplitSpec(0.8, 0.1, seed=derive_seed(seed, 12)))
    eval_path = tmp_path / "eval.jsonl"
    save_queries(eval_qs, eval_path)
    out = tmp_path / "eval_out"
    assert cli.main(["evaluate", "--corpus", corpus_path, "--queries", str(eval_path),
                     "--checkpoint", str(run / f"ckpt_{best}"), "--out", str(out),
                     "--top-k", "20"]) == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["auc"] == float(row["auc"])
    assert metrics["mrr_at_10"] == float(row["mrr10"])


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


def test_lemma1_demo_writes_one_row_per_sigma(tmp_path):
    out = tmp_path / "demo.csv"
    assert cli.main(["lemma1-demo", "--synthetic", "--n-queries", "20",
                     "--sigma", "0", "2", "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert [r["sigma"] for r in rows] == ["0.0", "2.0"]
    # the demo pools start cleanly separated, and no offset keeps them so
    assert float(rows[0]["aoc_before"]) == float(rows[0]["aoc_after"]) == 0.0
    assert float(rows[1]["aoc_after"]) > 0.0


def test_lemma2_check_passes(capsys):
    argv = ["lemma2-check", "--trials", "12", "--max-side", "30"]
    assert cli.main(argv) == 0
    assert "trials=12 violations=0" in capsys.readouterr().out


@pytest.mark.parametrize("argv, code", [
    (["lemma2-check", "--trials", "2", "--max-side", "5"], 0),
    (["compare", "--seed", "3"], 2),
])
def test_python_dash_m_mwlab_exits_with_the_cli_code(argv, code):
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-m", "mwlab", *argv], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert run.returncode == code, run.stderr


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
