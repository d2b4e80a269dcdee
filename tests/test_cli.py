"""Tests for the command-line entry point: seeds and exit codes."""

import json

import pytest

from mwlab import cli, experiments
from mwlab.data import load_corpus, load_queries, save_queries
from mwlab.experiments import ComparisonSettings, synthetic_provider
from mwlab.synthetic import SyntheticSpec
from mwlab.trainer import TrainConfig


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

    settings = ComparisonSettings(base_config=TrainConfig(), mine_k=k)
    assert (settings.hash_dim, settings.embed_dim, settings.proj_dim) == (
        cli.CLI_HASH_DIM, cli.CLI_EMBED_DIM, cli.CLI_PROJ_DIM)
    mine = experiments.mine_hard_negatives

    def capture(*args, **kwargs):
        # stop after mining: training is not under test
        raise _Mined(mine(*args, **kwargs))

    monkeypatch.setattr(experiments, "mine_hard_negatives", capture)
    with pytest.raises(_Mined) as caught:
        experiments.run_single_seed(seed, provider, settings)
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
