"""Tests for the side-by-side comparison of the two losses."""

import json

import numpy as np
import pytest

from mwlab.data import write_json
from mwlab.encoder import EncoderConfig
from mwlab.experiments import ComparisonSettings, run_comparison, synthetic_provider
from mwlab.synthetic import SyntheticSpec
from mwlab.trainer import TrainConfig

TOY = ComparisonSettings(
    base_config=TrainConfig(B=4, H=2, max_epochs=2, eval_every=3, warmup_steps=2,
                            eval_batches=1, eval_top_k=20),
    encoder=EncoderConfig(hash_dim=1024, embed_dim=16, proj_dim=8), mine_k=10,
)


def test_comparison_is_byte_identical_and_means_match(tmp_path):
    provider = synthetic_provider(SyntheticSpec(n_queries=60, n_docs=150))
    paths = []
    for run in ("a", "b"):
        path = tmp_path / run / "compare.json"
        write_json(path, run_comparison([0, 1], provider, TOY))
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()

    result = json.loads(paths[0].read_text())
    per_seed = result["per_seed"]
    assert [r["seed"] for r in per_seed] == [0, 1]
    for r in per_seed:
        assert r["auc_gain"] == r["mw"]["auc"] - r["cl"]["auc"]
    for kind in ("cl", "mw"):
        for key in ("auc", "mrr10", "ndcg10", "overlap"):
            assert result["mean"][f"{key}_{kind}"] == float(
                np.mean([r[kind][key] for r in per_seed]))
    assert result["mean"]["auc_gain"] == float(np.mean([r["auc_gain"] for r in per_seed]))


def test_comparison_needs_a_seed():
    with pytest.raises(ValueError, match="need at least one seed"):
        run_comparison([], synthetic_provider(SyntheticSpec(n_queries=60, n_docs=150)), TOY)
