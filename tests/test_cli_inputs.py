"""Every input the CLI accepts either runs clean or exits 2 with one line.

A derandomized, bounded hypothesis property drives ``cli.main`` on a
60-query, 150-document synthetic set: config files whose values range
over small and boundary ints, tiny, subnormal, huge and non-finite
floats, bools, strings, null and lists, and type-correct flags for
``compare``, ``train``, ``ablate``, ``lemma1-demo`` and ``lemma2-check``,
negative floats written with an exponent or as ``-inf`` among them.
Argparse accepts every such line. A run exits 0 with finite outputs and
nothing on stderr, or exits 2 with exactly one ``error:`` line. The
suite turns any warning into an error, so a numpy warning fails the
property too.

No drawn input asks for an allocation that could succeed and hurt: valid
dimensions stay at 1-3, and the one huge dimension, 2^48, makes any
array it sizes 2^48 bytes or more, beyond the 47-bit user address space.
"""

import contextlib
import csv
import io
import json
import math
import tempfile
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from mwlab import cli
from mwlab.data import mine_hard_negatives
from mwlab.encoder import EncoderConfig, init_params, make_scorer
from mwlab.experiments import synthetic_provider
from mwlab.synthetic import SyntheticSpec
from mwlab.trainer import TrainConfig

from test_cli import write_inputs

PROPERTY = settings(derandomize=True, database=None, max_examples=20, deadline=None)

SMALL_INTS = st.sampled_from([-1, 0, 1, 2])
# -1e-05 and -inf are negatives that argparse alone reads as options
FLOATS = st.sampled_from([0.0, -1.0, -1e-05, 0.5, 1e-308, 1e-310, 1e308,
                          math.nan, math.inf, -math.inf])
OTHERS = st.sampled_from([True, False, "x", None, [1], {}])
DIMS = ("hash_dim", "embed_dim", "proj_dim")
# small enough that every drawn run trains a few dozen steps at most
BASE_CONFIG = {"B": 4, "H": 1, "max_epochs": 1, "eval_every": 3, "eval_batches": 1,
               "eval_top_k": 20, "hash_dim": 64, "embed_dim": 4, "proj_dim": 2}


def config_value(key: str):
    value = st.one_of(SMALL_INTS, FLOATS, OTHERS)
    if key in DIMS:
        return st.one_of(st.sampled_from([1, 3, 2**48]), value)
    return value


configs = st.sampled_from(sorted({f.name for f in fields(TrainConfig)} | set(DIMS))).flatmap(
    lambda key: st.fixed_dictionaries({key: config_value(key)}))


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """--corpus and --queries of the planted set, mined at k=3."""
    corpus, queries = synthetic_provider(SyntheticSpec(n_queries=60, n_docs=150))(0)
    scorer = make_scorer(init_params(EncoderConfig(hash_dim=64, embed_dim=4, proj_dim=2)))
    mined = mine_hard_negatives(queries, corpus, scorer, k=3)
    corpus_path, queries_path = write_inputs(tmp_path_factory.mktemp("inputs"), corpus, mined)
    return ["--corpus", corpus_path, "--queries", queries_path]


def numbers(values) -> list[str]:
    return [repr(v) for v in values]


@st.composite
def command_lines(draw, command: str, inputs, out: Path):
    """One command line, its --config (if any) written under ``out``."""
    if command == "lemma1-demo":
        return [command, "--synthetic", "--n-queries", str(draw(SMALL_INTS)),
                "--sigma", *numbers(draw(st.lists(FLOATS, min_size=1, max_size=2))),
                "--tau", repr(draw(FLOATS)), "--out", str(out / "demo.csv")]
    if command == "lemma2-check":
        return [command, "--trials", str(draw(SMALL_INTS)), "--max-side",
                str(draw(st.sampled_from([-1, 0, 1, 5]))),
                "--tau", *numbers(draw(st.lists(FLOATS, min_size=1, max_size=2)))]
    config = {**BASE_CONFIG, **draw(configs)}
    (out / "config.json").write_text(json.dumps(config))
    argv = [command, "--config", str(out / "config.json"), "--out", str(out / "run")]
    if command == "compare":
        return argv + ["--synthetic", "--synth-queries", "60", "--synth-docs", "150",
                       "--seeds", str(draw(st.sampled_from([-1, 0, 2**64]))),
                       "--mine-k", str(draw(st.sampled_from([0, 1, 3]))),
                       "--bins", str(draw(SMALL_INTS))]
    if command == "train":
        return argv + inputs
    return argv + inputs + [
        "--lrs", *numbers(draw(st.lists(FLOATS, min_size=1, max_size=2))),
        "--batch-sizes", *map(str, draw(st.lists(st.sampled_from([-1, 1, 2, 4]),
                                                 min_size=1, max_size=2))),
        "--hard-negatives", *map(str, draw(st.lists(st.sampled_from([-1, 0, 1, 3]),
                                                    min_size=1, max_size=2)))]


def no_constant(name: str):
    raise AssertionError(f"non-finite JSON value {name}")


def assert_finite_outputs(out: Path) -> None:
    for path in out.rglob("*"):
        if path.suffix == ".json":
            json.loads(path.read_text(), parse_constant=no_constant)
        elif path.suffix == ".csv":
            for row in csv.reader(path.read_text().splitlines()):
                for cell in row:
                    try:
                        value = float(cell)
                    except ValueError:
                        continue
                    assert math.isfinite(value), (path.name, row)


@pytest.mark.parametrize("command", ["compare", "train", "ablate", "lemma1-demo",
                                     "lemma2-check"])
@PROPERTY
@given(data=st.data())
def test_every_input_runs_clean_or_exits_2_with_one_error_line(inputs, command, data):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        argv = data.draw(command_lines(command, inputs, out), label="argv")
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # every drawn flag value has the flag's type
                raise AssertionError(f"argparse rejected {argv}: {stderr.getvalue()}") from exc
        err = stderr.getvalue()
        event(f"{argv[0]} exits {code}")  # see --hypothesis-show-statistics
        if code == 0:
            assert err == "", err
            assert_finite_outputs(out)
        else:
            assert code == 2, (code, err)
            assert [line for line in err.splitlines() if "error: " in line] == [
                err.splitlines()[-1]], err
            assert err.startswith("error: ") and "Traceback" not in err
