"""The benchmark in bench/ probes mwlab functions by name; a refactor
that removes or renames one must fail here, not at benchmark time. Its
toy jobs also guard the hash budget (each text is hashed once, so the
traced reuse ratio is 1) and the rank budget (each corpus ranks its ids
once), pass the benchmark's own output checks, and between them call
every function a per-layer metric names."""

import json
import sys
from pathlib import Path

import pytest

from util import force_split

BENCH = Path(__file__).resolve().parent.parent / "bench"


TOY_WORKLOADS = ("compare-synth", "train-wide-mw", "eval-large")


def import_bench(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ untouched
    import instrument
    import workloads  # binds cli's encoder constants at import

    return instrument, workloads


@pytest.fixture
def bench(monkeypatch):
    return import_bench(monkeypatch)


def trace_toy(instrument, job, tmp_path):
    """One traced toy job: (its instrument, its output)."""
    inst = instrument.Instrument()
    inst.start_job(traced=True)
    try:
        out = job.run(0, job.sizes["toy"], tmp_path, inst.probe)
    finally:
        inst.stop_job()
    return inst, out


@pytest.fixture(scope="module")
def toy_traces(tmp_path_factory):
    """name -> (job, instrument, output, reads) of each toy workload, traced
    once, where ``reads`` lists (corpus, key) for each read of a
    ``Corpus.id_ranks``."""
    from mwlab import data

    cached = data.Corpus.id_ranks
    with pytest.MonkeyPatch.context() as monkeypatch:
        instrument, workloads = import_bench(monkeypatch)
        traces = {}
        for name in TOY_WORKLOADS:
            job, reads = workloads.WORKLOADS[name], []

            def read(corpus, reads=reads):
                reads.append((corpus, cached.__get__(corpus, data.Corpus)))
                return reads[-1][1]

            monkeypatch.setattr(data.Corpus, "id_ranks", property(read))
            traces[name] = (job, *trace_toy(instrument, job, tmp_path_factory.mktemp(name)), reads)
        yield traces


def per_layer_quals(instrument):
    """Every <layer>.<function> (or <layer>.<Class>.<method>) a per-layer
    metric <qual>.<stat> of BENCHMARK.json reads."""
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    return [name.rsplit(".", 1)[0] for name in (m["name"] for m in spec["per_layer"])
            if name.count(".") >= 2 and name.split(".")[0] in instrument.LAYERS]


def test_bench_finds_every_probed_function(bench):
    instrument, _ = bench
    instrument.Instrument()  # raises if a probed or counted function is gone


def test_every_per_layer_function_metric_is_traced(bench):
    # a metric <layer>.<function>.<stat> (or <layer>.<Class>.<method>.<stat>)
    # reads the spans of a wrapped function; a rename leaves it unmeasured
    instrument, _ = bench
    inst = instrument.Instrument()
    quals = per_layer_quals(instrument)
    assert "data.sample_batch" in quals
    assert [q for q in quals if q not in inst.functions and q not in inst.methods] == []


def test_every_per_layer_metric_is_live_in_some_toy_workload(bench, toy_traces):
    # a traced function no workload calls reads 0 in every run; between them
    # the toy workloads call all of them (roc_curve only in eval-large, and
    # train-wide-mw never calls cl_loss)
    instrument, _ = bench
    called = {name for _, inst, _, _ in toy_traces.values() for name in inst.log.self_times()}
    quals = set(per_layer_quals(instrument))
    assert {"metrics.roc_curve", "objectives.cl_loss"} <= quals
    assert sorted(quals - called) == []
    assert [layer for layer in instrument.LAYERS
            if not any(name.startswith(layer + ".") for name in called)] == []


@pytest.mark.parametrize("name", TOY_WORKLOADS)
def test_toy_workload_hashes_each_text_once(toy_traces, name):
    job, inst, out, _ = toy_traces[name]
    # the checks measure.run_job makes on every job: exact U and ROC area
    # against AUC (eval-large), the Lemma 2 bound (train-wide-mw)
    assert job.check(out, inst.probe) == []
    c = inst.counters
    # the corpus and the full query set are hashed once each; mined sets and
    # splits inherit their parent's rows. When they hashed again the toy
    # eval-large ratio was 1.34, and 3.77 when every consumer hashed again.
    assert c.texts_hashed / len(c.distinct_texts) <= 1.0


@pytest.mark.parametrize("name", TOY_WORKLOADS)
def test_toy_workload_ranks_each_corpus_once(toy_traces, name):
    _, inst, _, reads = toy_traces[name]
    # mining and every ranked list read the corpus's cached tie key ...
    calls = inst.log.self_times()
    assert len(reads) == calls["data.mine_hard_negatives"][0] + calls["metrics.ranked_lists"][0]
    assert len(reads) >= 2
    # ... and each corpus built its key once: every read returns one object
    keys = {}
    for corpus, key in reads:
        keys.setdefault(id(corpus), set()).add(id(key))
    assert [len(built) for built in keys.values()] == [1] * len(keys)


def test_split_mw_kernel_keeps_the_trace(bench, tmp_path, monkeypatch):
    # the span log keeps one unsynchronised stack, so the kernel's worker
    # thread must open no span: a split run traces as the serial one does
    import threading

    from mwlab import objectives

    instrument, workloads = bench
    job = workloads.WORKLOADS["train-wide-mw"]
    # the toy batch (B=8, H=3) has rows of 248 negatives: tiles of 120 and 128
    monkeypatch.setattr(objectives, "MW_TILE_COLS", 128)
    monkeypatch.setattr(objectives, "CPUS", 2)
    monkeypatch.setattr(objectives, "MW_SPLIT_PAIRS", 10**12)
    serial = trace_toy(instrument, job, tmp_path / "serial")[0].log
    monkeypatch.setattr(objectives, "MW_SPLIT_PAIRS", 0)
    threads, tile = set(), objectives._mw_tile
    calls, pair_sums = [], objectives._mw_pair_sums

    def recording_tile(*args):
        threads.add(threading.current_thread())
        return tile(*args)

    def counting_pair_sums(*args, **kwargs):
        calls.append(len(args[1]))
        return pair_sums(*args, **kwargs)

    monkeypatch.setattr(objectives, "_mw_tile", recording_tile)
    monkeypatch.setattr(objectives, "_mw_pair_sums", counting_pair_sums)
    split = trace_toy(instrument, job, tmp_path / "split")[0].log
    # every call splits, on a worker thread of its own
    assert calls and all(n > 128 for n in calls)
    assert len(threads) == 1 + len(calls)
    assert split.names == serial.names and split.parents == serial.parents
    counts = {name: calls for name, (calls, _, _) in split.self_times().items()}
    assert counts == {name: calls for name, (calls, _, _) in serial.self_times().items()}
    assert counts["objectives.mw_loss"] > 0 and counts["objectives.mw_value"] > 0


def test_split_walks_keep_the_trace(bench, tmp_path, monkeypatch):
    # the selections' worker, like the MW kernel's, runs private code and
    # block products only: a split job traces as the serial one does
    instrument, workloads = bench
    job = workloads.WORKLOADS["eval-large"]
    force_split(monkeypatch, on=False)
    serial = trace_toy(instrument, job, tmp_path / "serial")[0].log
    # the toy's 80 queries are two blocks: mining, the protocol and the
    # lists each split once
    started = force_split(monkeypatch, on=True)
    split = trace_toy(instrument, job, tmp_path / "split")[0].log
    assert len(started) >= 3
    assert split.names == serial.names and split.parents == serial.parents
    counts = {name: calls for name, (calls, _, _) in split.self_times().items()}
    assert counts == {name: calls for name, (calls, _, _) in serial.self_times().items()}
    assert counts["data.mine_hard_negatives"] == 1 and counts["metrics.ranked_lists"] > 0
