"""The benchmark in bench/ probes mwlab functions by name; a refactor
that removes or renames one must fail here, not at benchmark time. Its
toy jobs also guard the hash budget: each text is hashed once, so the
traced reuse ratio is 1."""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ untouched
    import instrument
    import workloads  # binds cli's encoder constants at import

    return instrument, workloads


def test_bench_finds_every_probed_function(bench):
    instrument, _ = bench
    instrument.Instrument()  # raises if a probed or counted function is gone


@pytest.mark.parametrize("name", ["compare-synth", "train-wide-mw", "eval-large"])
def test_toy_workload_hashes_each_text_once(bench, tmp_path, name):
    instrument, workloads = bench
    inst = instrument.Instrument()
    job = workloads.WORKLOADS[name]
    inst.start_job(traced=True)
    try:
        job.run(0, job.sizes["toy"], tmp_path, inst.probe)
    finally:
        inst.stop_job()
    c = inst.counters
    # the corpus and the full query set are hashed once each; mined sets and
    # splits inherit their parent's rows. When they hashed again the toy
    # eval-large ratio was 1.34, and 3.77 when every consumer hashed again.
    assert c.texts_hashed / len(c.distinct_texts) <= 1.0


def traced_spans(instrument, job, tmp_path):
    inst = instrument.Instrument()
    inst.start_job(traced=True)
    try:
        job.run(0, job.sizes["toy"], tmp_path, inst.probe)
    finally:
        inst.stop_job()
    return inst.log


def test_split_mw_kernel_keeps_the_trace(bench, tmp_path, monkeypatch):
    # the span log keeps one unsynchronised stack, so the kernel's worker
    # thread must open no span: a split run traces as the serial one does
    import threading

    from mwlab import objectives

    instrument, workloads = bench
    job = workloads.WORKLOADS["train-wide-mw"]
    # the toy batch (B=8, H=3) has rows of 248 negatives: tiles of 120 and 128
    monkeypatch.setattr(objectives, "MW_TILE_COLS", 128)
    monkeypatch.setattr(objectives, "_CPUS", 2)
    monkeypatch.setattr(objectives, "MW_SPLIT_PAIRS", 10**12)
    serial = traced_spans(instrument, job, tmp_path / "serial")
    monkeypatch.setattr(objectives, "MW_SPLIT_PAIRS", 0)
    threads, tile = set(), objectives._mw_tile

    def recording_tile(*args):
        threads.add(threading.current_thread())
        return tile(*args)

    monkeypatch.setattr(objectives, "_mw_tile", recording_tile)
    split = traced_spans(instrument, job, tmp_path / "split")
    assert len(threads) == 2
    assert split.names == serial.names and split.parents == serial.parents
    counts = {name: calls for name, (calls, _, _) in split.self_times().items()}
    assert counts == {name: calls for name, (calls, _, _) in serial.self_times().items()}
    assert counts["objectives.mw_loss"] > 0 and counts["objectives.mw_value"] > 0
