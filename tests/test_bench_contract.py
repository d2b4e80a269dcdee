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
