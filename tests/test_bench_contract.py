"""The benchmark in bench/ probes mwlab functions by name; a refactor
that removes or renames one must fail here, not at benchmark time. Its
toy eval-large job also guards the hash budget: each collection hashes
its texts once, so the traced reuse ratio stays near 1."""

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


def test_eval_large_hashes_each_text_about_once(bench, tmp_path):
    instrument, workloads = bench
    inst = instrument.Instrument()
    job = workloads.WORKLOADS["eval-large"]
    inst.start_job(traced=True)
    try:
        job.run(0, job.sizes["toy"], tmp_path, inst.probe)
    finally:
        inst.stop_job()
    c = inst.counters
    # mining hashes the queries and the corpus, training its two splits, the
    # evaluation the mined queries: 376 texts for 280 distinct (1.34). When
    # every consumer hashed the corpus and queries again it was 1056 (3.77).
    assert c.texts_hashed / len(c.distinct_texts) <= 1.5
