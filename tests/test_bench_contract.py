"""The benchmark in bench/ probes mwlab functions by name; a refactor
that removes or renames one must fail here, not at benchmark time."""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_bench_finds_every_probed_function(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ untouched
    import instrument
    import workloads  # noqa: F401  binds cli's encoder constants at import

    instrument.Instrument()  # raises if a probed or counted function is gone
