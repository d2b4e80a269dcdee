"""Self-test of the benchmark at toy sizes; finishes in well under a minute.

    python3 bench/selftest.py

Checks that every workload runs untraced and traced, that every metric
BENCHMARK.json names is printed with a unit, that the output checks fire
on deliberately corrupted outputs, that a failing job is counted rather
than crashing the run, and that a checkout without mwlab sources exits
non-zero without a result. Exits 1 and lists what failed otherwise.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import measure  # noqa: E402
from instrument import Instrument  # noqa: E402
from workloads import WORKLOADS, JobFailed  # noqa: E402

PROBLEMS: list[str] = []
SCRATCH = ROOT / ".bench_out" / "selftest"


def expect(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        PROBLEMS.append(what)


def run_cli(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--scale", "toy"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def test_every_workload_prints_every_metric(spec: dict) -> None:
    for name in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_cli(name, trace)
            label = f"{name} trace={trace}"
            lines = proc.stdout.strip().splitlines()
            expect(proc.returncode == 0 and bool(lines), f"{label}: exits 0 with output")
            if proc.returncode != 0 or not lines:
                print(proc.stderr[-2000:])
                continue
            result = json.loads(lines[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{label}: last line has exactly the result keys")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{label}: every job passed its checks")
            wanted = {m["name"]: m["unit"] for m in spec[key]}
            got = result["metrics"]
            expect(set(got) == set(wanted), f"{label}: prints exactly the {key} metrics")
            expect(all(got[n]["unit"] == u and isinstance(got[n]["value"], (int, float))
                       for n, u in wanted.items() if n in got),
                   f"{label}: every metric has a number and its unit")


def toy_outputs(inst: Instrument, name: str, seed: int = 5):
    """Run one toy job in-process; return (workload, outputs, probe)."""
    w = WORKLOADS[name]
    inst.start_job(traced=False)
    try:
        with contextlib.redirect_stdout(io.StringIO()):  # the CLI's own report
            out = w.run(seed, w.sizes["toy"], SCRATCH / "work", inst.probe)
    finally:
        inst.stop_job()
    return w, out, inst.probe


def test_checks_fire_on_corrupted_outputs(inst: Instrument) -> None:
    for name in WORKLOADS:
        w, out, probe = toy_outputs(inst, name)
        expect(w.check(out, probe) == [], f"{name}: clean outputs pass the checks")
        probe.trains[-1].params.projection[0, 0] = np.nan
        expect(any("parameters not finite" in m for m in w.check(out, probe)),
               f"{name}: a NaN in the final parameters fails the check")
        probe.trains[-1].report.steps[-1] = (1, float("inf"), 0.0)
        expect(any("losses" in m for m in w.check(out, probe)),
               f"{name}: an infinite training loss fails the check")

    w, out, probe = toy_outputs(inst, "eval-large")
    out["auc"] = np.nextafter(out["auc"], 1.0)
    fails = w.check(out, probe)
    expect(any("searchsorted" in m for m in fails), "eval-large: an AUC one ulp off fails the U check")
    out["curve"].points[1:, 1] = 1.0
    expect(any("ROC area" in m for m in w.check(out, probe)), "eval-large: a wrong ROC curve fails")

    w, out, probe = toy_outputs(inst, "train-wide-mw")
    objectives = sys.modules["mwlab.objectives"]
    real = objectives.mw_bound_check
    objectives.mw_bound_check = lambda pool, tau: (1.0, 0.0, False)
    try:
        expect(any("Lemma 2" in m for m in w.check(out, probe)),
               "train-wide-mw: a violated MW bound fails the check")
    finally:
        objectives.mw_bound_check = real

    w, out, probe = toy_outputs(inst, "compare-synth")
    out["compare"]["mean"]["auc_mw"] = float("nan")
    expect(any("compare.json" in m for m in w.check(out, probe)),
           "compare-synth: a NaN in compare.json fails the check")


def test_failures_are_counted_not_raised(inst: Instrument) -> None:
    cli = sys.modules["mwlab.cli"]
    real = cli.main
    cli.main = lambda argv=None: 2
    try:
        w = WORKLOADS["compare-synth"]
        job = measure.run_job(inst, w, w.sizes["toy"], 5, False, SCRATCH / "work")
    finally:
        cli.main = real
    expect(job["error"] is not None and JobFailed.__name__ in job["error"],
           "a non-zero CLI exit becomes a failed job")

    trainer = sys.modules["mwlab.trainer"]
    real_train = trainer.train

    def diverging(*args, **kwargs):
        raise trainer.TrainingDiverged("non-finite training loss at step 1")

    trainer.train = diverging
    try:
        w = WORKLOADS["eval-large"]
        job = measure.run_job(inst, w, w.sizes["toy"], 5, True, SCRATCH / "work")
    finally:
        trainer.train = real_train
    expect(job["error"] is not None and "TrainingDiverged" in job["error"],
           "a raised TrainingDiverged becomes a failed job")

    store = SCRATCH / "digests.json"
    store.unlink(missing_ok=True)
    expect(measure.check_digest(store, "k", "aaaa") is None, "a first digest is recorded")
    expect(measure.check_digest(store, "k", "aaaa") is None, "the same digest passes")
    expect(measure.check_digest(store, "k", "bbbb") is not None, "a different digest fails")

    class Scores:
        B, H = 4, 2

    class Loss:
        term_count = 1

    inst.start_job(traced=True)
    inst._count_pairs((Scores(),), {}, Loss())
    inst.stop_job()
    expect(bool(inst.counters.mw_pair_mismatches),
           "an MW pair count that disagrees with comparison_counts is caught")


def test_bare_checkout_exits_nonzero() -> None:
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for f in HERE.glob("*.py"):
        shutil.copy(f, bare / "bench")
    proc = run_cli("compare-synth", 0, cwd=bare)
    expect(proc.returncode != 0 and proc.stdout.strip() == "",
           "without mwlab sources: non-zero exit and no result")
    shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    SCRATCH.mkdir(parents=True, exist_ok=True)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    inst = Instrument()
    test_checks_fire_on_corrupted_outputs(inst)
    test_failures_are_counted_not_raised(inst)
    test_bare_checkout_exits_nonzero()
    test_every_workload_prints_every_metric(spec)
    shutil.rmtree(SCRATCH, ignore_errors=True)
    print(f"{len(PROBLEMS)} problem(s)")
    return 1 if PROBLEMS else 0


if __name__ == "__main__":
    sys.exit(main())
