"""mwlab benchmark: run one workload, check its outputs, print its metrics.

    python3 bench/run.py --workload compare-synth --seed 0 --seconds 40 --trace 0

Each run is one fresh process (so ``peak_rss_mb`` belongs to one
workload) with single-threaded BLAS. It repeats the workload's job for
``--seconds`` and prints one line per metric followed by the result as
one JSON line: ``{"correct", "attempted", "failed", "metrics"}``. With
``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json; with
``--trace 1`` they are the per-layer ones from the traced jobs. What the
program under test prints goes to standard error. The full result
(environment, every job, check messages) is written to ``.bench_out/``,
and a traced run also writes its spans there.

Exit codes: 0 with a result printed; 1 when no job completed; 2 when the
checkout has no mwlab sources.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
# listed here, not imported from workloads.py, so numpy loads only after
# the BLAS thread count is set
WORKLOADS = ("compare-synth", "train-wide-mw", "eval-large")
BLAS_THREADS = "1"  # <= nproc; one thread keeps runs steady on a shared machine


def metric_names(trace: int) -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=40)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "toy"), default="full",
                   help="toy shrinks every workload to seconds (self-test)")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "mwlab" / "__init__.py").is_file():
        print(f"error: no mwlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "MWLAB_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import measure  # loads numpy, which reads the thread count once

    OUT.mkdir(exist_ok=True)
    with contextlib.redirect_stdout(sys.stderr):  # the program's own prints
        result = measure.measure(args, OUT)
    out = OUT / f"{args.workload}-{args.scale}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(result, indent=1, default=str))
    for job in result["jobs"]:
        if job["error"]:
            sys.stderr.write(job["error"])
        for msg in job["fails"]:
            print(f"check failed: {msg}", file=sys.stderr)
    if not result["metrics"]:
        print("error: no job completed", file=sys.stderr)
        return 1
    names = metric_names(args.trace)
    missing = [n for n in names if n not in result["metrics"]]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1

    print("environment " + json.dumps(result["environment"], sort_keys=True))
    print("quality " + json.dumps(result["quality"], sort_keys=True))
    for n in names:
        m = result["metrics"][n]
        print(f"{n:<40} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: result["metrics"][n] for n in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
