"""One benchmark run: repeat a workload's job for the requested time,
check every job's outputs, and summarise them as metrics.

Imported by ``bench/run.py`` once it has fixed the BLAS thread count,
because numpy loads with this module.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from instrument import LAYERS, COUNTER_SPAN, Instrument, clock  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_JOBS = 2


def source_fingerprint() -> str:
    """sha256 over the program and benchmark sources."""
    h = hashlib.sha256()
    files = sorted((ROOT / "src").rglob("*.py")) + sorted(Path(__file__).parent.glob("*.py"))
    for f in files:
        h.update(str(f.relative_to(ROOT)).encode())
        h.update(f.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args) -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "source_sha256": source_fingerprint(),
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def check_digest(store: Path, key: str, value: str) -> str | None:
    """Compare with the digest an earlier process recorded for the same
    code, workload, size and seed; record it if it is the first."""
    try:
        known = json.loads(store.read_text())
    except (OSError, ValueError):
        known = {}
    if key in known:
        if known[key] != value:
            return f"digest {value[:16]} differs from an earlier run's {known[key][:16]}"
        return None
    known[key] = value
    tmp = store.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    os.replace(tmp, store)
    return None


def run_job(inst: Instrument, workload, size, seed: int, traced: bool, workdir: Path) -> dict:
    inst.start_job(traced)
    t0 = clock()
    error = out = None
    try:
        out = workload.run(seed, size, workdir, inst.probe)
    except Exception:  # the job's failure is a result, not a crash
        error = traceback.format_exc()
    t1 = clock()
    # read before the checks, whose pair arrays can outgrow the job's own
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    inst.stop_job()
    shutil.rmtree(workdir, ignore_errors=True)
    probe = inst.probe
    job = {"traced": traced, "wall_s": t1 - t0, "peak_rss_mb": peak_rss_mb,
           "error": error, "fails": []}
    if error is None:
        job["digest"] = out["digest"]
        try:
            job["fails"] = workload.check(out, probe)
            job["quality"] = workload.quality(out, probe)
        except Exception:  # a check that cannot even run has failed
            job["fails"] = [f"check raised:\n{traceback.format_exc()}"]
            job["quality"] = {}
    if probe.first_step_at is not None:
        job["setup_s"] = probe.first_step_at - t0
    steps = interval = 0.0
    for call in probe.trains:
        ends = call.step_ends
        if len(ends) >= 2:
            # steps 2..n lie wholly between the first step's optimizer
            # update and train()'s return, evaluations included
            steps += len(ends) - 1
            interval += call.returned - ends[0]
    if interval > 0:
        job["train_steps_per_s"] = steps / interval
    eval_s = sum(dt for dt, _ in probe.eval_calls)
    if eval_s > 0:
        job["eval_queries_per_s"] = sum(q for _, q in probe.eval_calls) / eval_s
    if traced:
        job["layers"] = layer_metrics(inst, t1 - t0)
        job["spans"] = list(inst.log.rows(t0))
    return job


def layer_metrics(inst: Instrument, wall: float) -> dict:
    stats = inst.log.self_times()
    m = {}
    for layer in LAYERS:
        m[f"layer.{layer}.self_ms"] = 1e3 * sum(
            rec[1] for name, rec in stats.items() if name.split(".")[0] == layer)
    for name in (*inst.functions, *inst.methods):
        calls, self_s, total_s = stats.get(name, (0, 0.0, 0.0))
        m[f"{name}.self_ms"] = 1e3 * self_s
        m[f"{name}.total_ms"] = 1e3 * total_s
        m[f"{name}.calls"] = calls
    c = inst.counters
    m["trainer.adam_step.bytes"] = c.adam_bytes
    m["objectives.mw_loss.pairs"] = c.mw_pairs
    m["encoder.tokenize_reuse_ratio"] = c.texts_hashed / max(1, len(c.distinct_texts))
    m["encoder.grad_rows_touched_frac"] = c.grad_rows_touched / max(1, c.adam_calls)
    m["metrics.pool_negatives"] = c.pool_negatives
    covered = sum(rec[1] for rec in stats.values())
    m["trace.counters_ms"] = 1e3 * stats.get(COUNTER_SPAN, (0, 0.0, 0.0))[1]
    m["trace.wall_ms"] = 1e3 * wall
    m["trace.unattributed_ms"] = 1e3 * (wall - covered)
    m["trace.unattributed_frac"] = (wall - covered) / wall
    m["trace.spans"] = len(inst.log.names)
    return m


def measure(args, out_dir: Path) -> dict:
    """Run ``args.workload`` for about ``args.seconds``; return the result
    with its environment, every job and the metrics. A traced run also
    writes its spans under ``out_dir``."""
    workload = WORKLOADS[args.workload]
    size = workload.sizes[args.scale]
    workdir = out_dir / f"work-{os.getpid()}"
    env = environment(args)
    digest_key = f"{args.workload}/{args.scale}/seed{args.seed}/{env['source_sha256']}"

    inst = Instrument()
    jobs = []
    started = clock()
    while True:
        # a traced run alternates untraced and traced jobs, so the tracing
        # overhead is measured under the same conditions
        traced = bool(args.trace) and len(jobs) % 2 == 1
        job = run_job(inst, workload, size, args.seed, traced, workdir)
        if job["error"] is None:
            first = next((j["digest"] for j in jobs if j["error"] is None), job["digest"])
            if job["digest"] != first:
                job["fails"].append("digest differs between jobs of this run")
            stale = check_digest(out_dir / "digests.json", digest_key, job["digest"])
            if stale:
                job["fails"].append(stale)
            for b, h, got, want in inst.counters.mw_pair_mismatches:
                job["fails"].append(f"mw_loss counted {got} pairs at B={b}, H={h}; "
                                    f"comparison_counts gives {want}")
        jobs.append(job)
        elapsed = clock() - started
        mean_job = elapsed / len(jobs)
        if len(jobs) >= MIN_JOBS and elapsed + mean_job > args.seconds:
            break

    done = [j for j in jobs if j["error"] is None]
    result = {
        "environment": env,
        "attempted": len(jobs),
        "failed": sum(1 for j in jobs if j["error"] is not None or j["fails"]),
        "jobs": [{k: v for k, v in j.items() if k != "spans"} for j in jobs],
        # the process's peak through its first job: later readings include
        # the earlier jobs' checks
        "peak_rss_mb": jobs[0]["peak_rss_mb"],
    }
    result["correct"] = result["failed"] == 0
    # deterministic per seed (the digest check holds jobs to it), so one job's
    # figures stand for all
    result["quality"] = done[0]["quality"] if done else None
    if not done:
        result["metrics"] = None
    elif args.trace:
        result["metrics"] = traced_metrics(done)
    else:
        result["metrics"] = untraced_metrics(done, result["peak_rss_mb"])
    if args.trace:
        spans = out_dir / f"spans-{args.workload}-{args.scale}-seed{args.seed}.jsonl"
        with open(spans, "w", encoding="utf-8") as f:
            for n, job in enumerate(jobs):
                for row in job.get("spans", ()):
                    f.write(json.dumps({"job": n, **row}) + "\n")
    return result


UNITS = {"wall_s": "s", "setup_s": "s", "train_steps_per_s": "1/s",
         "eval_queries_per_s": "1/s", "peak_rss_mb": "MB"}


# Every timing is the median over the run's jobs. The machine's speed
# drifts both ways: the best job lands in a rare fast spell as often as
# the worst lands in a slow one, so the median is the steadiest figure.
TIMINGS = ("wall_s", "setup_s", "train_steps_per_s", "eval_queries_per_s")


def untraced_metrics(done: list, peak_rss_mb: float) -> dict:
    m = {}
    for key in TIMINGS:
        values = [j[key] for j in done if key in j]
        if values:
            m[key] = statistics.median(values)
    m["peak_rss_mb"] = peak_rss_mb
    return {k: {"value": v, "unit": UNITS[k]} for k, v in m.items()}


def traced_metrics(done: list) -> dict:
    traced = [j for j in done if j["traced"]]
    plain = [j for j in done if not j["traced"]]
    m = {}
    for key in traced[0]["layers"] if traced else ():
        m[key] = statistics.median(j["layers"][key] for j in traced)
    if traced and plain:
        m["trace.slowdown"] = (statistics.median(j["wall_s"] for j in traced)
                               / statistics.median(j["wall_s"] for j in plain))
    return {k: {"value": v, "unit": layer_unit(k)} for k, v in m.items()}


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith((".calls", ".pairs", ".spans", ".pool_negatives")):
        return "count"
    if name.endswith(".bytes"):
        return "bytes"
    return "ratio"

