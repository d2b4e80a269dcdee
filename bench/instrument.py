"""Outside-in instrumentation of the mwlab modules.

Functions are wrapped at every module namespace that holds them, not only
where they are defined: ``trainer`` binds ``score_batch``, ``cl_loss``,
``sample_batch`` ... by name, and ``metrics.auc`` reaches
``mann_whitney_u`` through its own module globals, so patching only the
defining module would miss those calls.

Two kinds of wrapper exist:

* probes, always installed on a few functions, record what the
  end-to-end metrics need (train() intervals, the first optimizer step,
  time spent in the evaluation bundle) at the cost of one extra call;
* spans, installed only for a traced job, record one span per call of
  every public function with its parent span. Self time is a span's
  duration minus its children's. Counter hooks (work and waste counts)
  run in traced jobs only, inside a ``bench.counters`` span so their cost
  is not charged to the function's caller.
"""

from __future__ import annotations

import importlib
import inspect
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

clock = time.perf_counter

LAYERS = ("prng", "synthetic", "data", "encoder", "scoring", "objectives",
          "trainer", "metrics", "experiments", "cli")

# Per-token / per-element helpers: wrapping them would cost more than the
# work they do, so their time stays in the caller's self time.
UNWRAPPED = frozenset({
    "encoder.fnv1a64", "encoder.tokenize_hash",
    "objectives.softplus", "objectives.sigmoid",
})

# The prng layer's work happens in generator methods, not module
# functions. next_u64/random/below/normal are per-draw and stay unwrapped.
WRAPPED_METHODS = {
    "prng.Xoshiro256StarStar": ("doubles", "uniform", "shuffle", "sample_indices", "normals"),
}

# Functions whose calls make up the evaluation bundle.
BUNDLE = ("metrics.pooled_auc_protocol", "metrics.ranked_lists",
          "metrics.roc_curve", "metrics.histogram")

COUNTER_SPAN = "bench.counters"


@dataclass
class TrainCall:
    """One completed trainer.train call as seen from outside."""

    config: object
    params: object
    report: object
    returned: float
    step_ends: list[float]  # return time of each adam_step, in order


@dataclass
class JobProbe:
    """What the always-on probes saw during one job."""

    first_step_at: float | None = None
    trains: list[TrainCall] = field(default_factory=list)
    eval_calls: list[tuple[float, int]] = field(default_factory=list)  # (seconds, queries)
    step_ends: list[float] = field(default_factory=list)  # of the train() in progress


@dataclass
class Counters:
    """Work and waste counts gathered by the traced-job hooks."""

    texts_hashed: int = 0
    distinct_texts: set = field(default_factory=set)
    adam_calls: int = 0
    adam_bytes: int = 0
    grad_rows_touched: float = 0.0  # sum over adam calls of the touched fraction
    mw_pairs: int = 0
    mw_pair_mismatches: list = field(default_factory=list)
    pool_negatives: int = 0


class SpanLog:
    """Spans of one traced job, kept in memory as parallel lists."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.starts.append(0.0)
        self.ends.append(0.0)
        self._stack.append(idx)
        return idx

    def close(self, idx: int, start: float, end: float) -> None:
        self._stack.pop()
        self.starts[idx] = start
        self.ends[idx] = end

    def add(self, name: str, start: float, end: float) -> None:
        self.close(self.open(name), start, end)

    def self_times(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, total self seconds, total inclusive seconds)."""
        child = [0.0] * len(self.names)
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for i, name in enumerate(self.names):
            span = self.ends[i] - self.starts[i]
            rec = out[name]
            rec[0] += 1
            rec[1] += span - child[i]
            rec[2] += span
        return {k: tuple(v) for k, v in out.items()}

    def rows(self, t0: float):
        for i, name in enumerate(self.names):
            yield {"id": i, "name": name, "parent": self.parents[i],
                   "start_ms": (self.starts[i] - t0) * 1e3,
                   "end_ms": (self.ends[i] - t0) * 1e3}


def _arg(args, kwargs, pos: int, name: str):
    return kwargs[name] if name in kwargs else args[pos]


class Instrument:
    """Installs probe or span wrappers for one job at a time."""

    def __init__(self):
        self.modules = [importlib.import_module("mwlab")] + [
            importlib.import_module(f"mwlab.{layer}") for layer in LAYERS
        ]
        self.functions: dict[str, object] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"mwlab.{layer}")
            for name, obj in vars(mod).items():
                qual = f"{layer}.{name}"
                if (name.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__ or qual in UNWRAPPED):
                    continue
                self.functions[qual] = obj
        self.methods: dict[str, tuple[type, str, object]] = {}
        for owner, names in WRAPPED_METHODS.items():
            layer, cls_name = owner.split(".")
            cls = getattr(importlib.import_module(f"mwlab.{layer}"), cls_name)
            for name in names:
                self.methods[f"{owner}.{name}"] = (cls, name, cls.__dict__[name])
        self.probes = {
            "trainer.train": self._probe_train,
            "trainer.adam_step": self._probe_adam,
            **{name: self._probe_bundle for name in BUNDLE},
        }
        self.counter_hooks = {
            "encoder.prepare_tokens": self._count_tokens,
            "trainer.adam_step": self._count_adam,
            "objectives.mw_loss": self._count_pairs,
            "metrics.pooled_auc_protocol": self._count_pool,
        }
        missing = (set(self.probes) | set(self.counter_hooks)) - set(self.functions)
        if missing:
            raise RuntimeError(f"mwlab no longer defines {sorted(missing)}")
        self.probe = JobProbe()
        self.counters = Counters()
        self.log: SpanLog | None = None
        self._undo: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def start_job(self, traced: bool) -> None:
        """Reset per-job state and install wrappers for the next job."""
        self.stop_job()
        self.probe = JobProbe()
        self.counters = Counters()
        self.log = SpanLog() if traced else None
        names = self.functions if traced else self.probes
        wrappers = {id(self.functions[q]): self._wrap(q, self.functions[q]) for q in names}
        for mod in self.modules:
            for attr, val in list(vars(mod).items()):
                w = wrappers.get(id(val))
                if w is not None:
                    self._undo.append((mod, attr, val))
                    setattr(mod, attr, w)
        if traced:
            for qual, (cls, name, orig) in self.methods.items():
                self._undo.append((cls, name, orig))
                setattr(cls, name, self._wrap(qual, orig))

    def stop_job(self) -> None:
        """Put every original function back."""
        while self._undo:
            target, attr, orig = self._undo.pop()
            setattr(target, attr, orig)

    def _wrap(self, qual: str, fn):
        probe = self.probes.get(qual)
        counter = self.counter_hooks.get(qual)
        inst = self

        def wrapper(*args, **kwargs):
            log = inst.log
            if log is not None:
                idx = log.open(qual)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                if log is not None:
                    log.close(idx, t0, t1)
            if probe is not None:
                probe(args, kwargs, result, t0, t1)
            if counter is not None and log is not None:
                c0 = clock()
                counter(args, kwargs, result)
                log.add(COUNTER_SPAN, c0, clock())
            return result

        wrapper.__qualname__ = qual
        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper

    # -- probes (every job) -------------------------------------------------

    def _probe_train(self, args, kwargs, result, t0, t1):
        params, report = result
        self.probe.trains.append(TrainCall(
            config=_arg(args, kwargs, 0, "config"), params=params, report=report,
            returned=t1, step_ends=self.probe.step_ends,
        ))
        self.probe.step_ends = []

    def _probe_adam(self, args, kwargs, result, t0, t1):
        if self.probe.first_step_at is None:
            self.probe.first_step_at = t0
        self.probe.step_ends.append(t1)

    def _probe_bundle(self, args, kwargs, result, t0, t1):
        queries = 0
        if isinstance(result, tuple):  # pooled_auc_protocol -> (pool, auc)
            queries = len(_arg(args, kwargs, 0, "queries"))
        self.probe.eval_calls.append((t1 - t0, queries))

    # -- counters (traced jobs only) ------------------------------------------

    def _count_tokens(self, args, kwargs, result):
        texts = _arg(args, kwargs, 0, "texts")
        self.counters.texts_hashed += len(texts)
        self.counters.distinct_texts.update(texts)

    def _count_adam(self, args, kwargs, result):
        params, grads = result[0], _arg(args, kwargs, 1, "grads")
        c = self.counters
        c.adam_calls += 1
        # dense Adam reads p, g, m, v and writes p, m, v: 7 passes over the
        # parameter bytes (computed from array sizes, not measured)
        c.adam_bytes += 7 * (params.embedding.nbytes + params.projection.nbytes)
        c.grad_rows_touched += float(np.any(grads.embedding != 0.0, axis=1).mean())

    def _count_pairs(self, args, kwargs, result):
        scores = _arg(args, kwargs, 0, "scores")
        expected = self.functions["scoring.comparison_counts"](scores.B, scores.H)[1]
        self.counters.mw_pairs += result.term_count
        if result.term_count != expected:
            self.counters.mw_pair_mismatches.append((scores.B, scores.H, result.term_count, expected))

    def _count_pool(self, args, kwargs, result):
        self.counters.pool_negatives += result[0].n_neg
