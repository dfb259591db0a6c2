"""Outside-in layer tracer: per-layer counts and self times, no program edits.

The tracer wraps the public entry points of each layer of the simulator
from outside, by replacing class or module attributes, and records:

* **spans** for the coarse layers (one simulation, its warmup and its
  measured phase, a jobs batch, one store get or put, an API call).
  A span has an id, its parent span, the id of the simulation it
  belongs to, start and end times and its self time;
* **callouts** for the hot entry points (memory accesses, trace reads,
  predictor and branch updates, policy hooks, content hashing, core
  construction).  These are too frequent to record one by one, so each
  is aggregated into its enclosing span as a call count plus summed
  total and self seconds.

Self time is a wrapper's duration minus the time spent in the wrapped
calls it made, so the engine's own compiled or Python loop shows up as
the self time of the ``pipeline.warmup`` and ``pipeline.measure`` spans.
A wrapped call is charged to its caller including the wrapper's own
bookkeeping, so that cost (about a microsecond per call) does not
inflate the caller's self time; only the call into and out of the
wrapper stays unattributed, and ``trace_overhead_s`` reports the total.

Rules the wrappers follow so that tracing changes no result and keeps
the engines' fast paths:

* install before the first core is built: the cores bind hierarchy,
  trace and LLSR methods once, at construction;
* patch each function where its caller looks it up (``repro.jobs.
  executor`` imports the simulation functions by name);
* copy function attributes (``functools.wraps``), so the hook-elision
  markers ``_is_default_hook``, ``_is_base_impl`` and
  ``_identity_keyed_cleanup`` survive and elided hooks stay elided;
* never wrap ``step``, ``_run_until``, ``_complete`` or ``_execute``:
  the engines compare those by identity and would fall back to their
  slow per-cycle stepping loop.
"""

from __future__ import annotations

from collections.abc import Callable
import functools
import itertools
import json
from pathlib import Path
import time
from types import FunctionType
from typing import Any

_perf = time.perf_counter

MARKERS = ("_is_default_hook", "_is_base_impl", "_identity_keyed_cleanup")

#: Engine methods the cores compare by identity; wrapping any of them
#: would silently switch an engine to its slow per-cycle stepping loop.
IDENTITY_CHECKED = ("step", "_run_until", "_complete", "_execute")

POLICY_HOOKS = ("fetch_order", "fetch_pending", "on_fetch", "on_ll_detect",
                "on_load_complete", "can_dispatch", "on_resource_stall")


class Span:
    """One coarse-layer interval with the callouts made directly in it."""

    __slots__ = ("id", "name", "parent", "sim", "start", "end", "self_s",
                 "callouts")

    def __init__(self, id: int, name: str, parent: int | None,
                 sim: int | None):
        self.id = id
        self.name = name
        self.parent = parent
        self.sim = sim
        self.start = 0.0
        self.end = 0.0
        self.self_s = 0.0
        #: callout name -> [calls, total seconds, self seconds]
        self.callouts: dict[str, list] = {}

    def to_doc(self) -> dict:
        return {"id": self.id, "name": self.name, "parent": self.parent,
                "sim": self.sim, "start": self.start, "end": self.end,
                "self_s": self.self_s, "callouts": self.callouts}


class Tracer:
    """Installs the layer wrappers and collects what they record."""

    def __init__(self) -> None:
        # Child-time accumulators, one per active wrapper; the bottom
        # entry belongs to the root span (work outside every span).
        self._stack: list[float] = [0.0]
        self._ids = itertools.count(1)
        self._root = Span(0, "root", None, None)
        self._span = self._root
        self._cur = self._root.callouts
        self._spans: list[Span] = []
        self._active: set[str] = set()
        self._patches: list[tuple[Any, str, Any]] = []
        #: named event counters (store hits)
        self.counters: dict[str, int] = {}

    # ------------------------------------------------------------------ #
    # wrappers
    # ------------------------------------------------------------------ #

    def _callout(self, fn: Callable, name: str, outermost: bool) -> Callable:
        """``outermost``: constructors chain through ``super().__init__``
        and policy hooks may call the base hook; count only the
        outermost call of ``name``."""
        stack = self._stack
        tr = self
        active = self._active

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if outermost and name in active:
                return fn(*args, **kwargs)
            t0 = _perf()
            if outermost:
                active.add(name)
            stack.append(0.0)
            try:
                return fn(*args, **kwargs)
            finally:
                dt = _perf() - t0
                child = stack.pop()
                if outermost:
                    active.discard(name)
                rec = tr._cur.get(name)
                if rec is None:
                    rec = tr._cur[name] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - child
                stack[-1] += _perf() - t0

        return timed

    def _spanned(self, fn: Callable, name: str, simulation: bool,
                 hit_counter: str | None) -> Callable:
        stack = self._stack
        tr = self
        ids = self._ids
        spans = self._spans
        counters = self.counters

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            t_in = _perf()
            parent = tr._span
            sid = next(ids)
            span = Span(sid, name, parent.id,
                        sid if simulation else parent.sim)
            tr._span = span
            tr._cur = span.callouts
            stack.append(0.0)
            t0 = _perf()
            try:
                result = fn(*args, **kwargs)
                if hit_counter is not None and result is not None:
                    counters[hit_counter] = counters.get(hit_counter, 0) + 1
                return result
            finally:
                t1 = _perf()
                dt = t1 - t0
                child = stack.pop()
                span.start = t0
                span.end = t1
                span.self_s = dt - child
                tr._span = parent
                tr._cur = parent.callouts
                spans.append(span)
                stack[-1] += _perf() - t_in

        return spanned

    def _patch(self, owner: Any, attr: str,
               make: Callable[[Callable], Callable]) -> None:
        """Replace ``owner.attr`` by ``make(original)``."""
        if attr in IDENTITY_CHECKED:
            raise ValueError(f"{attr} is compared by identity; never wrap it")
        original = vars(owner)[attr]
        wrapper = make(original)
        for marker in MARKERS:
            if getattr(wrapper, marker, None) != getattr(original, marker,
                                                         None):
                raise RuntimeError(f"{owner.__name__}.{attr}: {marker} "
                                   f"lost by the wrapper")
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def callout(self, owner: Any, attr: str, name: str,
                outermost: bool = False) -> None:
        self._patch(owner, attr,
                    lambda fn: self._callout(fn, name, outermost))

    def span(self, owner: Any, attr: str, name: str,
             simulation: bool = False, hit_counter: str | None = None) -> None:
        self._patch(owner, attr, lambda fn: self._spanned(
            fn, name, simulation, hit_counter))

    # ------------------------------------------------------------------ #
    # install / uninstall
    # ------------------------------------------------------------------ #

    def install(self) -> Tracer:
        """Wrap every layer's entry points (call before building a core)."""
        import repro.api.session as api_session
        import repro.jobs.executor as executor
        from repro import registry
        from repro.api import Session
        from repro.branch import BTB, GShare
        from repro.jobs.spec import JobSpec
        from repro.jobs.store import ResultStore
        from repro.memory.hierarchy import MemoryHierarchy
        from repro.pipeline.core import SMTCore
        from repro.policies.base import FetchPolicy
        from repro.predictors import LLL_PREDICTORS, LLSR, MLPDistancePredictor
        from repro.workloads.trace import SyntheticTrace

        # Load every engine and policy class before walking the class
        # trees, so conditionally registered ones (cext) are wrapped too.
        registry.backends.names()
        registry.policies.names()

        # repro.pipeline
        for cls in _class_tree(SMTCore):
            if "__init__" in vars(cls):
                self.callout(cls, "__init__", "pipeline.core_init",
                             outermost=True)
        self.span(SMTCore, "begin_measurement", "pipeline.warmup")
        self.span(SMTCore, "advance_to", "pipeline.measure")
        # repro.memory
        for attr in ("load", "ifetch", "store"):
            self.callout(MemoryHierarchy, attr, f"memory.{attr}")
        # repro.workloads
        self.callout(SyntheticTrace, "get", "workloads.trace_get")
        self.callout(SyntheticTrace, "__init__", "workloads.trace_build")
        # repro.predictors
        self.callout(LLSR, "commit_zeros", "predictors.llsr_commit_zeros")
        self.callout(LLSR, "commit", "predictors.llsr_commit")
        for cls in dict.fromkeys(LLL_PREDICTORS.values()):
            self.callout(cls, "predict", "predictors.lll_predict")
            self.callout(cls, "train", "predictors.lll_train")
        self.callout(MLPDistancePredictor, "predict", "predictors.mlp_predict")
        self.callout(MLPDistancePredictor, "train", "predictors.mlp_train")
        # repro.branch
        self.callout(GShare, "update", "branch.gshare_update")
        self.callout(BTB, "lookup", "branch.btb_lookup")
        self.callout(BTB, "insert", "branch.btb_insert")
        # repro.policies
        for cls in _class_tree(FetchPolicy):
            for hook in POLICY_HOOKS:
                if isinstance(vars(cls).get(hook), FunctionType):
                    self.callout(cls, hook, f"policies.{hook}",
                                 outermost=True)
        # repro.jobs
        self.callout(JobSpec, "cache_key", "jobs.cache_key")
        self.span(ResultStore, "get", "jobs.store_get",
                  hit_counter="jobs.store_get.hits")
        self.span(ResultStore, "put", "jobs.store_put")
        self.span(api_session, "run_jobs", "jobs.batch")
        # repro.experiments (looked up by name in the executor)
        self.span(executor, "simulate_baseline", "experiments.baseline",
                  simulation=True)
        self.span(executor, "run_workload", "experiments.workload",
                  simulation=True)
        self.callout(executor, "build_workload_result", "experiments.score")
        # repro.api
        self.span(Session, "run_many", "api.run_many")
        self.span(Session, "simulate", "api.simulate", simulation=True)
        return self

    def uninstall(self) -> None:
        """Put every original attribute back, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------ #
    # results
    # ------------------------------------------------------------------ #

    def aggregate(self) -> dict:
        """Totals since the last :meth:`reset`.

        ``spans`` maps a span name to ``[count, total s, self s]``,
        ``callouts`` a callout name to ``[calls, total s, self s]``
        summed over every span, and ``counters`` holds event counts.
        """
        spans: dict[str, list] = {}
        callouts: dict[str, list] = {}
        for span in [self._root, *self._spans]:
            if span is not self._root:
                rec = spans.setdefault(span.name, [0, 0.0, 0.0])
                rec[0] += 1
                rec[1] += span.end - span.start
                rec[2] += span.self_s
            for name, (calls, total, self_s) in span.callouts.items():
                rec = callouts.setdefault(name, [0, 0.0, 0.0])
                rec[0] += calls
                rec[1] += total
                rec[2] += self_s
        return {"spans": spans, "callouts": callouts,
                "counters": dict(self.counters)}

    def reset(self) -> None:
        """Drop what was recorded (call between passes, outside spans)."""
        self._spans.clear()
        self._root.callouts.clear()
        self.counters.clear()

    def dump(self, path: Path) -> None:
        """Write the recorded spans (and root callouts) as JSON."""
        doc = {"spans": [s.to_doc() for s in [self._root, *self._spans]]}
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, separators=(",", ":")))


def _class_tree(root: type) -> list[type]:
    """``root`` and every subclass, parents before children."""
    seen: list[type] = []
    todo = [root]
    while todo:
        cls = todo.pop(0)
        if cls not in seen:
            seen.append(cls)
            todo.extend(cls.__subclasses__())
    return seen


def layer_metrics(agg: dict) -> dict[str, float]:
    """The per-layer metrics of one pass from :meth:`Tracer.aggregate`.

    ``.calls`` are exact counts and ``.s`` self seconds; the two
    ``experiments`` times are inclusive.
    """
    spans, callouts, counters = agg["spans"], agg["callouts"], \
        agg["counters"]

    def span(name: str) -> list:
        return spans.get(name, [0, 0.0, 0.0])

    def call(name: str) -> list:
        return callouts.get(name, [0, 0.0, 0.0])

    out: dict[str, float] = {
        "pipeline.warmup.s": span("pipeline.warmup")[2],
        "pipeline.measure.s": span("pipeline.measure")[2],
    }
    hot = ["pipeline.core_init", "memory.load", "memory.ifetch",
           "memory.store", "workloads.trace_get", "workloads.trace_build",
           "predictors.llsr_commit_zeros", "predictors.llsr_commit",
           "predictors.lll_predict", "predictors.lll_train",
           "predictors.mlp_predict", "predictors.mlp_train",
           "branch.gshare_update", "branch.btb_lookup", "branch.btb_insert",
           *(f"policies.{hook}" for hook in POLICY_HOOKS),
           "jobs.cache_key"]
    for name in hot:
        calls, _total, self_s = call(name)
        out[f"{name}.calls"] = calls
        out[f"{name}.s"] = self_s
    for name in ("jobs.store_get", "jobs.store_put", "api.simulate"):
        count, _total, self_s = span(name)
        out[f"{name}.calls"] = count
        out[f"{name}.s"] = self_s
    gets = span("jobs.store_get")[0]
    hits = counters.get("jobs.store_get.hits", 0)
    out["jobs.store_hit_ratio"] = hits / gets if gets else 0.0
    out["jobs.keys_per_lookup"] = (call("jobs.cache_key")[0] / gets
                                   if gets else 0.0)
    out["jobs.batch.s"] = span("jobs.batch")[2]
    out["experiments.baseline.s"] = span("experiments.baseline")[1]
    out["experiments.score.s"] = call("experiments.score")[1]
    out["api.run_many.s"] = span("api.run_many")[2]
    return out
