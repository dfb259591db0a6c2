"""Batch executor: fan a set of jobs across processes, memoized.

:func:`run_jobs` takes any mix of workload and baseline
:class:`~repro.jobs.spec.JobSpec` s and

1. deduplicates them by content key,
2. resolves what it can from the persistent result store,
3. simulates every *shared single-thread baseline* the missing workload
   jobs need — each exactly once per batch — across ``REPRO_JOBS`` worker
   processes,
4. simulates the missing workload jobs the same way, assembling their
   STP/ANTT in the parent from the step-3 baselines, and
5. writes everything back to the store.

The simulator is deterministic, so a parallel batch is bit-identical to a
serial one; parallelism only reorders progress callbacks.  Worker count
comes from ``workers=`` or the ``REPRO_JOBS`` environment variable
(default 1 = in-process serial execution, no pool overhead).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from multiprocessing import get_context
import os

from repro.experiments.runner import (
    build_workload_result,
    run_workload,
    simulate_baseline,
)
from repro.jobs.spec import (
    KIND_BASELINE,
    KIND_WORKLOAD,
    JobSpec,
    UncacheableJobError,
)
from repro.jobs.store import default_store

_UNSET = object()

# Cumulative in-process counters, for engine-status reporting (CLI,
# figures footer) and for tests asserting "second run simulates nothing".
_counters = {"executed": 0, "cache_hits": 0}


def counters() -> dict[str, int]:
    """Snapshot of the cumulative executed / cache-hit counters."""
    return dict(_counters)


def default_workers() -> int:
    """Worker-process count from ``REPRO_JOBS`` (default 1 = serial)."""
    env = os.environ.get("REPRO_JOBS", "")
    try:
        return max(int(env), 1) if env else 1
    except ValueError:
        return 1


@dataclass(frozen=True)
class BatchReport:
    """What one :func:`run_jobs` call actually did."""

    submitted: int          # specs handed in
    unique: int             # after content-key deduplication
    cache_hits: int         # unique jobs resolved from the store
    executed: int           # simulations actually run (incl. baselines)
    baselines_executed: int
    baselines_cached: int   # shared baselines served from the store
    workers: int

    def __str__(self) -> str:
        return (f"{self.submitted} submitted, {self.unique} unique, "
                f"{self.cache_hits} cache hits, {self.executed} simulated "
                f"({self.baselines_executed} baselines run, "
                f"{self.baselines_cached} from store), "
                f"{self.workers} worker(s)")


def _key(spec: JobSpec) -> str:
    """Bookkeeping key for a spec: the content key when it has one.

    Uncacheable specs (exotic policy kwargs) fall back to object
    identity — they never deduplicate or touch the store, degrading to
    plain execution instead of crashing the batch.
    """
    try:
        return spec.cache_key()
    except UncacheableJobError:
        return f"uncacheable:{id(spec)}"


@dataclass
class BatchResult:
    """Results of a batch, addressable by the submitted specs."""

    results: dict[str, object]
    report: BatchReport

    def __getitem__(self, spec: JobSpec):
        return self.results[_key(spec)]


def _baseline_job(spec: JobSpec):
    return simulate_baseline(spec.names[0], spec.config, spec.max_commits,
                             spec.warmup, seed=spec.seed,
                             backend=spec.backend)


def _workload_job(spec: JobSpec):
    stats, _core = run_workload(spec.names, spec.config, spec.policy,
                                spec.max_commits, warmup=spec.warmup,
                                seed=spec.seed, backend=spec.backend,
                                **dict(spec.policy_kwargs))
    return stats


def _run_batch(fn: Callable, specs: list[JobSpec], workers: int) -> list:
    """Map ``fn`` over ``specs``, in-process or across a pool.

    Returns results in submission order either way, so downstream
    bookkeeping is independent of worker scheduling.
    """
    if not specs:
        return []
    if workers <= 1 or len(specs) == 1:
        return [fn(spec) for spec in specs]
    with get_context().Pool(min(workers, len(specs))) as pool:
        return pool.map(fn, specs)


def run_jobs(specs, *, workers: int | None = None, store=_UNSET,
             progress=None) -> BatchResult:
    """Execute a batch of jobs; see the module docstring for the phases.

    ``store`` defaults to the environment-configured persistent store
    (pass ``None`` to force fresh simulation).  ``progress`` is called
    with a one-line status string as each job resolves.
    """
    submitted = list(specs)
    if store is _UNSET:
        store = default_store()
    if workers is None:
        workers = default_workers()

    unique = list({_key(spec): spec for spec in submitted}.values())
    results: dict[str, object] = {}
    hits = 0
    missing: list[JobSpec] = []
    for spec in unique:
        cached = store.get(spec) if store is not None else None
        if cached is not None:
            results[_key(spec)] = cached
            hits += 1
            _counters["cache_hits"] += 1
            if progress is not None:
                progress(f"[cached] {cached}")
        else:
            missing.append(spec)

    # Phase 1: every baseline the missing jobs need, each exactly once.
    # (Baseline specs carry no policy kwargs, so they are always
    # cacheable and their keys are pure content keys.)
    needed: dict[str, JobSpec] = {}
    for spec in missing:
        if spec.kind == KIND_BASELINE:
            needed.setdefault(_key(spec), spec)
        else:
            for base in spec.baseline_specs():
                needed.setdefault(_key(base), base)
    baselines: dict[str, object] = {}
    baseline_hits = 0
    to_simulate: list[JobSpec] = []
    for key, base in needed.items():
        if key in results:                  # submitted alongside and hit
            baselines[key] = results[key]
            continue
        cached = store.get(base) if store is not None else None
        if cached is not None:
            baselines[key] = cached
            baseline_hits += 1
            _counters["cache_hits"] += 1
        else:
            to_simulate.append(base)
    for base, result in zip(to_simulate,
                            _run_batch(_baseline_job, to_simulate, workers)):
        baselines[_key(base)] = result
        if store is not None:
            store.put(base, result)
        _counters["executed"] += 1
        if progress is not None:
            progress(f"[baseline] {base.names[0]} IPC={result.ipc:.3f}")
    for spec in missing:
        if spec.kind == KIND_BASELINE:
            results[_key(spec)] = baselines[_key(spec)]

    # Phase 2: the missing workload jobs; STP/ANTT assembled in the
    # parent from the phase-1 baselines (workers never re-simulate them).
    # Uncacheable specs stay in-process: their exotic kwargs may not
    # pickle, and a PicklingError mid-pool would kill the whole batch.
    work = [spec for spec in missing if spec.kind == KIND_WORKLOAD]
    inline = [s for s in work if _key(s).startswith("uncacheable:")]
    pooled = [s for s in work if not _key(s).startswith("uncacheable:")]
    outcomes = list(zip(pooled, _run_batch(_workload_job, pooled, workers)))
    outcomes += [(s, _workload_job(s)) for s in inline]
    for spec, stats in outcomes:
        result = build_workload_result(
            spec.names, spec.policy, stats,
            [baselines[_key(base)] for base in spec.baseline_specs()])
        results[_key(spec)] = result
        if store is not None:
            store.put(spec, result)
        _counters["executed"] += 1
        if progress is not None:
            progress(str(result))

    report = BatchReport(
        submitted=len(submitted), unique=len(unique), cache_hits=hits,
        executed=len(to_simulate) + len(work),
        baselines_executed=len(to_simulate),
        baselines_cached=baseline_hits, workers=workers)
    return BatchResult(results=results, report=report)
