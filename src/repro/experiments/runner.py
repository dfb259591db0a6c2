"""Run single programs and multiprogram workloads; compute STP/ANTT.

Implements the paper's Section 5 methodology: a multiprogram simulation
stops when the first program commits its instruction budget; each program i
then has committed x_i instructions, and its single-threaded CPI is
evaluated *at x_i instructions* from a cached single-threaded run that
records the cycle stamp of every commit.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import lru_cache

from repro.config import SMTConfig, single_thread_variant
from repro.experiments.defaults import default_warmup
from repro.metrics import antt, stp
from repro.pipeline import CoreStats, SMTCore
from repro.policies import FetchPolicy, make_policy
from repro.util import mix64
from repro.workloads import SyntheticTrace, benchmark

_THREAD_BASE_SHIFT = 48
_PC_BASE_SHIFT = 20


# Domain tag for salted seeds.  Canonical seeds hash only name bytes
# (each < 256), so no benchmark name can ever produce a salted stream's
# hash: the tag keeps "name2's canonical trace" and "name1 at salt k"
# disjoint for every possible registered name.
_SEED_DOMAIN = 0x5EED


def stable_seed(name: str, salt: int = 0) -> int:
    """Deterministic per-benchmark seed (independent of thread slot).

    ``salt=0`` is the canonical stream every published number uses; a
    nonzero salt (a :class:`repro.api.RunSpec` ``seed``) derives an
    alternate but equally deterministic instance of the same program,
    domain-separated so it can never alias another benchmark's
    canonical stream.
    """
    if salt:
        return mix64(_SEED_DOMAIN, salt, len(name), *name.encode())
    return mix64(*name.encode())


def trace_for(name: str, cfg: SMTConfig, slot: int = 0,
              seed: int = 0) -> SyntheticTrace:
    """Build the trace for ``name`` placed in hardware-thread ``slot``.

    The generated instruction stream is identical for every slot (only the
    address-space and PC bases differ), so single-threaded baselines and
    multithreaded runs execute the same program.

    Traces are pure functions of ``(spec, memory config, seed, bases)``
    and are never mutated by simulation, so identical requests share one
    memoized instance: repeat timing runs, golden regeneration and the
    jobs workers stop re-deriving the same body/prototype tables for
    every core they build.
    """
    return _cached_trace(name, cfg.memory, slot, seed)


@lru_cache(maxsize=64)
def _cached_trace(name: str, mem_cfg, slot: int,
                  seed: int) -> SyntheticTrace:
    return SyntheticTrace(
        benchmark(name), mem_cfg, seed=stable_seed(name, seed),
        base=(slot + 1) << _THREAD_BASE_SHIFT,
        pc_base=(slot + 1) << _PC_BASE_SHIFT)


@dataclass
class SingleThreadResult:
    """A cached single-threaded run with per-commit cycle stamps."""

    name: str
    stats: CoreStats
    commit_cycles: list[int]

    def cpi_at(self, commits: int) -> float:
        """Single-threaded CPI after exactly ``commits`` instructions."""
        if commits <= 0:
            raise ValueError("commits must be positive")
        commits = min(commits, len(self.commit_cycles))
        # A commit stamped on the measurement-start cycle would yield a
        # degenerate zero CPI on very short runs; clamp to one cycle.
        return max(self.commit_cycles[commits - 1], 1) / commits

    @property
    def ipc(self) -> float:
        return self.stats.ipc(0)


def _single_config(cfg: SMTConfig) -> SMTConfig:
    return single_thread_variant(cfg)


def default_backend() -> str:
    """The engine an unpinned run executes on: the fastest one that built.

    ``cext`` wherever the lazy toolchain probe built and registered it,
    ``object`` otherwise (``REPRO_CEXT=0`` forces that).  The engines
    are bit-identical, so this choice changes wall time, never results.
    The first call runs the probe; later calls are one registry lookup.
    """
    from repro import registry  # lazy: registry sits above experiments
    return "cext" if "cext" in registry.backends else "object"


def core_for(policy: FetchPolicy, backend: str | None = None,
             num_threads: int = 1) -> type[SMTCore]:
    """The core class for one run: policy requirement, then backend.

    A policy's ``core_class`` (e.g. runahead's specialized core) always
    wins — those policies are only implemented on their own engine.  For
    every other policy the named entry of the ``backends`` registry is
    used.  ``None`` means an unpinned run and resolves to
    :func:`default_backend`, or to ``object`` when ``num_threads`` is
    more than ``cext`` runs (:func:`repro.pipeline.cext.max_threads`);
    this is the one place that resolution happens, so every caller
    (workloads, baselines, Table I profiles) runs on the same engine.
    ``object`` short-circuits to :class:`SMTCore` without a registry
    lookup.

    With ``REPRO_SANITIZE`` set (see :mod:`repro.pipeline.sanitize`) the
    engines are swapped for their checked subclasses, runahead's core
    included — bit-exact, slower, invariants asserted.  The env probe
    is the only cost when the knob is off; the sanitizer module is not
    even imported.
    """
    cls = policy.core_class
    if cls is None:
        if backend is None:
            backend = default_backend()
            if backend == "cext":
                from repro.pipeline.cext import max_threads
                if num_threads > max_threads():
                    backend = "object"
        if backend == "object":
            cls = SMTCore
        else:
            from repro import registry  # lazy: registry sits above experiments
            cls = registry.backends.get(backend)
    if os.environ.get("REPRO_SANITIZE", "") not in ("", "0"):
        from repro.pipeline.sanitize import checked_variant
        cls = checked_variant(cls)
    return cls


def run_single(name: str, cfg: SMTConfig, max_commits: int,
               policy: str | FetchPolicy = "icount",
               record_commits: bool = False,
               warmup: int | None = None) -> CoreStats:
    """Run one benchmark alone on the (single-threaded) machine."""
    st_cfg = _single_config(cfg)
    trace = trace_for(name, st_cfg, slot=0)
    pol = make_policy(policy) if isinstance(policy, str) else policy
    core = core_for(pol)(st_cfg, [trace], pol)
    if record_commits:
        core.threads[0].commit_cycles = []
    stats = core.run(max_commits,
                     warmup=default_warmup() if warmup is None else warmup)
    if record_commits:
        stats.commit_cycle_trace = core.threads[0].commit_cycles
    core.detach()
    return stats


def simulate_baseline(name: str, st_cfg: SMTConfig, max_commits: int,
                      warmup: int, seed: int = 0,
                      backend: str | None = None) -> SingleThreadResult:
    """Uncached single-threaded ICOUNT run with per-commit cycle stamps.

    The simulation primitive behind :func:`single_thread_baseline` and the
    :mod:`repro.jobs` executor; ``st_cfg`` must already be single-threaded.
    ``backend`` picks the engine as in :func:`core_for`.
    """
    trace = trace_for(name, st_cfg, slot=0, seed=seed)
    pol = make_policy("icount")
    core = core_for(pol, backend)(st_cfg, [trace], pol)
    core.threads[0].commit_cycles = []
    stats = core.run(max_commits, warmup=warmup)
    commit_cycles = core.threads[0].commit_cycles
    core.detach()
    return SingleThreadResult(name, stats, commit_cycles)


#: Content key -> result.  Keyed by content, not by spec equality:
#: equal specs can differ in key (``mem_latency`` 350 and 350.0).
_baseline_cache: dict[str, SingleThreadResult] = {}


def single_thread_baseline(name: str, cfg: SMTConfig,
                           max_commits: int,
                           warmup: int | None = None,
                           seed: int = 0) -> SingleThreadResult:
    """Cached single-threaded ICOUNT run of ``name`` (CPI_ST source).

    Two cache layers: a process-local dict (hits return the identical
    object) backed by the persistent :mod:`repro.jobs` result store, so a
    baseline simulates at most once across processes and runs.
    """
    from repro.jobs.spec import JobSpec          # lazy: layering rule
    from repro.jobs.store import default_store
    spec = JobSpec.baseline(name, cfg, max_commits, warmup, seed=seed)
    key = spec.cache_key()
    cached = _baseline_cache.get(key)
    if cached is not None:
        return cached
    store = default_store()
    result = store.get(spec) if store is not None else None
    if result is None:
        result = simulate_baseline(name, spec.config, max_commits,
                                   spec.warmup, seed=seed)
        if store is not None:
            store.put(spec, result)
    _baseline_cache[key] = result
    return result


def clear_baseline_cache(disk: bool = True) -> None:
    """Drop the in-process baseline cache and (by default) the disk store.

    Pass ``disk=False`` when you only need the in-process memo dropped
    (e.g. between config variants in a long run) — results are keyed by
    full content, so the persistent store never aliases across variants
    and wiping it there would just force needless re-simulation.
    """
    _baseline_cache.clear()
    if disk:
        from repro.jobs.store import default_store  # lazy: layering rule
        store = default_store()
        if store is not None:
            store.clear()


@dataclass
class WorkloadResult:
    """One multiprogram run, evaluated with the paper's metrics."""

    names: tuple[str, ...]
    policy: str
    stats: CoreStats
    committed: tuple[int, ...] = ()
    st_cpis: tuple[float, ...] = ()
    mt_cpis: tuple[float, ...] = ()
    stp: float = 0.0
    antt: float = 0.0
    ipcs: tuple[float, ...] = field(default_factory=tuple)

    def __str__(self) -> str:
        mix = "-".join(self.names)
        return (f"{mix:<32} {self.policy:<20} STP={self.stp:5.3f} "
                f"ANTT={self.antt:5.3f}")


def build_core(names: tuple[str, ...] | list[str], cfg: SMTConfig,
               policy: str = "icount", seed: int = 0,
               backend: str | None = None, **policy_kwargs) -> SMTCore:
    """Construct the simulation core for a workload.

    The single construction path: :func:`run_workload` (and through it
    the jobs executor) and :meth:`repro.api.Session.simulate` /
    ``iter_intervals`` all build here, so every entry point wires
    traces, policy, core class, and engine backend identically.
    """
    names = tuple(names)
    if len(names) != cfg.num_threads:
        raise ValueError(
            f"workload {names} needs a {len(names)}-thread config, "
            f"got num_threads={cfg.num_threads}")
    traces = [trace_for(name, cfg, slot=i, seed=seed)
              for i, name in enumerate(names)]
    pol = make_policy(policy, **policy_kwargs)
    return core_for(pol, backend, cfg.num_threads)(cfg, traces, pol)


def run_workload(names: tuple[str, ...] | list[str], cfg: SMTConfig,
                 policy: str = "icount", max_commits: int = 20_000,
                 warmup: int | None = None, seed: int = 0,
                 backend: str | None = None,
                 **policy_kwargs) -> tuple[CoreStats, SMTCore]:
    """Simulate a multiprogram workload; returns (stats, core)."""
    core = build_core(names, cfg, policy, seed, backend=backend,
                      **policy_kwargs)
    stats = core.run(max_commits,
                     warmup=default_warmup() if warmup is None else warmup)
    return stats, core


def build_workload_result(names, policy: str, stats: CoreStats,
                          baselines) -> WorkloadResult:
    """Score a finished multiprogram run against its ST baselines.

    ``baselines`` is one :class:`SingleThreadResult` per program, in
    workload order.  Shared by :func:`evaluate_workload` and the
    :mod:`repro.jobs` executor so both paths produce bit-identical
    STP/ANTT.
    """
    names = tuple(names)
    committed = tuple(t.committed for t in stats.threads)
    mt_cpis = tuple(stats.cycles / max(x, 1) for x in committed)
    st_cpis = tuple(base.cpi_at(max(x, 1))
                    for base, x in zip(baselines, committed))
    return WorkloadResult(
        names=names, policy=policy, stats=stats, committed=committed,
        st_cpis=st_cpis, mt_cpis=mt_cpis,
        stp=stp(st_cpis, mt_cpis), antt=antt(st_cpis, mt_cpis),
        ipcs=tuple(stats.ipc(i) for i in range(len(names))))


def evaluate_workload(names: tuple[str, ...] | list[str], cfg: SMTConfig,
                      policy: str = "icount", max_commits: int = 20_000,
                      warmup: int | None = None, seed: int = 0,
                      **policy_kwargs) -> WorkloadResult:
    """Run a workload and score it with STP and ANTT (Section 5)."""
    names = tuple(names)
    stats, core = run_workload(names, cfg, policy, max_commits,
                               warmup=warmup, seed=seed, **policy_kwargs)
    core.detach()
    baselines = [single_thread_baseline(name, cfg, max_commits, seed=seed)
                 for name in names]
    return build_workload_result(names, policy, stats, baselines)
