"""Shared infrastructure for the per-figure benchmark harness.

Every benchmark regenerates one table or figure of the paper at reduced
scale and prints measured rows next to the paper's published values.  The
policy-comparison benches (``compare_policies`` and the sweeps) submit
through the :mod:`repro.jobs` engine — parallel workers plus full result
memoization; benches that call ``run_single``/``run_workload`` directly
(the ablations, IPC stacks) stay serial and only reuse memoized
single-thread baselines.  Environment knobs (full list in
EXPERIMENTS.md):

* ``REPRO_FULL=1``     — run the complete Table II/III workload lists
  instead of the representative subsets.
* ``REPRO_COMMITS``    — per-thread instruction budget (default here:
  20,000, see :func:`bench_commits`; the four-thread bench passes 6,000).
* ``REPRO_JOBS``       — worker processes per batch (default 1 = serial).
* ``REPRO_CACHE_DIR``  — persistent result store location (default
  ``~/.cache/repro``); ``REPRO_CACHE=0`` disables memoization.

Keep in mind the caveat from EXPERIMENTS.md: absolute numbers differ from
the paper (synthetic workloads, scaled caches, short runs); the comparisons
target the *shape* — who wins, roughly by how much, and where trends go.
"""

from __future__ import annotations

import os

from repro.config import SMTConfig
from repro.experiments import default_config
from repro.experiments.defaults import full_runs
from repro.workloads import (
    FOUR_THREAD_WORKLOADS,
    TWO_THREAD_ILP,
    TWO_THREAD_MLP,
    TWO_THREAD_MIXED,
)


def bench_commits(default: int = 20_000) -> int:
    """Per-thread instruction budget for the benches.

    The default must exceed the slow-thread bootstrap scale: in extreme
    speed-asymmetric pairs (lucas–fma3d with the prefetcher), the
    memory-bound thread needs enough commits past warmup to push 128+
    instructions through its LLSR and train the MLP predictor — below
    ~16K total budget its measurement is all cold-start transient.
    """
    env = os.environ.get("REPRO_COMMITS")
    return int(env) if env else default


def bench_config(num_threads: int = 2) -> SMTConfig:
    return default_config(num_threads=num_threads)


# Representative workload subsets (full lists under REPRO_FULL=1).
_QUICK_ILP = (("vortex", "parser"), ("crafty", "twolf"), ("gcc", "gap"))
_QUICK_MLP = (("mcf", "swim"), ("mcf", "galgel"), ("lucas", "fma3d"),
              ("swim", "mesa"))
_QUICK_MIX = (("swim", "perlbmk"), ("fma3d", "twolf"), ("vpr", "mcf"),
              ("equake", "perlbmk"))
_QUICK_4T = (("vortex", "parser", "crafty", "twolf"),
             ("mgrid", "vortex", "swim", "twolf"),
             ("lucas", "fma3d", "equake", "perlbmk"),
             ("apsi", "mesa", "mcf", "swim"))


def two_thread_groups() -> dict[str, tuple[tuple[str, str], ...]]:
    if full_runs():
        return {"ILP": TWO_THREAD_ILP, "MLP": TWO_THREAD_MLP,
                "MIX": TWO_THREAD_MIXED}
    return {"ILP": _QUICK_ILP, "MLP": _QUICK_MLP, "MIX": _QUICK_MIX}


def four_thread_workloads():
    if full_runs():
        return tuple(w for group in FOUR_THREAD_WORKLOADS.values()
                     for w in group)
    return _QUICK_4T


def engine_status() -> str:
    """One-line jobs-engine banner (workers + result-store state)."""
    from repro.jobs import default_store, default_workers
    store = default_store()
    if store is None:
        cache = "cache disabled (REPRO_CACHE=0)"
    else:
        cache = f"cache {store.root} ({len(store)} entries)"
    return f"jobs engine: {default_workers()} worker(s), {cache}"


def print_header(title: str) -> None:
    print()
    print("=" * 72)
    print(title)
    print(engine_status())
    print("=" * 72)
