"""A finished core is freed by reference counting, not by the collector.

Every core is cyclic by construction (the policy and each thread point
back at it, each thread at itself and, through the training callback
its LLSR holds, at itself again, a cext arena and its views at each
other).  ``SMTCore.detach`` undoes that once a run's statistics are
read, and every function that drops a core calls it: then
``gc.collect()`` finds no core, no arena and no LLSR among the garbage.
"""

from __future__ import annotations

import gc

import pytest

from conftest import needs_cext
from repro.experiments import default_config, evaluate_workload
from repro.experiments.runner import (
    build_core,
    run_single,
    simulate_baseline,
)
from repro.jobs import JobSpec, run_jobs
from repro.perf.golden import snapshot_cell
from repro.perf.scenarios import Scenario
from repro.pipeline.core import SMTCore

BACKENDS = ["object", pytest.param("cext", marks=needs_cext)]

#: icount hands no instruction to a policy hook; the others do, which on
#: cext makes arena views (the arena <-> view cycle).
POLICIES = ["icount", "flush", "mlp_flush", "dcra"]


def _cyclic_garbage(fn) -> list:
    """What the collector finds after ``fn()``: the cores, arenas and
    LLSRs (either engine's: a cext thread's LLSR is C state holding the
    thread's ``_train_mlp``)."""
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        fn()
        gc.collect()
        return [obj for obj in gc.garbage
                if isinstance(obj, SMTCore)
                or type(obj).__name__ in ("Arena", "LLSR")]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


def _finished_core(policy: str, backend: str) -> SMTCore:
    core = build_core(("mcf", "art"), default_config(num_threads=2), policy,
                      backend=backend)
    core.run(1_200, warmup=300)
    return core


@pytest.mark.parametrize("backend", BACKENDS)
def test_undetached_core_is_cyclic_garbage(backend):
    # The control: without detach the core waits for the collector, so
    # the checks below can see a core that is not freed, and the LLSRs
    # in its cycles (the native one's traverse shows its callback).
    def run():
        _finished_core("mlp_flush", backend)

    garbage = _cyclic_garbage(run)
    assert any(isinstance(obj, SMTCore) for obj in garbage)
    assert sum(type(obj).__name__ == "LLSR" for obj in garbage) == 2


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("policy", POLICIES)
class TestDetach:
    def test_detached_core_is_freed_at_once(self, backend, policy):
        def run():
            _finished_core(policy, backend).detach()

        assert _cyclic_garbage(run) == []

    def test_statistics_survive_detach(self, backend, policy):
        core = _finished_core(policy, backend)
        stats = core.stats
        before = (stats.cycles, [t.committed for t in stats.threads],
                  [t.squashed for t in stats.threads], stats.total_ipc)
        core.detach()
        after = (stats.cycles, [t.committed for t in stats.threads],
                 [t.squashed for t in stats.threads], stats.total_ipc)
        assert after == before
        assert core.policy.core is None
        assert all(ts.core is None for ts in core.threads)


@pytest.mark.parametrize("backend", BACKENDS)
class TestCallersDetach:
    def test_golden_snapshot(self, backend):
        cell = Scenario("lifetime", ("mcf", "art"), "mlp_flush",
                        commits=1_200, warmup=300, quick_commits=1_200)
        assert _cyclic_garbage(lambda: snapshot_cell(cell, backend)) == []

    def test_baseline(self, backend):
        cfg = default_config(num_threads=1)

        def run():
            result = simulate_baseline("mcf", cfg, 1_200, 300,
                                       backend=backend)
            assert len(result.commit_cycles) == \
                result.stats.threads[0].committed

        assert _cyclic_garbage(run) == []

    def test_jobs_batch(self, backend):
        cfg = default_config(num_threads=2)
        specs = [JobSpec.workload(("mcf", "art"), cfg, policy, 1_200,
                                  warmup=300, backend=backend)
                 for policy in ("icount", "mlp_flush")]
        assert _cyclic_garbage(
            lambda: run_jobs(specs, workers=1, store=None)) == []


def test_evaluate_workload_detaches():
    def run():
        evaluate_workload(("mcf", "art"), default_config(num_threads=2),
                          "mlp_flush", 1_200, warmup=300)

    assert _cyclic_garbage(run) == []


def test_run_single_detaches():
    def run():
        stats = run_single("mcf", default_config(num_threads=1), 1_200,
                           record_commits=True, warmup=300)
        assert len(stats.commit_cycle_trace) == stats.threads[0].committed

    assert _cyclic_garbage(run) == []


@needs_cext
def test_detached_cext_core_refuses_to_run():
    core = _finished_core("mlp_flush", "cext")
    core.detach()
    with pytest.raises(TypeError, match="no usable arena"):
        core.advance_to(5_000)
