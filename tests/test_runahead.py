"""Runahead execution: entry/exit, INV propagation, accounting, benefit."""

import pytest

from repro import registry
from repro.config import scaled_config
from repro.experiments.runner import (
    core_for,
    default_backend,
    run_single,
    run_workload,
    trace_for,
)
from repro.pipeline import SMTCore
from repro.policies import MLPRunaheadPolicy, RunaheadPolicy, make_policy
from repro.runahead import RunaheadCore
from tests.test_flush_invariants import check_invariants


def _runahead_core(names, policy="runahead", num_threads=None, **kwargs):
    cfg = scaled_config(num_threads=num_threads or len(names), scale=16)
    traces = [trace_for(n, cfg, slot=i) for i, n in enumerate(names)]
    pol = make_policy(policy, **kwargs)
    return RunaheadCore(cfg, traces, pol)


class TestCoreSelection:
    def test_runahead_policies_request_runahead_core(self):
        assert core_for(RunaheadPolicy()) is RunaheadCore
        assert core_for(MLPRunaheadPolicy()) is RunaheadCore

    def test_plain_policies_request_base_core(self):
        # No core_class: the requested backend decides, and an unpinned
        # run gets the default engine.
        default = registry.backends.get(default_backend())
        assert core_for(make_policy("icount")) is default
        assert core_for(make_policy("mlp_flush")) is default
        assert core_for(make_policy("mlp_flush"), "object") is SMTCore

    def test_base_core_reports_no_runahead(self):
        cfg = scaled_config(num_threads=1, scale=16)
        core = SMTCore(cfg, [trace_for("mcf", cfg)], make_policy("icount"))
        assert core.in_runahead(core.threads[0]) is False


class TestEntryExit:
    def test_memory_bound_thread_enters_and_exits(self):
        core = _runahead_core(("mcf",))
        core.run(4000)
        t = core.threads[0].stats
        assert t.runahead_entries > 0
        assert t.runahead_pseudo_retired > 0
        # Every exit pairs with an entry; at most one episode can still be
        # open when the run stops.
        assert t.runahead_entries - t.runahead_exits in (0, 1)

    def test_cache_resident_thread_rarely_enters(self):
        # Warmup absorbs the cold compulsory misses; in steady state eon
        # has essentially no long-latency loads (Table I: 0.00 per 1K).
        core = _runahead_core(("eon",))
        core.run(3000, warmup=1500)
        assert core.threads[0].stats.runahead_entries <= 1

    def test_refetched_entry_load_hits(self):
        """After an episode, fetch rewinds to the entry load, which must
        now hit (its fill completed) — committed keeps advancing."""
        core = _runahead_core(("mcf",))
        stats = core.run(4000)
        assert stats.threads[0].committed >= 4000
        # Runahead refetches everything it speculated past.
        assert stats.threads[0].fetched > stats.threads[0].committed

    def test_exit_flush_does_not_cancel_fills(self):
        """Runahead must *help* a miss-heavy thread even with SMTSIM-style
        squash semantics, because exit flushes keep fills alive."""
        cfg = scaled_config(num_threads=1, scale=16)
        assert cfg.memory.cancel_squashed_fills
        base = run_single("mcf", cfg, 4000, policy="icount", warmup=500)
        ahead = run_single("mcf", cfg, 4000, policy="runahead", warmup=500)
        assert ahead.cycles < base.cycles * 1.02


class TestAccounting:
    @pytest.mark.parametrize("policy", ["runahead", "mlp_runahead"])
    def test_resource_accounting_stays_exact(self, policy):
        core = _runahead_core(("mcf", "swim"), policy=policy)
        for step in range(6000):
            core.step()
            if step % 97 == 0:
                check_invariants(core)
        assert sum(t.runahead_entries for t in core.stats.threads) > 0, \
            "test never exercised runahead"
        check_invariants(core)

    def test_no_commit_credit_for_pseudo_retirement(self):
        """Pseudo-retired instructions must not count as committed: the
        committed total equals the per-thread trace positions reached."""
        core = _runahead_core(("mcf",))
        core.run(3000)
        ts = core.threads[0]
        in_flight = len(ts.window) + len(ts.fe_queue)
        assert ts.stats.committed <= ts.fetch_index - in_flight


class TestINVPropagation:
    def test_inv_never_reaches_memory(self):
        """INV loads skip the hierarchy: every recorded demand load must
        come from a non-INV execution (checked via the level stamp)."""
        core = _runahead_core(("mcf", "twolf"))
        seen_inv_levels = []
        orig_execute = core._execute

        def spy(di, cycle):
            orig_execute(di, cycle)
            if di.inv and di.is_load and di.level is not None:
                seen_inv_levels.append(di)

        core._execute = spy
        for _ in range(5000):
            core.step()
        assert not seen_inv_levels

    def test_dependents_of_entry_load_become_inv(self):
        core = _runahead_core(("mcf",))
        inv_seen = 0
        for _ in range(20000):
            core.step()
            ts = core.threads[0]
            if core.in_runahead(ts):
                inv_seen += sum(1 for di in ts.window if di.inv)
                if inv_seen > 5:
                    break
        assert inv_seen > 5, "runahead never propagated INV"


class TestMLPGating:
    def test_huge_threshold_degenerates_to_mlp_flush(self):
        cfg = scaled_config(num_threads=2, scale=16)
        stats, core = run_workload(
            ("mcf", "swim"), cfg, "mlp_runahead", 3000, warmup=500,
            runahead_threshold=10_000)
        assert all(t.runahead_entries == 0 for t in stats.threads)
        # The fallback path is MLP-aware flush: episodes stall fetch.
        assert sum(t.policy_stall_cycles for t in stats.threads) > 0

    def test_low_threshold_prefers_runahead(self):
        cfg = scaled_config(num_threads=2, scale=16)
        stats, _ = run_workload(("mcf", "swim"), cfg, "mlp_runahead", 3000,
                                warmup=500, runahead_threshold=1)
        assert sum(t.runahead_entries for t in stats.threads) > 0

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            MLPRunaheadPolicy(runahead_threshold=0)


class TestFastForwardEquivalence:
    @pytest.mark.parametrize("policy", ["runahead", "mlp_runahead"])
    def test_fast_forward_is_cycle_exact(self, policy):
        def final_state(fast_forward):
            cfg = scaled_config(num_threads=2, scale=16,
                                fast_forward=fast_forward)
            traces = [trace_for(n, cfg, slot=i)
                      for i, n in enumerate(("mcf", "galgel"))]
            core = RunaheadCore(cfg, traces, make_policy(policy))
            stats = core.run(1500)
            return (stats.cycles,
                    tuple(t.committed for t in stats.threads),
                    tuple(t.runahead_entries for t in stats.threads))

        assert final_state(True) == final_state(False)
