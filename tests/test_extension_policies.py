"""Behavioural tests for the related-work and future-work policies:
DG/PDG gating, learning-based partitioning, MLP-aware DCRA, and CGMT."""

from types import SimpleNamespace

import pytest

from repro.config import scaled_config
from repro.experiments.runner import run_workload, trace_for
from repro.pipeline import SMTCore
from repro.policies import (
    CGMTPolicy,
    DataGatingPolicy,
    LearningPartitionPolicy,
    MLPAwareDCRAPolicy,
    PredictiveDataGatingPolicy,
    make_policy,
)


def _core(names, policy, **kwargs):
    cfg = scaled_config(num_threads=len(names), scale=16)
    traces = [trace_for(n, cfg, slot=i) for i, n in enumerate(names)]
    pol = make_policy(policy, **kwargs) if isinstance(policy, str) else policy
    return SMTCore(cfg, traces, pol)


class TestDataGating:
    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            DataGatingPolicy(threshold=0)
        with pytest.raises(ValueError):
            PredictiveDataGatingPolicy(threshold=0)

    def test_gates_thread_with_many_outstanding_misses(self):
        core = _core(("swim", "twolf"), "dg", threshold=2)
        policy = core.policy
        miss_thread = core.threads[0]
        miss_thread.outstanding_misses = 3
        order = policy.fetch_order(core.cycle)
        assert all(ts.tid != 0 for ts, _ in order)
        miss_thread.outstanding_misses = 1
        order = policy.fetch_order(core.cycle)
        assert any(ts.tid == 0 for ts, _ in order)

    def test_dg_progress_on_memory_mix(self):
        stats, _ = run_workload(
            ("swim", "applu"), scaled_config(num_threads=2, scale=16),
            "dg", 2500, warmup=500)
        assert all(t.committed > 200 for t in stats.threads)

    def test_pdg_tracks_predicted_misses_in_flight(self):
        core = _core(("swim", "twolf"), "pdg", threshold=1)
        for _ in range(4000):
            core.step()
        policy = core.policy
        # The streaming thread's loads train the predictor; gating must
        # have fired at least once (i.e. the in-flight set saw members).
        assert policy._miss_pred[0].lookups > 0

    def test_pdg_inflight_set_stays_bounded(self):
        core = _core(("mcf", "swim"), "pdg", threshold=2)
        for _ in range(6000):
            core.step()
        for inflight in core.policy._inflight:
            live = [di for di in inflight
                    if not di.squashed and not di.completed]
            assert len(live) <= 3 * core.cfg.rob_size


class TestLearningPartition:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            LearningPartitionPolicy(epoch_cycles=5)
        with pytest.raises(ValueError):
            LearningPartitionPolicy(step=0.9)
        with pytest.raises(ValueError):
            LearningPartitionPolicy(metric="magic")
        with pytest.raises(ValueError):
            LearningPartitionPolicy(min_share=0.0)

    def test_shares_start_equal_and_stay_normalized(self):
        core = _core(("mcf", "twolf"), "learning", epoch_cycles=200)
        policy = core.policy
        assert policy.shares == pytest.approx([0.5, 0.5])
        for _ in range(8000):
            core.step()
        assert sum(policy.shares) == pytest.approx(1.0)
        assert all(s >= policy.min_share - 1e-9 for s in policy.shares)

    def test_hill_climbing_runs_epochs(self):
        core = _core(("mcf", "swim"), "learning", epoch_cycles=150)
        for _ in range(8000):
            core.step()
        policy = core.policy
        assert policy.epochs_run >= 3
        assert policy.adopted, "no share vector was ever adopted"

    def test_hmean_metric_variant_progresses(self):
        stats, _ = run_workload(
            ("mcf", "twolf"), scaled_config(num_threads=2, scale=16),
            "learning", 2500, warmup=500, metric="hmean",
            epoch_cycles=300)
        assert all(t.committed > 200 for t in stats.threads)

    def test_share_caps_are_enforced(self):
        core = _core(("swim", "mcf"), "learning", epoch_cycles=500)
        cfg = core.cfg
        for step in range(5000):
            core.step()
            if step % 67 == 0:
                for ts in core.threads:
                    cap = (cfg.rob_size * core.policy.shares[ts.tid]
                           + cfg.decode_width)
                    assert ts.rob_count <= cap


class TestMLPAwareDCRA:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            MLPAwareDCRAPolicy(ema_alpha=0.0)
        with pytest.raises(ValueError):
            MLPAwareDCRAPolicy(slow_weight=0.5)

    def test_no_mlp_slow_thread_gets_no_bonus(self):
        core = _core(("mcf", "twolf"), "mlp_dcra")
        slow, fast = core.threads
        slow.outstanding_misses = 1
        # EMA is zero: the slow thread has shown no MLP, so shares match.
        assert core.partition_limits(slow) == pytest.approx(
            core.partition_limits(fast))

    def test_high_mlp_slow_thread_gets_full_bonus(self):
        # One detection whose predicted distance spans the whole LLSR,
        # at ema_alpha 1, sets the need to 1.0 through on_ll_detect,
        # which writes the weight the shares read.
        core = _core(("swim", "twolf"), "mlp_dcra", slow_weight=2.0,
                     ema_alpha=1.0)
        policy = core.policy
        slow, fast = core.threads
        slow.outstanding_misses = 1
        slow.mlp_pred.train(7, core.cfg.llsr_length - 1)
        policy.on_ll_detect(SimpleNamespace(instr=SimpleNamespace(pc=7)),
                            slow)
        assert policy._mlp_need[0] == 1.0
        s_lim = core.partition_limits(slow)
        f_lim = core.partition_limits(fast)
        for s, f in zip(s_lim, f_lim):
            assert s == pytest.approx(2 * f)

    def test_ema_updates_on_detection(self):
        core = _core(("swim", "twolf"), "mlp_dcra")
        for _ in range(4000):
            core.step()
        # swim's clustered stream misses must have produced nonzero need.
        assert core.policy._mlp_need[0] > 0.0

    def test_progress_on_mlp_mix(self):
        stats, _ = run_workload(
            ("swim", "galgel"), scaled_config(num_threads=2, scale=16),
            "mlp_dcra", 2500, warmup=500)
        assert all(t.committed > 200 for t in stats.threads)


class TestCGMT:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            CGMTPolicy(switch_penalty=-1)
        with pytest.raises(ValueError):
            CGMTPolicy(quantum=0)

    def test_only_active_thread_fetches(self):
        core = _core(("swim", "twolf"), "cgmt")
        policy = core.policy
        order = policy.fetch_order(core.cycle)
        assert len(order) <= 1
        if order:
            assert order[0][0].tid == policy.active_tid

    def test_switches_happen_on_memory_mix(self):
        core = _core(("mcf", "swim"), "cgmt")
        for _ in range(6000):
            core.step()
        assert core.policy.switches > 1

    def test_quantum_prevents_starvation(self):
        """A never-missing co-runner must not monopolize the machine."""
        stats, core = run_workload(
            ("twolf", "mcf"), scaled_config(num_threads=2, scale=16),
            "cgmt", 3000, warmup=500, quantum=800)
        assert all(t.committed > 100 for t in stats.threads)

    def test_switch_penalty_blocks_incoming_fetch(self):
        core = _core(("mcf", "swim"), "cgmt", switch_penalty=50)
        policy = core.policy
        before = policy.switches
        # Drive until a switch occurs, then check the incoming thread's
        # fetch hold.
        for _ in range(20000):
            core.step()
            if policy.switches > before:
                break
        assert policy.switches > before, "no switch ever happened"

    def test_mlp_cgmt_waits_for_the_burst(self):
        """MLP-aware CGMT must stall-switch *after* filling the window:
        the switched-out thread keeps its post-miss instructions, so it
        squashes fewer instructions than plain CGMT on an MLP thread."""
        cfg = scaled_config(num_threads=2, scale=16)
        plain, _ = run_workload(("swim", "twolf"), cfg, "cgmt", 2500,
                                warmup=500)
        aware, _ = run_workload(("swim", "twolf"), cfg, "mlp_cgmt", 2500,
                                warmup=500)
        committed = plain.threads[0].committed
        assert aware.threads[0].squashed <= plain.threads[0].squashed \
            or aware.threads[0].committed >= committed

    def test_single_thread_never_switches(self):
        core = _core(("mcf",), "cgmt")
        for _ in range(3000):
            core.step()
        assert core.policy.switches == 0
        assert core.policy.active_tid == 0
