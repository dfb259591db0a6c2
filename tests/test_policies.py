"""Behavioural tests for every fetch policy."""

import pytest

from repro.config import scaled_config
from repro.experiments.runner import run_workload, trace_for
from repro.pipeline import SMTCore
from repro.policies import (
    ALTERNATIVES,
    MAIN_COMPARISON,
    POLICIES,
    DCRAPolicy,
    make_policy,
)


class TestRegistry:
    def test_paper_and_extension_policies_registered(self):
        # 11 paper policies + 8 related-work/extension policies.
        assert len(POLICIES) == 19

    def test_main_comparison_is_the_papers_six(self):
        assert MAIN_COMPARISON == ("icount", "stall", "pred_stall",
                                   "mlp_stall", "flush", "mlp_flush")

    def test_alternatives_are_the_papers_five(self):
        assert ALTERNATIVES == ("flush", "mlp_flush", "binary_mlp_flush",
                                "mlp_flush_rs", "binary_mlp_flush_rs")

    def test_make_policy_unknown_name(self):
        with pytest.raises(KeyError):
            make_policy("round_robin")

    def test_policy_names_match_keys(self):
        for name, cls in POLICIES.items():
            assert cls.name == name


@pytest.mark.parametrize("policy", sorted(POLICIES))
class TestEveryPolicyRuns:
    def test_two_thread_progress(self, policy):
        """Every policy must complete a small mixed workload without
        deadlock and with both threads making progress.  The floor is
        deliberately low: mcf crawls next to an ILP thread (its in-mix
        IPC is ~0.05, as in the paper's Figure 11), so the check is
        about starvation-freedom, not speed."""
        cfg = scaled_config(num_threads=2, scale=16)
        stats, _ = run_workload(("mcf", "twolf"), cfg, policy, 2500,
                                warmup=500)
        assert all(t.committed > 40 for t in stats.threads)
        assert stats.cycles > 0


class TestStallPolicies:
    def test_stall_fetch_stops_on_detected_miss(self):
        cfg = scaled_config(num_threads=2, scale=16)
        stats, _ = run_workload(("swim", "twolf"), cfg, "stall", 3000,
                                warmup=500)
        assert stats.threads[0].policy_stall_cycles > 0

    def test_icount_never_policy_stalls(self):
        cfg = scaled_config(num_threads=2, scale=16)
        stats, _ = run_workload(("swim", "twolf"), cfg, "icount", 3000,
                                warmup=500)
        assert all(t.policy_stall_cycles == 0 for t in stats.threads)

    def test_pred_stall_uses_front_end_prediction(self):
        """Predictive stall must begin stalling before detection could:
        more stall cycles than plain stall on a predictable-miss thread."""
        cfg = scaled_config(num_threads=2, scale=16)
        pred, _ = run_workload(("swim", "twolf"), cfg, "pred_stall", 3000,
                               warmup=1000)
        assert pred.threads[0].policy_stall_cycles > 0

    def test_stall_policies_do_not_flush(self):
        cfg = scaled_config(num_threads=2, scale=16)
        for policy in ("stall", "pred_stall", "mlp_stall"):
            stats, _ = run_workload(("swim", "twolf"), cfg, policy, 2000,
                                    warmup=500)
            assert all(t.flushes == 0 for t in stats.threads), policy


class TestFlushPolicies:
    def test_flush_squashes_on_miss(self):
        cfg = scaled_config(num_threads=2, scale=16)
        stats, _ = run_workload(("swim", "twolf"), cfg, "flush", 3000,
                                warmup=500)
        assert stats.threads[0].flushes > 0
        assert stats.threads[0].squashed > 0

    def test_mlp_flush_keeps_the_mlp_window(self):
        """MLP-aware flush must squash fewer instructions per flush than
        blind flush on an MLP-rich thread (it keeps the predicted window)."""
        cfg = scaled_config(num_threads=2, scale=16)
        blind, _ = run_workload(("swim", "twolf"), cfg, "flush", 4000,
                                warmup=1500)
        aware, _ = run_workload(("swim", "twolf"), cfg, "mlp_flush", 4000,
                                warmup=1500)
        t_blind, t_aware = blind.threads[0], aware.threads[0]
        assert t_blind.flushes > 0
        if t_aware.flushes:
            per_flush_aware = t_aware.squashed / t_aware.flushes
            per_flush_blind = t_blind.squashed / t_blind.flushes
            assert per_flush_aware <= per_flush_blind * 1.5

    def test_flush_on_ilp_thread_is_rare(self):
        cfg = scaled_config(num_threads=2, scale=16)
        stats, _ = run_workload(("crafty", "twolf"), cfg, "flush", 3000,
                                warmup=1000)
        for t in stats.threads:
            assert t.squashed < t.committed * 0.2


class TestCOT:
    def test_all_threads_stalled_still_progress(self):
        """Two MLP-heavy threads under pred_stall: COT must prevent fetch
        deadlock when both are stalled on long-latency loads."""
        cfg = scaled_config(num_threads=2, scale=16)
        stats, _ = run_workload(("swim", "applu"), cfg, "pred_stall", 2500,
                                warmup=500)
        assert all(t.committed > 200 for t in stats.threads)


class TestStaticPartition:
    def test_per_thread_share_enforced(self):
        cfg = scaled_config(num_threads=2, scale=16)
        traces = [trace_for(n, cfg, slot=i)
                  for i, n in enumerate(("swim", "mcf"))]
        core = SMTCore(cfg, traces, make_policy("static"))
        share = cfg.rob_size // 2
        for step in range(5000):
            core.step()
            for ts in core.threads:
                assert ts.rob_count <= share
                assert ts.lsq_count <= cfg.lsq_size // 2
                assert ts.int_regs <= cfg.int_rename_regs // 2
                assert ts.fp_regs <= cfg.fp_rename_regs // 2


class TestDCRA:
    def test_slow_threads_get_larger_share(self):
        cfg = scaled_config(num_threads=2, scale=16)
        traces = [trace_for(n, cfg, slot=i)
                  for i, n in enumerate(("swim", "twolf"))]
        policy = DCRAPolicy(slow_weight=2.0)
        core = SMTCore(cfg, traces, policy)
        slow, fast = core.threads
        slow.outstanding_misses = 1
        fast.outstanding_misses = 0
        slow_limits = core.partition_limits(slow)
        fast_limits = core.partition_limits(fast)
        for s, f in zip(slow_limits, fast_limits):
            assert s == pytest.approx(2 * f)

    def test_equal_classes_split_evenly(self):
        cfg = scaled_config(num_threads=2, scale=16)
        traces = [trace_for(n, cfg, slot=i)
                  for i, n in enumerate(("swim", "twolf"))]
        policy = DCRAPolicy()
        core = SMTCore(cfg, traces, policy)
        a, b = core.threads
        assert core.partition_limits(a) == core.partition_limits(b)

    def test_rejects_weight_below_one(self):
        with pytest.raises(ValueError):
            DCRAPolicy(slow_weight=0.5)

    def test_dcra_caps_are_respected(self):
        cfg = scaled_config(num_threads=2, scale=16)
        traces = [trace_for(n, cfg, slot=i)
                  for i, n in enumerate(("swim", "mcf"))]
        policy = DCRAPolicy(slow_weight=2.0)
        core = SMTCore(cfg, traces, policy)
        for step in range(4000):
            core.step()
            if step % 53 == 0:
                weights = [2.0 if t.outstanding_misses else 1.0
                           for t in core.threads]
                total = sum(weights)
                for ts, w in zip(core.threads, weights):
                    # +decode_width slack: classification may change between
                    # the dispatch-time check and this observation.
                    cap = cfg.rob_size * w / total + cfg.decode_width
                    assert ts.rob_count <= cap


#: (policy, keyword, value) a constructor must refuse.  Each check is
#: written ``not x >= bound``, so NaN fails it; DCRA also refuses inf
#: (a fast thread beside a slow one would get no share).
_OUT_OF_RANGE = [
    ("dcra", "slow_weight", float("nan")),
    ("dcra", "slow_weight", float("inf")),
    ("mlp_dcra", "slow_weight", float("nan")),
    ("mlp_dcra", "slow_weight", float("inf")),
    ("cgmt", "switch_penalty", float("nan")),
    ("cgmt", "quantum", float("nan")),
    ("learning", "epoch_cycles", float("nan")),
    ("dg", "threshold", float("nan")),
    ("pdg", "threshold", float("nan")),
    ("mlp_runahead", "runahead_threshold", float("nan")),
]


@pytest.mark.parametrize(("policy", "key", "value"), _OUT_OF_RANGE,
                         ids=[f"{p}-{k}-{v}" for p, k, v in _OUT_OF_RANGE])
def test_constructor_refuses_non_finite_bounds(policy, key, value):
    with pytest.raises(ValueError):
        make_policy(policy, **{key: value})


class TestResourceStallAlternatives:
    def test_mlp_flush_rs_flushes_on_resource_stall(self):
        cfg = scaled_config(num_threads=2, scale=16)
        stats, core = run_workload(("swim", "applu"), cfg, "mlp_flush_rs",
                                   3000, warmup=500)
        # The machine saturates with two streaming threads, so resource
        # stalls (and therefore flushes) must have happened.
        assert sum(t.flushes for t in stats.threads) > 0

    def test_binary_alternatives_use_binary_predictor(self):
        cfg = scaled_config(num_threads=2, scale=16)
        stats, _ = run_workload(("swim", "twolf"), cfg, "binary_mlp_flush",
                                3000, warmup=500)
        assert stats.cycles > 0
