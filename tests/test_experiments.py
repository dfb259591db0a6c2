"""Tests for the experiment harness (runner, baselines, drivers)."""

import pytest

from repro.config import scaled_config
from repro.experiments import (
    clear_baseline_cache,
    evaluate_workload,
    run_single,
    single_thread_baseline,
    trace_for,
)
from repro.experiments.profile import characterization_budget
from repro.experiments.runner import stable_seed
from repro.metrics import stp as stp_fn

CFG = scaled_config(num_threads=2, scale=16)


class TestSeedsAndTraces:
    def test_stable_seed_is_name_determined(self):
        assert stable_seed("swim") == stable_seed("swim")
        assert stable_seed("swim") != stable_seed("mcf")

    def test_trace_slots_have_disjoint_address_spaces(self):
        t0 = trace_for("swim", CFG, slot=0)
        t1 = trace_for("swim", CFG, slot=1)
        assert t0.base != t1.base
        a0 = {t0.get(i).addr for i in range(400) if t0.get(i).addr}
        a1 = {t1.get(i).addr for i in range(400) if t1.get(i).addr}
        assert not (a0 & a1)


class TestSingleThreadBaseline:
    def test_baseline_is_cached(self):
        clear_baseline_cache()
        a = single_thread_baseline("gap", CFG, 2000)
        b = single_thread_baseline("gap", CFG, 2000)
        assert a is b

    def test_distinct_budgets_distinct_entries(self):
        clear_baseline_cache()
        a = single_thread_baseline("gap", CFG, 2000)
        b = single_thread_baseline("gap", CFG, 2500)
        assert a is not b

    def test_commit_cycles_monotone(self):
        clear_baseline_cache()
        r = single_thread_baseline("gap", CFG, 2000)
        cc = r.commit_cycles
        assert len(cc) >= 2000
        assert all(b >= a for a, b in zip(cc, cc[1:]))

    def test_cpi_at_matches_direct_ratio(self):
        clear_baseline_cache()
        r = single_thread_baseline("gap", CFG, 2000)
        assert r.cpi_at(1000) == pytest.approx(r.commit_cycles[999] / 1000)

    def test_cpi_at_rejects_zero(self):
        clear_baseline_cache()
        r = single_thread_baseline("gap", CFG, 1500)
        with pytest.raises(ValueError):
            r.cpi_at(0)


class TestRunSingle:
    def test_warmup_discards_cold_start(self):
        cold = run_single("gap", CFG, 2000, warmup=0)
        warm = run_single("gap", CFG, 2000, warmup=1500)
        # Warmed measurement should never be slower than the cold one.
        assert warm.ipc(0) >= cold.ipc(0) * 0.95

    def test_commit_cycle_trace_is_a_real_field(self):
        plain = run_single("gap", CFG, 1500, warmup=0)
        assert plain.commit_cycle_trace is None
        traced = run_single("gap", CFG, 1500, warmup=0,
                            record_commits=True)
        assert traced.commit_cycle_trace is not None
        assert len(traced.commit_cycle_trace) >= 1500


class TestEvaluateWorkload:
    def test_result_shape(self):
        clear_baseline_cache()
        r = evaluate_workload(("mcf", "twolf"), CFG, "icount", 2000,
                              warmup=500)
        assert r.names == ("mcf", "twolf")
        assert len(r.st_cpis) == 2
        assert len(r.mt_cpis) == 2
        assert r.stp == pytest.approx(stp_fn(r.st_cpis, r.mt_cpis))
        assert 0 < r.stp <= 2.0 + 1e-6
        assert r.antt >= 0.9

    def test_wrong_thread_count_rejected(self):
        with pytest.raises(ValueError):
            evaluate_workload(("mcf",), CFG, "icount", 1000)

    def test_multithreading_slows_each_program(self):
        clear_baseline_cache()
        r = evaluate_workload(("swim", "mcf"), CFG, "icount", 2500,
                              warmup=500)
        # Each program's MT CPI should be at least ~its ST CPI.
        for st, mt in zip(r.st_cpis, r.mt_cpis):
            assert mt >= st * 0.9


class TestCharacterizationBudget:
    def test_burst_benchmarks_get_bigger_budgets(self):
        assert characterization_budget("art", 10_000) > 10_000

    def test_stream_benchmarks_keep_default(self):
        assert characterization_budget("swim", 10_000) == 10_000

    def test_budget_is_capped(self):
        assert characterization_budget("gcc", 10_000) <= 150_000


class TestSweepBudget:
    @pytest.mark.parametrize("sweep", ["memory_latency_sweep",
                                       "window_size_sweep"])
    def test_zero_budget_is_refused_not_defaulted(self, sweep, monkeypatch):
        import repro.experiments.sweeps as sweeps

        def no_default():
            raise AssertionError("the default budget replaced an explicit 0")

        monkeypatch.setattr(sweeps, "default_commits", no_default)
        with pytest.raises(ValueError, match="max_commits must be >= 1"):
            getattr(sweeps, sweep)([("mcf", "swim")], ("icount",),
                                   max_commits=0)
