"""Unit tests for the repro.perf benchmark subsystem.

Covers the JSON schema round-trip, baseline merge semantics, the
compare/tolerance logic (including calibration normalization) and the
duel's statistic and sampling order without running full-size
simulations; smoke tests drive the real harness and the duel verb on
small scenarios.
"""

from __future__ import annotations

import json

import pytest

from repro import perf, registry
from repro.cli import main
from repro.perf import harness
from repro.perf.baselines import result_from_dict, result_to_dict
from repro.perf.harness import BenchResult, DuelResult, SuiteResult
from repro.pipeline.core import SMTCore


def _result(name="smt2_mlp_stall", wall=0.5, cycles=26_000,
            instructions=24_000, quick=False):
    return BenchResult(name=name, wall_s=wall, runs=[wall, wall * 1.1],
                       cycles=cycles, instructions=instructions,
                       quick=quick, policy="mlp_stall", threads=2,
                       commits=12_000)


def _suite(results=None, calibration=0.04, quick=False):
    return SuiteResult(results=results or [_result(quick=quick)],
                       calibration_s=calibration, quick=quick)


class TestSchemaRoundTrip:
    def test_result_round_trip(self):
        r = _result()
        back = result_from_dict(r.name, result_to_dict(r), quick=False)
        assert back.name == r.name
        assert back.wall_s == pytest.approx(r.wall_s)
        assert back.cycles == r.cycles
        assert back.instructions == r.instructions
        assert back.policy == r.policy
        assert back.threads == r.threads
        assert back.commits == r.commits

    def test_suite_doc_is_schema_stamped_and_json_clean(self):
        doc = perf.suite_to_doc(_suite())
        assert doc["schema"] == perf.SCHEMA
        assert "full" in doc["modes"]
        assert doc["modes"]["full"]["calibration_s"] == pytest.approx(0.04)
        json.dumps(doc)  # must be serializable as-is
        perf.validate_doc(doc)

    def test_write_then_load(self, tmp_path):
        path = tmp_path / "BENCH_perf.json"
        perf.write_baseline(_suite(), path)
        doc = perf.load_baseline(path)
        entry = doc["modes"]["full"]["scenarios"]["smt2_mlp_stall"]
        assert entry["cycles"] == 26_000

    def test_merge_keeps_other_mode(self, tmp_path):
        path = tmp_path / "BENCH_perf.json"
        perf.write_baseline(_suite(quick=False), path)
        perf.write_baseline(_suite([_result(quick=True)], quick=True), path)
        doc = perf.load_baseline(path)
        assert set(doc["modes"]) == {"full", "quick"}

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(perf.BaselineError, match="no baseline"):
            perf.load_baseline(tmp_path / "nope.json")

    def test_corrupt_json_raises(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(perf.BaselineError, match="not valid JSON"):
            perf.load_baseline(path)

    def test_wrong_schema_raises(self, tmp_path):
        path = tmp_path / "old.json"
        path.write_text(json.dumps({"schema": "repro.perf/0", "modes": {}}))
        with pytest.raises(perf.BaselineError, match="schema"):
            perf.load_baseline(path)

    def test_incomplete_entry_raises(self):
        doc = perf.suite_to_doc(_suite())
        del doc["modes"]["full"]["scenarios"]["smt2_mlp_stall"]["cycles"]
        with pytest.raises(perf.BaselineError, match="lacks 'cycles'"):
            perf.validate_doc(doc)

    def test_merge_keeps_per_mode_calibration(self, tmp_path):
        # Refreshing quick on a slower machine must not re-stamp the
        # retained full mode's calibration (it would skew normalization).
        path = tmp_path / "BENCH_perf.json"
        perf.write_baseline(_suite(calibration=0.02), path)
        perf.write_baseline(
            _suite([_result(quick=True)], calibration=0.08, quick=True),
            path)
        doc = perf.load_baseline(path)
        assert doc["modes"]["full"]["calibration_s"] == pytest.approx(0.02)
        assert doc["modes"]["quick"]["calibration_s"] == pytest.approx(0.08)


class TestCompareTolerance:
    def _baseline_doc(self, wall=0.5, calibration=0.04):
        return perf.suite_to_doc(_suite([_result(wall=wall)],
                                        calibration=calibration))

    def test_equal_is_ok(self):
        report = perf.compare(_suite(), self._baseline_doc())
        assert report.ok
        assert report.deltas[0].speedup == pytest.approx(1.0)

    def test_within_tolerance_is_ok(self):
        suite = _suite([_result(wall=0.6)])  # 20% slower < 25% gate
        report = perf.compare(suite, self._baseline_doc())
        assert report.ok
        assert not report.deltas[0].regressed

    def test_beyond_tolerance_regresses(self):
        suite = _suite([_result(wall=0.7)])  # 40% slower
        report = perf.compare(suite, self._baseline_doc())
        assert not report.ok
        assert [d.name for d in report.regressions] == ["smt2_mlp_stall"]

    def test_custom_tolerance(self):
        suite = _suite([_result(wall=0.6)])
        report = perf.compare(suite, self._baseline_doc(),
                              max_regression=0.10)
        assert not report.ok

    def test_calibration_normalizes_machine_speed(self):
        # 2x slower machine (calibration 0.08 vs 0.04) posting 2x the wall
        # time is NOT a regression once normalized.
        suite = _suite([_result(wall=1.0)], calibration=0.08)
        report = perf.compare(suite, self._baseline_doc())
        assert report.calibration_ratio == pytest.approx(2.0)
        assert report.ok
        assert report.deltas[0].speedup == pytest.approx(1.0)

    def test_work_drift_is_flagged(self):
        suite = _suite([_result(cycles=25_000)])
        report = perf.compare(suite, self._baseline_doc())
        assert report.deltas[0].work_drift

    def test_missing_scenario_listed_not_failed(self):
        suite = _suite([_result(), _result(name="brand_new")])
        report = perf.compare(suite, self._baseline_doc())
        assert report.missing == ["brand_new"]
        assert report.ok

    def test_geomean_speedup(self):
        baseline = perf.suite_to_doc(_suite(
            [_result(), _result(name="other", wall=0.4)]))
        suite = _suite([_result(wall=0.25),          # 2x faster
                        _result(name="other", wall=0.8)])  # 2x slower
        report = perf.compare(suite, baseline, max_regression=2.0)
        assert report.geomean_speedup == pytest.approx(1.0)

    def test_quick_mode_compares_quick_entries(self):
        baseline = perf.suite_to_doc(_suite([_result(quick=True)],
                                            quick=True))
        report = perf.compare(_suite([_result(quick=True)], quick=True),
                              baseline)
        assert report.mode == "quick"
        assert report.ok


class TestProfileVerb:
    def test_profile_scenario_miniature(self):
        report = perf.profile_scenario("st_icount", top=5, quick=True)
        assert report.total_calls > 0
        assert report.total_time > 0
        assert report.scenario.name == "st_icount"
        text = perf.format_report(report)
        assert "cProfile: st_icount" in text
        assert "_run_until" in text       # the hot loop must show up
        assert "repro perf compare" in text  # magnitude caveat stated

    def test_unknown_scenario_raises_key_error(self):
        import pytest
        with pytest.raises(KeyError):
            perf.profile_scenario("no_such_scenario", quick=True)

    def test_bad_sort_and_top_rejected(self):
        import pytest
        with pytest.raises(ValueError):
            perf.profile_scenario("st_icount", sort="ncalls", quick=True)
        with pytest.raises(ValueError):
            perf.profile_scenario("st_icount", top=0, quick=True)


class TestHarnessSmoke:
    def test_time_scenario_miniature(self):
        sc = perf.Scenario("mini_2t", ("mcf", "swim"), "icount",
                           commits=400, warmup=100, quick_commits=400)
        result = perf.time_scenario(sc, repeats=1)
        assert result.wall_s > 0
        assert result.cycles > 0
        assert result.instructions >= 400
        assert result.cycles_per_sec > 0
        assert len(result.runs) == 1

    def test_canonical_scenarios_are_unique_and_resolvable(self):
        names = [sc.name for sc in perf.CANONICAL_SCENARIOS]
        assert len(names) == len(set(names))
        assert perf.scenario_by_name(perf.CANONICAL_2T).num_threads == 2
        with pytest.raises(KeyError):
            perf.scenario_by_name("definitely_not_a_scenario")


class TestDuel:
    _SC = perf.Scenario("mini_2t", ("mcf", "swim"), "icount",
                        commits=400, warmup=100, quick_commits=400)

    def test_ratio_is_a_ratio_of_medians(self):
        result = DuelResult(
            name="synthetic", backends=("slow", "fast"),
            samples={"slow": [0.9, 3.0, 2.0], "fast": [1.0, 0.6, 1.2]},
            quick=True, rounds=3)
        assert result.median("slow") == 2.0
        assert result.median("fast") == 1.0
        assert result.ratio == 2.0        # best-of-3 would say 1.5

    def test_starting_backend_alternates(self, monkeypatch):
        order = []

        def fake_run(sc, quick=False, backend="object"):
            order.append(backend)

        monkeypatch.setattr(harness, "run_scenario", fake_run)
        result = perf.duel(self._SC, ("a", "b"), rounds=3)
        # Two untimed primes, then rounds started by a, b, a.
        assert order == ["a", "b", "a", "b", "b", "a", "a", "b"]
        assert {k: len(v) for k, v in result.samples.items()} \
            == {"a": 3, "b": 3}

    def test_refuses_identical_backends_and_no_rounds(self):
        with pytest.raises(ValueError, match="two distinct backends"):
            perf.duel(self._SC, ("object", "object"))
        with pytest.raises(ValueError, match="rounds must be at least 1"):
            perf.duel(self._SC, ("object", "cext"), rounds=0)

    def test_cli_json_smoke(self, capsys):
        # A second name for the object engine: the duel needs two
        # registered backends, and a host without a compiler has one.
        registry.backends.register("object_twin", SMTCore)
        try:
            assert main(["perf", "duel", "st_icount", "--quick", "-n", "1",
                         "--backends", "object,object_twin",
                         "--json"]) == 0
        finally:
            registry.backends.unregister("object_twin")
        doc = json.loads(capsys.readouterr().out)
        assert doc["backends"] == ["object", "object_twin"]
        assert doc["rounds"] == 1
        assert {k: len(v) for k, v in doc["samples_s"].items()} \
            == {"object": 1, "object_twin": 1}
        assert doc["median_s"] == {k: v[0]
                                   for k, v in doc["samples_s"].items()}
        assert doc["ratio"] > 0


class TestSchemaMismatchGuards:
    """The compare path and the golden regenerator refuse to run across
    schema/mode boundaries instead of silently comparing nothing."""

    def test_compare_missing_mode_raises(self):
        # Quick suite against a baseline holding only a "full" section:
        # pre-guard this passed vacuously (zero deltas => ok).
        full_only = perf.suite_to_doc(_suite([_result()]))
        quick_suite = _suite([_result(quick=True)], quick=True)
        with pytest.raises(perf.BaselineError, match="no 'quick' mode"):
            perf.compare(quick_suite, full_only)

    def test_golden_regenerator_refuses_wrong_schema(self, tmp_path):
        from repro.perf import golden

        fixture = tmp_path / "golden_stats.json"
        fixture.write_text(json.dumps({"schema": "repro.golden/0",
                                       "cells": {}}))
        assert golden.main([str(fixture)]) == 1
        # the stale fixture was left untouched
        assert json.loads(fixture.read_text())["schema"] == "repro.golden/0"

    def test_golden_regenerator_refuses_corrupt_fixture(self, tmp_path):
        from repro.perf import golden

        fixture = tmp_path / "golden_stats.json"
        fixture.write_text("{not json")
        assert golden.main([str(fixture)]) == 1
        assert fixture.read_text() == "{not json"

    def test_golden_schema_check_accepts_current(self, tmp_path):
        from repro.perf import golden

        fixture = tmp_path / "golden_stats.json"
        fixture.write_text(json.dumps({"schema": golden.GOLDEN_SCHEMA,
                                       "cells": {}}))
        golden.check_fixture_schema(fixture)  # must not raise
