"""Unit tests for the repro.perf tooling.

Covers the cProfile verb, the canonical scenario registry and the
duel's statistic and sampling order without running full-size
simulations; a smoke test drives the duel verb on a small scenario.
"""

from __future__ import annotations

import json

import pytest

from repro import perf, registry
from repro.cli import main
from repro.perf import harness
from repro.perf.harness import DuelResult
from repro.pipeline.core import SMTCore


class TestProfileVerb:
    def test_profile_scenario_miniature(self):
        report = perf.profile_scenario("st_icount", top=5, quick=True)
        assert report.total_calls > 0
        assert report.total_time > 0
        assert report.scenario.name == "st_icount"
        text = perf.format_report(report)
        assert "cProfile: st_icount" in text
        assert "_run_until" in text       # the hot loop must show up
        assert "perfbench" in text        # magnitude caveat stated

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
    """The golden regenerator refuses to run across schema boundaries
    instead of silently overwriting a fixture."""

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
