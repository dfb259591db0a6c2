"""CLI smoke tests: every subcommand runs and prints sane output."""

from pathlib import Path

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_policy_rejected(self):
        with pytest.raises(SystemExit):
            main(["compare", "-w", "mcf,swim", "-p", "not_a_policy",
                  "-c", "1000"])

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(SystemExit):
            main(["compare", "-w", "mcf,notabench", "-c", "1000"])

    def test_mismatched_workload_sizes_rejected(self):
        with pytest.raises(SystemExit):
            main(["compare", "-w", "mcf,swim", "-w", "mcf,swim,vpr,gap",
                  "-c", "1000"])


class TestBudgetsAndWorkers:
    """Budgets and worker counts below 1 are usage errors (exit 2)."""

    @pytest.mark.parametrize("argv", [
        ["jobs", "run", "-w", "mcf,swim", "-c", "0"],
        ["jobs", "run", "-w", "mcf,swim", "-j", "-1"],
        ["sweep", "memlat", "-w", "mcf,swim", "-c", "0"],
        ["figure", "fig9", "0"],
        ["compare", "-w", "mcf,swim", "-c", "0"],
        ["characterize", "-b", "mcf", "-c", "-3"],
        ["mlp-cdf", "-b", "mcf", "--commits", "0"],
        ["spec", "make", "-w", "mcf,swim", "-c", "0"],
        ["run", "spec.json", "--jobs", "0"],
    ])
    def test_rejected_with_a_usage_message(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err
        assert "must be at least 1, got" in err

    def test_a_non_integer_is_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["jobs", "run", "-w", "mcf,swim", "-c", "many"])
        assert exc.value.code == 2
        assert "invalid int value: 'many'" in capsys.readouterr().err

    def test_figure_passes_an_explicit_budget(self, monkeypatch):
        import repro.experiments.figures as figures
        seen = []
        monkeypatch.setattr(figures, "main",
                            lambda argv: seen.append(argv) or 0)
        assert main(["figure", "fig9", "1200"]) == 0
        assert seen == [["fig9", "1200"]]


class TestVersion:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("repro ")
        assert any(ch.isdigit() for ch in out)

    def test_source_fallback_matches_pyproject(self):
        # Installed or not, --version must report the distribution
        # version from pyproject.toml, never the content-key stamp.
        import tomllib

        from repro.cli import package_version
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        expected = tomllib.loads(pyproject.read_text())["project"]["version"]
        assert package_version() == expected


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "mcf" in out
        assert "mlp_flush" in out
        assert "runahead" in out
        assert "smt2_mlp_stall" in out   # scenarios are enumerated too

    def test_list_single_kind(self, capsys):
        assert main(["list", "policies"]) == 0
        out = capsys.readouterr().out
        assert "mlp_flush" in out
        assert "smt2_mlp_stall" not in out
        capsys.readouterr()
        assert main(["list", "scenario"]) == 0   # singular alias
        assert "smt2_mlp_stall" in capsys.readouterr().out

    @staticmethod
    def _marked_backends(capsys) -> list[str]:
        assert main(["list", "backends"]) == 0
        return [line.split()[0] for line in
                capsys.readouterr().out.splitlines()
                if line.endswith("[default]")]

    def test_list_backends_marks_the_engine_in_use(self, capsys):
        from repro.experiments.runner import default_backend
        assert self._marked_backends(capsys) == [default_backend()]

    def test_list_backends_marks_the_fallback(self, capsys, without_cext):
        assert self._marked_backends(capsys) == ["object"]

    def test_figure_footer_names_the_engine(self):
        from repro.experiments.figures import _engine_footer
        from repro.experiments.runner import default_backend
        from repro.jobs import counters
        before = counters()
        before["executed"] -= 1
        assert f"engine={default_backend()}," in _engine_footer(before)

    def test_figure_without_budget_runs_the_default_budget(
            self, monkeypatch, capsys):
        from repro.experiments import default_commits, figures
        budgets = []
        monkeypatch.setitem(figures.TARGETS, "stub",
                            (budgets.append, "a stub target"))
        assert figures.main(["stub"]) == 0
        assert budgets == [default_commits()]
        assert f"budget {default_commits()} " in capsys.readouterr().out

    def test_list_unknown_kind_fails_helpfully(self, capsys):
        assert main(["list", "widgets"]) == 2
        err = capsys.readouterr().err
        assert "widgets" in err
        assert "benchmarks" in err and "policies" in err \
            and "scenarios" in err

    def test_parse_policies_sees_runtime_registrations(self):
        from repro import registry
        from repro.cli import _parse_policies
        from repro.policies.icount import ICountPolicy

        class _CliTestPolicy(ICountPolicy):
            name = "cli_test_policy"

        try:
            registry.register("policies", _CliTestPolicy.name,
                              _CliTestPolicy)
            assert _parse_policies("icount,cli_test_policy") \
                == ("icount", "cli_test_policy")
        finally:
            registry.policies.unregister(_CliTestPolicy.name)

    def test_characterize_subset(self, capsys):
        assert main(["characterize", "-b", "mcf,twolf",
                     "-c", "3000"]) == 0
        out = capsys.readouterr().out
        assert "mcf" in out
        assert "class agreement" in out

    def test_compare(self, capsys):
        assert main(["compare", "-w", "mcf,twolf",
                     "-p", "icount,mlp_flush", "-c", "2000"]) == 0
        out = capsys.readouterr().out
        assert "STP" in out
        assert "ANTT" in out
        assert "mlp_flush" in out

    def test_mlp_cdf(self, capsys):
        assert main(["mlp-cdf", "-b", "swim", "-c", "3000"]) == 0
        out = capsys.readouterr().out
        assert "swim" in out
        assert "MLP distance" in out

    def test_figure_lists_targets_without_args(self, capsys):
        assert main(["figure"]) == 1
        out = capsys.readouterr().out
        assert "table1" in out

    def test_sweep_memlat(self, capsys):
        assert main(["sweep", "memlat", "-w", "mcf,twolf",
                     "-p", "mlp_flush", "-c", "1500"]) == 0
        out = capsys.readouterr().out
        assert "relative to ICOUNT" in out


class TestPerfProfileCommand:
    def test_profile_prints_top_frames(self, capsys):
        assert main(["perf", "profile", "st_icount", "--quick",
                     "--top", "5"]) == 0
        out = capsys.readouterr().out
        assert "cProfile: st_icount" in out
        assert "_run_until" in out

    def test_profile_unknown_scenario_fails_helpfully(self):
        with pytest.raises(SystemExit) as exc:
            main(["perf", "profile", "definitely_not_a_scenario"])
        assert "repro list scenarios" in str(exc.value)


class TestJobsCommands:
    def test_jobs_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main(["jobs"])

    def test_jobs_run_reports_batch(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["jobs", "run", "-w", "mcf,twolf", "-p",
                     "icount,flush", "-c", "1500", "-j", "2"]) == 0
        out = capsys.readouterr().out
        assert "STP=" in out
        assert "2 unique" in out
        assert "2 worker(s)" in out

    def test_jobs_run_then_status_then_clear(self, capsys, monkeypatch,
                                             tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["jobs", "run", "-w", "mcf,twolf", "-p", "icount",
                     "-c", "1500"]) == 0
        capsys.readouterr()
        assert main(["jobs", "status"]) == 0
        out = capsys.readouterr().out
        assert str(tmp_path) in out
        assert "entries:      3" in out    # 1 workload + 2 baselines
        assert main(["jobs", "cache-clear"]) == 0
        out = capsys.readouterr().out
        assert "removed" in out
        assert main(["jobs", "status"]) == 0
        assert "entries:      0" in capsys.readouterr().out

    def test_jobs_status_with_cache_disabled(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "0")
        assert main(["jobs", "status"]) == 0
        assert "disabled" in capsys.readouterr().out


class TestSpecCommands:
    def test_spec_make_show_run_roundtrip(self, capsys, monkeypatch,
                                          tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        path = tmp_path / "spec.json"
        assert main(["spec", "make", "-w", "mcf,twolf", "-p", "mlp_flush",
                     "-c", "1500", "--warmup", "300",
                     "-o", str(path)]) == 0
        out = capsys.readouterr().out
        assert "hash:" in out
        assert path.exists()

        assert main(["spec", "show", str(path)]) == 0
        out = capsys.readouterr().out
        assert "repro.runspec/2" in out
        assert "mcf-twolf:mlp_flush@1500" in out

        assert main(["run", str(path)]) == 0
        out = capsys.readouterr().out
        assert "STP=" in out
        assert "[jobs]" in out

        # Same spec again: everything resolves from the warm store.
        assert main(["run", str(path)]) == 0
        assert "1 cache hits, 0 simulated" in capsys.readouterr().out

    def test_spec_make_prints_json_without_output(self, capsys):
        assert main(["spec", "make", "-w", "mcf,twolf",
                     "-c", "1500"]) == 0
        out = capsys.readouterr().out
        assert '"schema": "repro.runspec/2"' in out
        # Unpinned unless asked: the spec runs on the default engine.
        assert '"backend"' not in out
        assert main(["spec", "make", "-w", "mcf,twolf", "-c", "1500",
                     "--backend", "object"]) == 0
        assert '"backend": "object"' in capsys.readouterr().out

    def test_spec_make_rejects_bad_policy(self):
        with pytest.raises(SystemExit):
            main(["spec", "make", "-w", "mcf,twolf", "-p", "nope",
                  "-c", "1500"])

    def test_run_rejects_missing_file(self, tmp_path):
        with pytest.raises(SystemExit, match="cannot read"):
            main(["run", str(tmp_path / "nope.json")])

    def test_run_rejects_invalid_spec(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": "repro.runspec/1"}')
        with pytest.raises(SystemExit, match="missing"):
            main(["run", str(bad)])

    def test_show_rejects_wrong_schema(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": "repro.runspec/999"}')
        with pytest.raises(SystemExit, match="schema"):
            main(["spec", "show", str(bad)])
