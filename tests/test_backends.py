"""Per-RunSpec engine-backend selection (the ``backends`` registry kind).

Covers the ``backends`` registry entries and core resolution precedence
(a policy's ``core_class`` beats the requested backend; an unpinned run
gets the fastest registered engine, falling back to ``object``), the
``repro.runspec/2`` schema — backend validation, serialization that
writes only a pinned backend, v1 document compatibility — the
content-hash stability guarantee (hashes are byte-identical to the
pre-backend scheme, pinned by literal, whatever the backend), the
baseline mode naming for per-backend perf sections, and end-to-end
execution equivalence of the engines through the public
:class:`repro.api.Session` entry points.
"""

from __future__ import annotations

import pytest

from repro import registry
from repro.api import RunSpec, Session, SpecError
from repro.config import scaled_config
from repro.experiments.runner import core_for, default_backend
from repro.jobs import JobSpec
from repro.perf.baselines import BaselineError, mode_name, validate_doc
from repro.pipeline import SMTCore, SoACore
from repro.pipeline import cext as cext_mod
from repro.pipeline.cext import CextCore, cext_status, load_cext_core
from repro.policies import make_policy
from repro.runahead import RunaheadCore

CFG2 = scaled_config(num_threads=2, scale=16)

#: The compiled backend exists only where the lazy toolchain probe and
#: build succeed; everything cext-specific is gated on this.
_CEXT_BUILDABLE = load_cext_core() is not None
needs_cext = pytest.mark.skipif(
    not _CEXT_BUILDABLE, reason="cext backend not buildable here")


def _spec(backend=None, **kw):
    kw.setdefault("max_commits", 800)
    kw.setdefault("warmup", 400)
    return RunSpec(workload=("mcf", "swim"), config=CFG2,
                   policy="mlp_flush", backend=backend, **kw)


class TestRegistry:
    def test_both_engines_registered(self):
        assert set(registry.backends.names()) >= {"object", "soa"}
        assert registry.backends.get("object") is SMTCore
        assert registry.backends.get("soa") is SoACore

    def test_kind_aliases(self):
        assert registry.canonical_kind("backend") == "backends"
        assert registry.canonical_kind("backends") == "backends"
        assert "backends" in registry.KINDS
        assert registry.get("backend", "soa") is SoACore

    def test_unknown_backend_error_names_known(self):
        with pytest.raises(registry.RegistryError) as exc:
            registry.backends.get("simd")
        assert "soa" in str(exc.value)


class TestCextRegistration:
    @needs_cext
    def test_registered_when_buildable(self):
        assert "cext" in registry.backends
        assert registry.backends.get("cext") is CextCore
        assert issubclass(CextCore, SoACore)
        assert cext_status().startswith("available")

    @needs_cext
    def test_core_resolution(self):
        assert core_for(make_policy("mlp_flush"), "cext") is CextCore
        # A policy-owned core still beats the requested backend.
        assert core_for(make_policy("runahead"), "cext") is RunaheadCore

    def test_disabled_probe_omits_the_entry(self, monkeypatch):
        # Simulate a toolchain-less host: with the probe reporting
        # unavailable, a fresh backends registry lists exactly the two
        # pure-Python engines and load_cext_core() degrades to None
        # without raising.
        monkeypatch.setenv("REPRO_CEXT", "0")
        monkeypatch.setattr(cext_mod, "_state", None)
        assert load_cext_core() is None
        assert cext_status() == "unavailable: disabled by REPRO_CEXT=0"
        fresh = registry.Registry("backend", registry._load_backends)
        assert fresh.names() == ("object", "soa")
        monkeypatch.setattr(cext_mod, "_state", None)  # re-probe later

    @needs_cext
    def test_driver_falls_back_without_engine(self, monkeypatch):
        # Belt and braces: a CextCore instantiated while the engine is
        # unavailable must still simulate (via the SoA loop), because a
        # spec naming the backend can outlive the probe result.
        from repro.perf.golden import golden_matrix, snapshot_cell
        cell = min(golden_matrix(), key=lambda sc: sc.num_threads)
        expected = snapshot_cell(cell, backend="soa")
        monkeypatch.setattr(cext_mod, "_state", (None, "forced off"))
        assert snapshot_cell(cell, backend="cext") == expected


class TestCoreResolution:
    def test_default_is_fastest_registered_engine(self):
        expected = "cext" if _CEXT_BUILDABLE else "object"
        assert default_backend() == expected
        assert core_for(make_policy("icount")) is \
            registry.backends.get(expected)
        assert core_for(make_policy("icount"), "object") is SMTCore

    def test_default_is_object_engine(self, without_cext):
        # Without the compiled engine (no toolchain, or REPRO_CEXT=0)
        # an unpinned run falls back to the object engine.
        assert default_backend() == "object"
        assert core_for(make_policy("icount")) is SMTCore

    def test_soa_backend_selects_soa_core(self):
        assert core_for(make_policy("mlp_flush"), "soa") is SoACore

    def test_policy_core_class_beats_backend(self):
        # Runahead is only implemented on its own engine; asking for the
        # soa backend must not desynchronize it.
        assert core_for(make_policy("runahead"), "soa") is RunaheadCore

    def test_unknown_backend_raises(self):
        with pytest.raises(registry.RegistryError):
            core_for(make_policy("icount"), "simd")


class TestSpecValidation:
    def test_unknown_backend_refused(self):
        with pytest.raises(SpecError, match="backend"):
            _spec(backend="simd")

    def test_non_string_backend_refused(self):
        with pytest.raises(SpecError):
            _spec(backend=7)


class TestSerialization:
    def test_default_backend_serializes_away(self):
        doc = _spec().to_doc()
        assert doc["schema"] == "repro.runspec/2"
        assert "backend" not in doc

    def test_non_default_backend_serializes(self):
        doc = _spec(backend="soa").to_doc()
        assert doc["backend"] == "soa"

    def test_pinned_object_backend_serializes(self):
        assert _spec(backend="object").to_doc()["backend"] == "object"

    @pytest.mark.parametrize("backend", ["object", "soa"])
    def test_json_roundtrip(self, backend):
        spec = _spec(backend=backend)
        again = RunSpec.from_json(spec.to_json())
        assert again == spec
        assert again.backend == backend

    def test_v1_document_still_loads(self):
        doc = _spec().to_doc()
        doc["schema"] = "repro.runspec/1"
        spec = RunSpec.from_doc(doc)
        assert spec == _spec()
        assert spec.backend is None

    def test_v1_document_with_backend_refused(self):
        # A /1-stamped doc carrying the /2-only field is mis-stamped,
        # not forward-compatible.
        doc = _spec(backend="soa").to_doc()
        doc["schema"] = "repro.runspec/1"
        with pytest.raises(SpecError, match="backend"):
            RunSpec.from_doc(doc)

    def test_str_names_non_default_backend(self):
        assert str(_spec()).endswith("@800")
        assert str(_spec(backend="soa")).endswith("@800+soa")
        assert str(_spec(backend="object")).endswith("@800+object")


class TestHashStability:
    #: ``_spec()``'s content hash under the pre-backend (PR 6) scheme.
    #: The default backend must keep producing exactly this value —
    #: warm result stores and committed hashes must survive the /2 bump.
    _PINNED = ("00e1f993ce0ccb4ff30e7ff366a60e25"
               "277d1f5f43e52911df092b62e7f445a0")

    def test_default_backend_hash_unchanged(self):
        assert _spec().content_hash() == self._PINNED

    @pytest.mark.parametrize("backend", ["object", "soa"])
    def test_pinned_backend_keeps_the_unpinned_hash(self, backend):
        # The backend says how a run executes, not what it computes:
        # every engine's run of one experiment shares one store entry,
        # and pinned specs equal (and hash like) the unpinned one.
        spec = _spec(backend=backend)
        assert spec.content_hash() == self._PINNED
        assert spec == _spec()
        assert hash(spec) == hash(_spec())

    @needs_cext
    def test_cext_hash_is_the_unpinned_hash(self):
        # The toolchain, compiler version and probe outcome must not
        # leak into a key either.
        assert _spec(backend="cext").content_hash() == self._PINNED

    @pytest.mark.parametrize("backend", ["object", "soa"])
    def test_content_hash_matches_jobspec_cache_key(self, backend):
        spec = _spec(backend=backend)
        assert spec.content_hash() == JobSpec.from_runspec(spec).cache_key()


class TestBaselineModes:
    def test_mode_names(self):
        assert mode_name(False) == "full"
        assert mode_name(True) == "quick"
        assert mode_name(False, "soa") == "full-soa"
        assert mode_name(True, "soa") == "quick-soa"
        assert mode_name(False, "cext") == "full-cext"
        assert mode_name(True, "cext") == "quick-cext"

    def test_validate_accepts_suffixed_modes(self):
        entry = {"wall_s": 1.0, "cycles": 10, "instructions": 5}
        doc = {"schema": "repro.perf/1",
               "modes": {"full-soa": {"calibration_s": 0.1,
                                      "scenarios": {"s": dict(entry)}}}}
        validate_doc(doc)  # must not raise

    def test_validate_rejects_unknown_mode_base(self):
        doc = {"schema": "repro.perf/1",
               "modes": {"warm-soa": {"calibration_s": 0.1,
                                      "scenarios": {}}}}
        with pytest.raises(BaselineError, match="unknown mode"):
            validate_doc(doc)


class TestGoldenCli:
    def test_regeneration_refuses_non_default_backend(self, tmp_path,
                                                      capsys):
        from repro.perf.golden import main
        out = tmp_path / "golden.json"
        assert main(["--backend", "soa", str(out)]) == 2
        assert not out.exists()
        assert "--check" in capsys.readouterr().err

    def test_check_requires_a_fixture(self, tmp_path, capsys):
        from repro.perf.golden import main
        missing = tmp_path / "nope.json"
        assert main(["--check", "--backend", "soa", str(missing)]) == 1
        assert "no golden fixture" in capsys.readouterr().err


class TestExecutionEquivalence:
    def _small(self, backend):
        return RunSpec(workload=("mcf", "swim"), config=CFG2,
                       policy="mlp_flush", max_commits=600, warmup=200,
                       backend=backend)

    def test_simulate_is_backend_independent(self):
        stats_o, core_o = Session(store=None).simulate(self._small("object"))
        stats_s, core_s = Session(store=None).simulate(self._small("soa"))
        assert type(core_o) is SMTCore
        assert type(core_s) is SoACore
        assert stats_o.cycles == stats_s.cycles
        assert core_o.cycle == core_s.cycle
        assert [t.committed for t in stats_o.threads] == \
            [t.committed for t in stats_s.threads]
        assert [t.fetched for t in stats_o.threads] == \
            [t.fetched for t in stats_s.threads]
        assert stats_o.total_ipc == stats_s.total_ipc

    def test_scored_run_is_backend_independent(self, tmp_path,
                                               monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        session = Session()
        r_obj = session.run(self._small("object"))
        assert session.last_report.executed == 3     # cell + 2 baselines
        # The backend is not in the key: the soa run of the same
        # experiment is the object run's store entry.
        r_soa = session.run(self._small("soa"))
        assert session.last_report.cache_hits == 1
        assert session.last_report.executed == 0
        assert r_soa == r_obj
        # Uncached, the soa engine scores the cell identically.
        r_fresh = Session(store=None).run(self._small("soa"))
        assert r_fresh == r_obj

    def test_baselines_run_on_the_cells_engine(self):
        job = self._small("soa").to_job()
        assert [b.backend for b in job.baseline_specs()] == ["soa", "soa"]
        assert all(b.backend is None
                   for b in self._small(None).to_job().baseline_specs())

    @needs_cext
    def test_simulate_matches_on_cext(self):
        stats_o, core_o = Session(store=None).simulate(self._small("object"))
        stats_c, core_c = Session(store=None).simulate(self._small("cext"))
        assert type(core_c) is CextCore
        assert stats_o.cycles == stats_c.cycles
        assert [t.committed for t in stats_o.threads] == \
            [t.committed for t in stats_c.threads]
        assert [t.fetched for t in stats_o.threads] == \
            [t.fetched for t in stats_c.threads]
        assert stats_o.total_ipc == stats_c.total_ipc

    def test_iter_intervals_is_backend_independent(self):
        session = Session(store=None)
        snaps_o = list(session.iter_intervals(self._small("object"),
                                              every=200))
        snaps_s = list(session.iter_intervals(self._small("soa"),
                                              every=200))
        assert snaps_o == snaps_s
        assert snaps_o[-1].done
