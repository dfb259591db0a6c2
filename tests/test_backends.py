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

from dataclasses import asdict, replace

import pytest

from conftest import needs_cext
from repro import registry
from repro.api import RunSpec, Session, SpecError
from repro.config import scaled_config
from repro.experiments.runner import (
    build_core,
    core_for,
    default_backend,
    trace_for,
)
from repro.jobs import JobSpec
from repro.perf.baselines import BaselineError, mode_name, validate_doc
from repro.pipeline import SMTCore
from repro.pipeline import cext as cext_mod
from repro.pipeline.cext import CextCore, cext_status, load_cext_core
from repro.policies import make_policy
from repro.runahead import RunaheadCore

CFG2 = scaled_config(num_threads=2, scale=16)

#: The compiled backend exists only where the lazy toolchain probe and
#: build succeed; everything cext-specific is gated on this.
_CEXT_BUILDABLE = load_cext_core() is not None
#: ``cext`` as a parametrize entry, skipped where it does not build.
CEXT = pytest.param("cext", marks=needs_cext)


def _spec(backend=None, **kw):
    kw.setdefault("max_commits", 800)
    kw.setdefault("warmup", 400)
    return RunSpec(workload=("mcf", "swim"), config=CFG2,
                   policy="mlp_flush", backend=backend, **kw)


class TestRegistry:
    def test_both_engines_registered(self):
        expected = {"object"} | ({"cext"} if _CEXT_BUILDABLE else set())
        assert set(registry.backends.names()) == expected
        assert registry.backends.get("object") is SMTCore

    def test_kind_aliases(self):
        assert registry.canonical_kind("backend") == "backends"
        assert registry.canonical_kind("backends") == "backends"
        assert "backends" in registry.KINDS
        assert registry.get("backend", "object") is SMTCore

    def test_unknown_backend_error_names_known(self):
        with pytest.raises(registry.RegistryError) as exc:
            registry.backends.get("simd")
        assert "object" in str(exc.value)


class TestCextRegistration:
    @needs_cext
    def test_registered_when_buildable(self):
        assert "cext" in registry.backends
        assert registry.backends.get("cext") is CextCore
        assert cext_status().startswith("available")

    @needs_cext
    def test_core_resolution(self):
        assert core_for(make_policy("mlp_flush"), "cext") is CextCore
        # A policy-owned core still beats the requested backend.
        assert core_for(make_policy("runahead"), "cext") is RunaheadCore

    def test_disabled_probe_omits_the_entry(self, monkeypatch):
        # Simulate a toolchain-less host: with the probe reporting
        # unavailable, a fresh backends registry lists only the object
        # engine and load_cext_core() degrades to None without raising.
        monkeypatch.setenv("REPRO_CEXT", "0")
        monkeypatch.setattr(cext_mod, "_state", None)
        assert load_cext_core() is None
        assert cext_status() == "unavailable: disabled by REPRO_CEXT=0"
        fresh = registry.Registry("backend", registry._load_backends)
        assert fresh.names() == ("object",)
        monkeypatch.setattr(cext_mod, "_state", None)  # re-probe later

    def test_driver_refuses_to_run_without_engine(self, monkeypatch):
        # The registry never offers CextCore without its compiled loop;
        # one built by hand then must fail loudly, naming the probe
        # outcome, rather than run something else.
        pol = make_policy("icount")
        core = CextCore(CFG2, [trace_for(name, CFG2, slot=i)
                               for i, name in enumerate(("mcf", "swim"))],
                        pol)
        monkeypatch.setattr(cext_mod, "_state", (None, "forced off"))
        with pytest.raises(RuntimeError, match="forced off"):
            core.run(200)

    def test_cext_core_refuses_step(self):
        # CextCore's state is the slot arena: the object engine's
        # per-cycle bodies behind step() must not run over slot numbers.
        pol = make_policy("icount")
        core = CextCore(CFG2, [trace_for(name, CFG2, slot=i)
                               for i, name in enumerate(("mcf", "swim"))],
                        pol)
        with pytest.raises(NotImplementedError, match="no per-cycle step"):
            core.step()

    @needs_cext
    def test_thread_limit(self):
        # The engine's thread bitmasks are int64: 63 threads run as on
        # the object engine, and a 64-thread core fails at construction.
        assert cext_mod.max_threads() == 63
        cfg = replace(scaled_config(num_threads=1), num_threads=63,
                      rob_size=252, lsq_size=252)
        runs = []
        for backend in ("object", "cext"):
            core = build_core(["gzip"] * 63, cfg, backend=backend)
            core.run(50)
            runs.append((asdict(core.stats), core.cycle))
            core.detach()
        assert runs[1] == runs[0]
        with pytest.raises(ValueError, match="at most 63 threads, not 64; "
                                             "run more on backend 'object'"):
            build_core(["gzip"] * 64, scaled_config(num_threads=64),
                       backend="cext")


class TestCoreResolution:
    def test_default_is_fastest_registered_engine(self):
        expected = "cext" if _CEXT_BUILDABLE else "object"
        assert default_backend() == expected
        assert core_for(make_policy("icount")) is \
            registry.backends.get(expected)
        assert core_for(make_policy("icount"), "object") is SMTCore

    def test_unpinned_run_past_the_cext_limit_is_object(self):
        assert core_for(make_policy("icount"), num_threads=64) is SMTCore
        assert core_for(make_policy("icount"), num_threads=63) is \
            core_for(make_policy("icount"))
        core = build_core(["gzip"] * 64, scaled_config(num_threads=64))
        assert type(core) is SMTCore
        core.run(50)
        assert max(ts.stats.committed for ts in core.threads) >= 50
        core.detach()

    def test_default_is_object_engine(self, without_cext):
        # Without the compiled engine (no toolchain, or REPRO_CEXT=0)
        # an unpinned run falls back to the object engine.
        assert default_backend() == "object"
        assert core_for(make_policy("icount")) is SMTCore

    def test_soa_backend_is_refused(self):
        # The struct-of-arrays state is no engine of its own any more.
        with pytest.raises(registry.RegistryError):
            core_for(make_policy("mlp_flush"), "soa")
        with pytest.raises(SpecError, match="backend"):
            _spec(backend="soa")

    def test_policy_core_class_beats_backend(self):
        # Runahead is only implemented on its own engine; asking for a
        # pinned backend must not desynchronize it.
        assert core_for(make_policy("runahead"), "object") is RunaheadCore

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

    @needs_cext
    def test_non_default_backend_serializes(self):
        doc = _spec(backend="cext").to_doc()
        assert doc["backend"] == "cext"

    def test_pinned_object_backend_serializes(self):
        assert _spec(backend="object").to_doc()["backend"] == "object"

    @pytest.mark.parametrize("backend", ["object", CEXT])
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
        doc = _spec(backend="object").to_doc()
        doc["schema"] = "repro.runspec/1"
        with pytest.raises(SpecError, match="backend"):
            RunSpec.from_doc(doc)

    def test_str_names_non_default_backend(self):
        assert str(_spec()).endswith("@800")
        assert str(_spec(backend="object")).endswith("@800+object")


class TestHashStability:
    #: ``_spec()``'s content hash under the pre-backend (PR 6) scheme.
    #: The default backend must keep producing exactly this value —
    #: warm result stores and committed hashes must survive the /2 bump.
    _PINNED = ("00e1f993ce0ccb4ff30e7ff366a60e25"
               "277d1f5f43e52911df092b62e7f445a0")

    def test_default_backend_hash_unchanged(self):
        assert _spec().content_hash() == self._PINNED

    @pytest.mark.parametrize("backend", ["object", CEXT])
    def test_pinned_backend_keeps_the_unpinned_hash(self, backend):
        # The backend says how a run executes, not what it computes:
        # every engine's run of one experiment shares one store entry,
        # and pinned specs equal (and hash like) the unpinned one.
        spec = _spec(backend=backend)
        assert spec.content_hash() == self._PINNED
        assert spec == _spec()
        assert hash(spec) == hash(_spec())

    @needs_cext
    def test_cext_hash_is_the_unpinned_hash(self, monkeypatch):
        # The toolchain, compiler version and probe outcome must not
        # leak into a key either: dropping the probe result leaves a
        # cext spec's key where it was.
        spec = _spec(backend="cext")
        assert spec.content_hash() == self._PINNED
        monkeypatch.setattr(cext_mod, "_state", (None, "forced off"))
        assert spec.content_hash() == self._PINNED
        assert JobSpec.from_runspec(spec).cache_key() == self._PINNED

    @pytest.mark.parametrize("backend", ["object", CEXT])
    def test_content_hash_matches_jobspec_cache_key(self, backend):
        spec = _spec(backend=backend)
        assert spec.content_hash() == JobSpec.from_runspec(spec).cache_key()


class TestBaselineModes:
    def test_mode_names(self):
        assert mode_name(False) == "full"
        assert mode_name(True) == "quick"
        assert mode_name(False, "cext") == "full-cext"
        assert mode_name(True, "cext") == "quick-cext"

    def test_validate_accepts_suffixed_modes(self):
        entry = {"wall_s": 1.0, "cycles": 10, "instructions": 5}
        doc = {"schema": "repro.perf/1",
               "modes": {"full-cext": {"calibration_s": 0.1,
                                       "scenarios": {"s": dict(entry)}}}}
        validate_doc(doc)  # must not raise

    def test_validate_rejects_unknown_mode_base(self):
        doc = {"schema": "repro.perf/1",
               "modes": {"warm-cext": {"calibration_s": 0.1,
                                       "scenarios": {}}}}
        with pytest.raises(BaselineError, match="unknown mode"):
            validate_doc(doc)


class TestGoldenCli:
    def test_regeneration_refuses_non_default_backend(self, tmp_path,
                                                      capsys):
        from repro.perf.golden import main
        out = tmp_path / "golden.json"
        assert main(["--backend", "cext", str(out)]) == 2
        assert not out.exists()
        assert "--check" in capsys.readouterr().err

    def test_check_requires_a_fixture(self, tmp_path, capsys):
        from repro.perf.golden import main
        missing = tmp_path / "nope.json"
        assert main(["--check", "--backend", "object", str(missing)]) == 1
        assert "no golden fixture" in capsys.readouterr().err


class TestExecutionEquivalence:
    def _small(self, backend):
        return RunSpec(workload=("mcf", "swim"), config=CFG2,
                       policy="mlp_flush", max_commits=600, warmup=200,
                       backend=backend)

    def test_simulate_is_backend_independent(self):
        # An unpinned run takes the fastest registered engine; whichever
        # that is, it simulates exactly what the object engine does.
        stats_o, core_o = Session(store=None).simulate(self._small("object"))
        stats_d, core_d = Session(store=None).simulate(self._small(None))
        assert type(core_o) is SMTCore
        assert type(core_d) is registry.backends.get(default_backend())
        assert stats_o.cycles == stats_d.cycles
        assert core_o.cycle == core_d.cycle
        assert [t.committed for t in stats_o.threads] == \
            [t.committed for t in stats_d.threads]
        assert [t.fetched for t in stats_o.threads] == \
            [t.fetched for t in stats_d.threads]
        assert stats_o.total_ipc == stats_d.total_ipc

    @needs_cext
    def test_scored_run_is_backend_independent(self, tmp_path,
                                               monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        session = Session()
        r_obj = session.run(self._small("object"))
        assert session.last_report.executed == 3     # cell + 2 baselines
        # The backend is not in the key: the cext run of the same
        # experiment is the object run's store entry.
        r_cext = session.run(self._small("cext"))
        assert session.last_report.cache_hits == 1
        assert session.last_report.executed == 0
        assert r_cext == r_obj
        # Uncached, the cext engine scores the cell identically.
        r_fresh = Session(store=None).run(self._small("cext"))
        assert r_fresh == r_obj

    def test_baselines_run_on_the_cells_engine(self):
        job = self._small("object").to_job()
        assert [b.backend for b in job.baseline_specs()] == \
            ["object", "object"]
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

    @needs_cext
    def test_iter_intervals_is_backend_independent(self):
        session = Session(store=None)
        snaps_o = list(session.iter_intervals(self._small("object"),
                                              every=200))
        snaps_c = list(session.iter_intervals(self._small("cext"),
                                              every=200))
        assert snaps_o == snaps_c
        assert snaps_o[-1].done
