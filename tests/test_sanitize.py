"""The REPRO_SANITIZE runtime sanitizer: wiring, exactness, detection.

Pins the three contracts of :mod:`repro.pipeline.sanitize`: the env
knob swaps the checked engine subclasses in through ``core_for`` (and
only then — off means the module is not even imported); a sanitized
run is bit-exact with a stock one on both backends; and the checks
actually fire — planted double-frees, a record mutated while pooled,
and a slot mutated while on the arena free list all raise
:class:`~repro.pipeline.sanitize.SanitizerError`.
"""

from __future__ import annotations

import pytest

from repro import registry
from repro.config import scaled_config
from repro.experiments.runner import core_for, default_backend, trace_for
from repro.pipeline.core import SMTCore
from repro.pipeline.sanitize import (
    CheckedFreeList,
    CheckedPool,
    CheckedSMTCore,
    CheckedSoACore,
    SanitizerError,
    checked_variant,
    sanitize_enabled,
)
from repro.pipeline.soa import SoACore
from repro.policies import make_policy
from repro.runahead import RunaheadCore

CFG2 = scaled_config(num_threads=2, scale=16)


def _build(core_cls, policy="mlp_flush", cfg=CFG2):
    pol = make_policy(policy)
    traces = [trace_for(name, cfg, slot=i)
              for i, name in enumerate(("mcf", "swim"))]
    return core_cls(cfg, traces, pol)


def _run(core_cls, commits=1_500):
    core = _build(core_cls)
    stats = core.run(commits, warmup=300)
    return core, stats


def _default_core() -> type:
    """The stock core an unpinned run resolves to."""
    return registry.backends.get(default_backend())


class TestWiring:
    def test_off_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        assert not sanitize_enabled()
        assert core_for(make_policy("icount")) is _default_core()
        assert core_for(make_policy("icount"), "object") is SMTCore
        assert core_for(make_policy("icount"), "soa") is SoACore

    def test_env_selects_checked_cores(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert sanitize_enabled()
        assert core_for(make_policy("icount")) is \
            checked_variant(_default_core())
        assert core_for(make_policy("icount"), "object") is CheckedSMTCore
        assert core_for(make_policy("icount"), "soa") is CheckedSoACore

    def test_zero_means_off(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "0")
        assert not sanitize_enabled()
        assert core_for(make_policy("icount")) is _default_core()

    def test_specialized_cores_bypass(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert core_for(make_policy("runahead")) is RunaheadCore
        assert checked_variant(RunaheadCore) is RunaheadCore


class TestBitExactness:
    def test_object_engine(self):
        _, stock = _run(SMTCore)
        _, checked = _run(CheckedSMTCore)
        assert checked == stock

    def test_soa_engine(self):
        _, stock = _run(SoACore)
        _, checked = _run(CheckedSoACore)
        assert checked == stock


class TestObjectEngineDetection:
    def test_double_free_caught(self):
        core, _ = _run(CheckedSMTCore)
        pool = core._di_pool
        assert isinstance(pool, CheckedPool) and pool
        di = pool.pop()
        pool.append(di)
        with pytest.raises(SanitizerError, match="double free"):
            pool.append(di)

    def test_unretired_free_caught(self):
        core, _ = _run(CheckedSMTCore)
        pool = core._di_pool
        di = pool.pop()
        di.retired = False
        with pytest.raises(SanitizerError, match="not retired"):
            pool.append(di)
        di.retired = True   # leave the pool record consistent

    def test_mutated_while_pooled_caught(self):
        core, _ = _run(CheckedSMTCore)
        pool = core._di_pool
        pool[-1].refs = 1
        with pytest.raises(SanitizerError, match="mutated while pooled"):
            pool.pop()

    def test_use_after_free_scan(self):
        core, _ = _run(CheckedSMTCore)
        pool = core._di_pool
        core.threads[0].window.append(pool[-1])
        with pytest.raises(SanitizerError, match="use after free"):
            core.sanitize_check()
        core.threads[0].window.pop()
        core.sanitize_check()   # restored state passes again


class TestSoAEngineDetection:
    def test_double_free_caught(self):
        core, _ = _run(CheckedSoACore)
        free = core._free
        assert isinstance(free, CheckedFreeList) and free
        with pytest.raises(SanitizerError, match="double free"):
            free.append(free[-1])

    def test_dirty_slot_free_caught(self):
        core, _ = _run(CheckedSoACore)
        free = core._free
        s = free.pop()
        core._col_pending[s] = 1
        with pytest.raises(SanitizerError, match="not pristine"):
            free.append(s)
        core._col_pending[s] = 0
        free.append(s)

    def test_mutated_while_freed_caught(self):
        core, _ = _run(CheckedSoACore)
        free = core._free
        s = free[-1]
        core._col_waiter0[s] = 7
        with pytest.raises(SanitizerError, match="mutated while freed"):
            free.pop()
        core._col_waiter0[s] = -1

    def test_leak_scan_flags_lost_slot(self):
        from repro.pipeline.dyninstr import F_FREED
        core, _ = _run(CheckedSoACore)
        s = core._free.pop()                 # allocated...
        core._col_flags[s] &= ~F_FREED      # ...but reachable from nowhere
        with pytest.raises(SanitizerError, match="leak"):
            core.sanitize_check()
        core._col_flags[s] |= F_FREED
        core._free.append(s)
        core.sanitize_check()
