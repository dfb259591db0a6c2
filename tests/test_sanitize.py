"""The REPRO_SANITIZE runtime sanitizer: wiring, exactness, detection.

Pins the three contracts of :mod:`repro.pipeline.sanitize`: the env
knob swaps the checked engine subclasses in through ``core_for`` (and
only then — off means the module is not even imported); a sanitized
run is bit-exact with a stock one on both backends (on the object
engine for every golden policy, runahead through a ``step()``-driven
twin because the sanitizer bypasses it); and the checks actually
fire.  On the object engine, planted double-frees and a record
mutated while pooled raise
:class:`~repro.pipeline.sanitize.SanitizerError` at the operation.  On
the compiled engine's arena, a duplicate free-list entry, a non-pristine
free slot, a leaked slot, a freed slot missing from the free list and a
wheel mark behind the current cycle raise it from the boundary check.
"""

from __future__ import annotations

from heapq import heappush

import pytest

from conftest import needs_cext
from repro import registry
from repro.config import scaled_config
from repro.experiments.runner import core_for, default_backend, trace_for
from repro.perf.golden import GOLDEN_POLICIES, GOLDEN_RUNAHEAD_POLICIES
from repro.pipeline.cext import CextCore
from repro.pipeline.core import SMTCore
from repro.pipeline.dyninstr import F_FREED
from repro.pipeline.sanitize import (
    CheckedCextCore,
    CheckedPool,
    CheckedSMTCore,
    SanitizerError,
    checked_variant,
    sanitize_enabled,
)
from repro.policies import make_policy
from repro.runahead import RunaheadCore

CFG2 = scaled_config(num_threads=2, scale=16)


def _build(core_cls, policy="mlp_flush", cfg=CFG2):
    pol = make_policy(policy)
    traces = [trace_for(name, cfg, slot=i)
              for i, name in enumerate(("mcf", "swim"))]
    return core_cls(cfg, traces, pol)


def _run(core_cls, commits=1_500, policy="mlp_flush"):
    core = _build(core_cls, policy)
    stats = core.run(commits, warmup=300)
    return core, stats


class _SteppedRunaheadCore(RunaheadCore):
    """Runahead driven one ``step()`` per cycle, as the checked core is.

    The sanitizer bypasses specialized cores, so this is the runahead
    counterpart of :class:`CheckedSMTCore` for the stepping comparison.
    """

    __slots__ = ()

    def step(self) -> None:
        super().step()


#: (policy, the run-loop core, its step()-driven twin) for every golden
#: policy.
_STEPPED_TWINS = (
    [(p, SMTCore, CheckedSMTCore) for p in GOLDEN_POLICIES]
    + [(p, RunaheadCore, _SteppedRunaheadCore)
       for p in GOLDEN_RUNAHEAD_POLICIES])


def _default_core() -> type:
    """The stock core an unpinned run resolves to."""
    return registry.backends.get(default_backend())


class TestWiring:
    def test_off_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        assert not sanitize_enabled()
        assert core_for(make_policy("icount")) is _default_core()
        assert core_for(make_policy("icount"), "object") is SMTCore

    def test_env_selects_checked_cores(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert sanitize_enabled()
        assert core_for(make_policy("icount")) is \
            checked_variant(_default_core())
        assert core_for(make_policy("icount"), "object") is CheckedSMTCore
        assert checked_variant(CextCore) is CheckedCextCore

    def test_zero_means_off(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "0")
        assert not sanitize_enabled()
        assert core_for(make_policy("icount")) is _default_core()

    def test_specialized_cores_bypass(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert core_for(make_policy("runahead")) is RunaheadCore
        assert checked_variant(RunaheadCore) is RunaheadCore


class TestBitExactness:
    @pytest.mark.parametrize(("policy", "stock_cls", "stepped_cls"),
                             _STEPPED_TWINS,
                             ids=[twin[0] for twin in _STEPPED_TWINS])
    def test_object_engine(self, policy, stock_cls, stepped_cls):
        """One ``step()`` per cycle matches the run loop driving itself.

        ``step()`` is one pass of the loop, so a value the loop hoists
        once per run and lets go stale between cycles shows up here.
        """
        stock_core, stock = _run(stock_cls, policy=policy)
        stepped_core, stepped = _run(stepped_cls, policy=policy)
        assert stepped == stock
        assert stepped_core.cycle == stock_core.cycle
        if stock_cls is RunaheadCore:
            # The overridden _complete's runahead exit actually ran.
            assert sum(t.runahead_exits for t in stock.threads) > 0

    @needs_cext
    def test_cext_engine(self):
        stock_core, stock = _run(CextCore)
        checked_core, checked = _run(CheckedCextCore)
        assert checked == stock
        assert checked_core.cycle == stock_core.cycle


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


@needs_cext
class TestCextEngineDetection:
    """Defects planted in the arena (through ``core._arena[name]``)
    after a clean compiled run."""

    def test_double_free_caught(self):
        core, _ = _run(CheckedCextCore)
        arena = core._arena
        free = arena["free"]
        arena["free"] = free + [free[-1]]
        with pytest.raises(SanitizerError, match="double free"):
            core.sanitize_check()
        arena["free"] = free
        core.sanitize_check()   # restored state passes again

    def test_dirty_slot_free_caught(self):
        core, _ = _run(CheckedCextCore)
        arena = core._arena
        s = arena["free"][-1]
        pending = arena["pending"]
        pending[s] = 1
        arena["pending"] = pending
        with pytest.raises(SanitizerError, match="not pristine"):
            core.sanitize_check()
        pending[s] = 0
        arena["pending"] = pending
        core.sanitize_check()

    def test_mutated_while_freed_caught(self):
        # A stale waiter0 on a free slot, left while the compiled loop
        # keeps running: the next boundary reports it.  The bottom of
        # the free-list stack is the slot reused last.
        core, _ = _run(CheckedCextCore)
        arena = core._arena
        s = arena["free"][0]
        waiter0 = arena["waiter0"]
        waiter0[s] = 7
        arena["waiter0"] = waiter0
        with pytest.raises(SanitizerError,
                           match=rf"waiter0\[{s}\] == 7"):
            core.advance_to(core._committed_watermark + 200)
        waiter0 = arena["waiter0"]
        waiter0[s] = -1
        arena["waiter0"] = waiter0

    def test_leak_scan_flags_lost_slot(self):
        core, _ = _run(CheckedCextCore)
        arena = core._arena
        free, flags = arena["free"], arena["flags"]
        s = free.pop()                      # allocated...
        arena["free"] = free
        flags[s] &= ~F_FREED                # ...but reachable from nowhere
        arena["flags"] = flags
        with pytest.raises(SanitizerError, match="leak"):
            core.sanitize_check()
        flags[s] |= F_FREED
        arena["flags"] = flags
        arena["free"] = free + [s]
        core.sanitize_check()

    def test_freed_slot_off_the_free_list_caught(self):
        core, _ = _run(CheckedCextCore)
        arena = core._arena
        free = arena["free"]
        arena["free"] = free[1:]            # F_FREED, yet unallocatable
        with pytest.raises(SanitizerError, match="not on the free list"):
            core.sanitize_check()
        arena["free"] = free
        core.sanitize_check()

    def test_wheel_mark_behind_the_cycle_caught(self):
        core, _ = _run(CheckedCextCore)
        arena = core._arena
        marks = arena["ev_marks"]
        planted = list(marks)
        heappush(planted, core.cycle - 1)
        arena["ev_marks"] = planted
        with pytest.raises(SanitizerError, match="non-monotonic"):
            core.sanitize_check()
        arena["ev_marks"] = marks
        core.sanitize_check()
