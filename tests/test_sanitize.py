"""The REPRO_SANITIZE runtime sanitizer: wiring, exactness, detection.

Pins the three contracts of :mod:`repro.pipeline.sanitize`: the env
knob swaps the checked engine subclasses in through ``core_for``,
runahead's core included (and only then — off means the module is not
even imported); a sanitized run is bit-exact with a stock one on both
backends (on the object engine for every golden policy, runahead
included); and the checks actually fire.  On the object engine and
the runahead core, an event queued behind the current cycle raises
:class:`~repro.pipeline.sanitize.SanitizerError` at the next
``step()``.  On the compiled engine's arena, a duplicate free-list
entry, a non-pristine free slot, a leaked slot, a freed slot missing
from the free list, a wheel mark behind the current cycle and a heap
out of heap order raise it from the boundary check, which leaves the
run's TypeError standing for a Python part the loop refuses.
"""

from __future__ import annotations

from heapq import heappush
import re

import pytest

from conftest import needs_cext
from repro import registry
from repro.config import scaled_config
from repro.experiments.runner import core_for, default_backend, trace_for
from repro.memory.hierarchy import MemoryHierarchy
from repro.perf.golden import GOLDEN_POLICIES, GOLDEN_RUNAHEAD_POLICIES
from repro.pipeline.cext import CextCore
from repro.pipeline.core import SMTCore
from repro.pipeline.dyninstr import F_FREED
from repro.pipeline.sanitize import (
    CheckedCextCore,
    CheckedRunaheadCore,
    CheckedSMTCore,
    SanitizerError,
    checked_variant,
    sanitize_enabled,
)
from repro.policies import make_policy
from repro.predictors import LLSR
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


#: (policy, the run-loop core, its checked step()-driven twin) for
#: every golden policy.
_STEPPED_TWINS = (
    [(p, SMTCore, checked_variant(SMTCore)) for p in GOLDEN_POLICIES]
    + [(p, RunaheadCore, checked_variant(RunaheadCore))
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

    def test_runahead_is_checked(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        assert core_for(make_policy("runahead")) is RunaheadCore
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        for policy in GOLDEN_RUNAHEAD_POLICIES:
            assert core_for(make_policy(policy)) is CheckedRunaheadCore
        assert checked_variant(RunaheadCore) is CheckedRunaheadCore


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
    @pytest.mark.parametrize(("core_cls", "policy"), (
        (CheckedSMTCore, "mlp_flush"), (CheckedRunaheadCore, "runahead")),
        ids=("CheckedSMTCore", "CheckedRunaheadCore"))
    def test_stale_event_caught(self, core_cls, policy):
        core, _ = _run(core_cls, policy=policy)
        drains = list(core._wb_heap)
        heappush(core._wb_heap, core.cycle - 1)
        with pytest.raises(SanitizerError, match="_wb_heap head due at "
                                                 r"\d+ is before cycle"):
            core.step()
        core._wb_heap[:] = drains
        core.step()   # restored state passes again


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

    @pytest.mark.parametrize("heap", ("ev_marks", "ready_int"))
    def test_heap_out_of_order_caught(self, heap):
        # Descending entries, so each parent sorts after its children:
        # a heap that would pop wrongly.  Every planted entry is at or
        # past the cycle, so no head check can see it.
        core, _ = _run(CheckedCextCore)
        arena = core._arena
        kept = arena[heap]
        arena[heap] = sorted(kept + [core.cycle + 5, core.cycle + 9],
                             reverse=True)
        with pytest.raises(SanitizerError,
                           match=rf"heap order broken: {heap}\[1\]"):
            core.sanitize_check()
        arena[heap] = kept
        core.sanitize_check()


@needs_cext
@pytest.mark.parametrize("part", ("hierarchy", "threads[0].llsr",
                                  "threads[1].llsr"))
def test_refused_part_keeps_the_loop_error(part):
    """A Python part the loop refuses has no native check, so the
    boundary check leaves the run's TypeError standing."""
    core = _build(CheckedCextCore)
    if part == "hierarchy":
        core.hierarchy = MemoryHierarchy(CFG2.memory)
    else:
        ts = core.threads[int(part[8])]
        ts.llsr = LLSR(CFG2.llsr_length, ts._train_mlp)
    with pytest.raises(TypeError, match=rf"core\.{re.escape(part)} must be "
                                        r"the cext engine's .* run other "
                                        r"models on backend 'object'"):
        core.run(500)
    core.detach()


@needs_cext
class TestNativeHierarchyDetection:
    """Defects planted in the core's native memory model (through its
    test-only ``_plant``) after a clean compiled run."""

    def test_duplicate_tag_caught(self):
        core, _ = _run(CheckedCextCore)
        hier = core.hierarchy
        sets = hier.state()["l1d"][0]
        s = next(i for i, lines in enumerate(sets) if lines)
        lines = sets[s]
        hier._plant("l1d", s, [lines[0], lines[0]])
        with pytest.raises(SanitizerError, match=rf"l1d set {s} holds line "
                                                 rf"{lines[0]} twice"):
            core.sanitize_check()
        hier._plant("l1d", s, lines)
        core.sanitize_check()   # restored state passes again

    def test_line_in_the_wrong_set_caught(self):
        core, _ = _run(CheckedCextCore)
        hier = core.hierarchy
        sets = hier.state()["l2"][0]
        s = next(i for i, lines in enumerate(sets) if lines)
        hier._plant("l2", s, [sets[s][0] + 1])
        with pytest.raises(SanitizerError, match="of set"):
            core.sanitize_check()
        hier._plant("l2", s, sets[s])
        core.sanitize_check()

    def test_fill_heap_overflow_caught(self):
        core, _ = _run(CheckedCextCore)
        hier = core.hierarchy
        fills = hier.state()["fill_ends"]
        mshr = core.cfg.memory.mshr_entries
        hier._plant("fill_ends", None, [core.cycle] * (mshr + 1))
        with pytest.raises(SanitizerError, match="fill heap holds"):
            core.sanitize_check()
        hier._plant("fill_ends", None, [9, 3])
        with pytest.raises(SanitizerError, match="fill heap order"):
            core.sanitize_check()
        hier._plant("fill_ends", None, fills)
        core.sanitize_check()

    def test_tlb_index_disagreement_fails_the_run(self):
        # A duplicated page in the D-TLB, left while the compiled loop
        # keeps running: the index no longer agrees with the entries,
        # and the next boundary fails the sanitized run.
        core, _ = _run(CheckedCextCore)
        hier = core.hierarchy
        pages = hier.state()["dtlb"][0]
        assert len(pages) >= 2
        hier._plant("dtlb", None, [pages[0]] * len(pages))
        with pytest.raises(SanitizerError, match="dtlb"):
            core.advance_to(core._committed_watermark + 200)
