"""The compiled fetch keeps no ``Instr``; ``SoAView.instr`` builds one.

A cext core copies each fetched instruction into arena columns (its
address among them) and flag bits (its direction and FP queue), and
keeps no ``Instr`` for it.  A view's ``instr`` is built on its first
read and kept: the body's shared ``Instr`` for a static trace
position, a clone of the prototype made from the slot's address and
direction for an iteration-varying one, and ``trace.get(seq)`` where
the trace has no body.  These tests pause cores mid-run with
``advance_to`` and hold every in-flight view's ``instr`` to
``trace.get(view.seq)``, field for field.
"""

from __future__ import annotations

import gc
from dataclasses import asdict

import pytest

from repro.config import scaled_config
from repro.experiments.runner import trace_for
from repro.isa import Instr, Op
from repro.pipeline import cext
from repro.pipeline.core import SMTCore
from repro.policies import make_policy
from repro.policies.base import FetchPolicy

from conftest import StubTrace, alu, load, needs_cext

pytestmark = needs_cext


def _fields(instr: Instr) -> tuple:
    """Every slot of ``instr`` with its type (``_same_instr`` of
    ``test_cext_paths.py`` as a comparable value)."""
    return tuple((type(getattr(instr, name)), getattr(instr, name))
                 for name in Instr.__slots__)


def _live_instrs() -> list[Instr]:
    """Every live ``Instr``.  Holding the list keeps them alive, so no
    later ``Instr`` can take one's address (and ``id``)."""
    gc.collect()
    return [o for o in gc.get_objects() if type(o) is Instr]


def _new_since(before: list[Instr]) -> list[Instr]:
    known = {id(o) for o in before}
    return [o for o in _live_instrs() if id(o) not in known]


def _in_flight(core) -> list:
    """Every in-flight instruction's view, front-end queue and window."""
    return [core.view(s) for ts in core.threads
            for s in list(ts.fe_queue) + list(ts.window)]


class FreshLoads(StubTrace):
    """A body-less trace whose ``get`` builds a new ``Instr`` per call:
    every fourth position a load of a fresh line, the others ALU ops."""

    def get(self, index: int) -> Instr:
        if index % 4 == 1:
            return Instr(index % 64, Op.LOAD, 5, (1,),
                         addr=(1 << 30) + 64 * index)
        return super().get(index)


def _pause_and_check(traces, targets) -> list:
    """Run an icount core over ``traces`` to each commit target: no
    ``Instr`` is made between targets (the views' cached ones aside),
    and every in-flight view reads as ``get``.  Returns each paused
    instruction's thread, seq, ``is_load`` and ``is_branch``."""
    cfg = scaled_config(num_threads=len(traces), scale=16)
    core = cext.CextCore(cfg, traces, make_policy("icount"))
    before = _live_instrs()     # the bodies and prototypes among them
    core.begin_measurement(200)
    seen = []
    for target in targets:
        core.advance_to(target)
        assert _new_since(before) == [], target
        views = _in_flight(core)
        for v in views:
            first = v.instr
            assert v.instr is first
            assert _fields(first) == _fields(
                traces[v.thread].get(v.seq)), v
        seen += [(v.thread, v.seq, v.is_load, v.is_branch) for v in views]
        before = _live_instrs()
    core.detach()
    return seen


def test_varying_slots_keep_no_instr():
    """Paused with varying loads in flight, a core of exact synthetic
    traces holds no ``Instr`` beyond the bodies and prototypes; its
    views build theirs on demand, once each."""
    traces = [trace_for(name, scaled_config(num_threads=2, scale=16), t, 3)
              for t, name in enumerate(("mcf", "swim"))]
    seen = _pause_and_check(traces, (400, 900, 1500))
    varying = [(load, branch) for t, seq, load, branch in seen
               if traces[t]._static[seq % traces[t].body_len] is None]
    assert sum(load for load, _ in varying) > 20
    assert sum(branch for _, branch in varying) > 0


def test_body_less_trace_views_call_get():
    """A trace without a body: each fetch reads ``get``'s ``Instr`` and
    drops it; a view's ``instr`` is ``get(seq)`` again."""
    body = [alu(pc, dest=4 + pc % 4, srcs=(2,)) for pc in range(8)]
    seen = _pause_and_check([FreshLoads(body, base=1 << 40)], (300, 700))
    assert sum(load for _, _, load, _ in seen) > 0


class _Refetch(FetchPolicy):
    """Reads ``instr`` of every 37th fetched instruction, then flushes
    its thread back to just before it, once per instruction: the flush
    frees its slot and the refetch of the same ``seq`` takes it again
    (counted in ``same_slot``).  Every refetched instruction's
    ``instr`` is checked against the one read before the flush."""

    name = "refetch"

    def __init__(self):
        super().__init__()
        self.fetched = 0
        self.kept = {}          # (tid, seq) -> (view, slot, instr)
        self.same_slot = 0

    def on_fetch(self, di, ts):
        key = (ts.tid, di.seq)
        if key in self.kept:
            old, slot, instr = self.kept[key]
            assert old.instr is instr
            assert _fields(di.instr) == _fields(instr)
            self.same_slot += di.slot == slot
            return
        self.fetched += 1
        if self.fetched % 37 == 0:
            self.kept[key] = (di, di.slot, di.instr)
            self.core.flush_thread(ts, di.seq - 1)


def test_flushed_then_refetched_slot():
    """A view kept past its flush keeps the ``instr`` it built; the
    refetch into the freed slot builds its own from the slot."""
    cfg = scaled_config(num_threads=2, scale=16)
    traces = [trace_for(name, cfg, t, 11)
              for t, name in enumerate(("mcf", "art"))]
    policy = _Refetch()
    core = cext.CextCore(cfg, traces, policy)
    core.begin_measurement(100)
    core.advance_to(1200)
    assert len(policy.kept) > 20
    assert policy.same_slot > 20
    for (tid, seq), (view, _, instr) in policy.kept.items():
        assert view.instr is instr
        assert _fields(instr) == _fields(traces[tid].get(seq))
    for v in _in_flight(core):
        assert _fields(v.instr) == _fields(traces[v.thread].get(v.seq))
    core.detach()


def test_instr_is_read_only():
    cfg = scaled_config(num_threads=1)
    traces = [trace_for("gzip", cfg, 0, 0)]
    core = cext.CextCore(cfg, traces, make_policy("icount"))
    core.begin_measurement(50)
    view = _in_flight(core)[0]
    with pytest.raises(AttributeError):
        view.instr = traces[0].get(0)
    core.detach()


@pytest.mark.parametrize("cls", (SMTCore, cext.CextCore))
@pytest.mark.parametrize("instr", (Instr(0, Op.IALU, 70, (2,)),
                                   Instr(0, Op.IALU, 4, (70,)),
                                   Instr(0, Op.IALU, -1, (2,)),
                                   Instr(0, Op.IALU, 4, (-1,))),
                         ids=("dest", "src", "negative-dest",
                              "negative-src"))
def test_register_outside_the_rename_map_raises(cls, instr):
    """A register outside the 64-entry rename map is an ``IndexError``
    on both engines (the compiled one checks when it reads the
    ``Instr`` into a row, the object engine at dispatch), not a write
    or read outside the map, nor, for a negative one, of register
    64 + r."""
    cfg = scaled_config(num_threads=1, scale=16)
    core = cls(cfg, [StubTrace([instr, alu(1)])], make_policy("icount"))
    with pytest.raises(IndexError):
        core.run(100, max_cycles=10_000)


class StaticBody(StubTrace):
    """A ``StubTrace`` with a body: every position is static, so the
    compiled fetch reads each one's row, never ``get``."""

    def __init__(self, instrs, base: int = 0):
        super().__init__(instrs, base)
        self._static = list(self.instrs)


@pytest.mark.parametrize("trace_cls", (StubTrace, StaticBody))
def test_more_than_seven_sources_match_object(trace_cls):
    """An instruction with nine sources does not pack into its row:
    dispatch reads them from the slot's ``Instr`` (from the body, or
    ``get`` again) and renames them as the object engine does."""
    body = [load(pc, addr=(1 << 30) + 4096 * pc, dest=1 + pc, srcs=(1,))
            for pc in range(9)]
    body.append(Instr(9, Op.IALU, 12, tuple(range(1, 10))))
    body += [alu(pc, dest=13 + pc % 3, srcs=(12,)) for pc in range(10, 14)]
    cfg = scaled_config(num_threads=1, scale=16)
    runs = []
    for cls in (SMTCore, cext.CextCore):
        core = cls(cfg, [trace_cls(body, base=1 << 40)],
                   make_policy("mlp_flush"))
        core.run(1500, max_cycles=200_000)
        runs.append((asdict(core.stats), core.cycle))
        if cls is cext.CextCore:
            assert -1 in core._arena["srcs"]    # the unpacked row
        core.detach()
    assert runs[1] == runs[0]
