"""The compiled loop's in-C paths, each against its Python reference.

``_cext_engine.c`` does four kinds of work itself whose Python bodies
stay as the object engine's code and as the reference: the fast-forward
target (``SMTCore._next_cycle``), ``LLSR.commit_zeros``, accesses that
hit the TLB and L1 (``MemoryHierarchy.load``/``store``/``ifetch``), and
the iteration-varying slots of ``SyntheticTrace.get``.  The golden matrix
and ``test_differential.py`` compare whole runs; the tests here drive
each path through the module's test hooks (``_trace_dyn``,
``_llsr_commit_zeros``, ``_mem_data``, ``_mem_ifetch``) and compare it,
state for state, with the Python body it stands in for.
"""

from __future__ import annotations

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro import registry
from repro.config import (
    CacheConfig,
    MemoryConfig,
    PrefetcherConfig,
    SMTConfig,
    TLBConfig,
    scaled_config,
)
from repro.experiments.runner import trace_for
from repro.isa import Instr
from repro.memory.hierarchy import MemoryHierarchy
from repro.pipeline import cext
from repro.pipeline.core import (
    SimulationDeadlock,
    SimulationLimitExceeded,
    SMTCore,
)
from repro.policies import make_policy
from repro.policies.base import FetchPolicy
from repro.predictors import LLSR
from repro.util import mix64
from repro.workloads.spec import SlotKind
from repro.workloads.trace import _CHASE_WALK_MULT

from conftest import needs_cext

pytestmark = needs_cext

_INT64_MAX = (1 << 63) - 1


def _engine():
    return cext._engine()


# ---------------------------------------------------------------------- #
# trace: the iteration-varying slots
# ---------------------------------------------------------------------- #

def _fits(trace, pos: int, iteration: int) -> bool:
    """Does every intermediate of ``get``'s branch for ``pos`` fit int64?"""
    slot = trace.body[pos]
    kind = slot.kind
    spec = trace.spec
    line = trace._line
    local_pc = slot.pc - trace.pc_base
    if kind in (SlotKind.STREAM_LOAD, SlotKind.STREAM_STORE):
        base = (trace.stream_bases if kind is SlotKind.STREAM_LOAD
                else trace.stout_bases)[slot.index]
        fp = (trace.stream_fp if kind is SlotKind.STREAM_LOAD
              else trace.stout_fp)
        terms = [iteration * spec.stream_stride,
                 base + (iteration * spec.stream_stride) % fp]
    elif kind in (SlotKind.HOT_LOAD, SlotKind.STORE):
        off = (local_pc * 811 + iteration) % trace.hot_lines * line
        terms = [local_pc * 811 + iteration, off, trace.hot_base + off]
    elif kind is SlotKind.CHASE_LOAD:
        step = iteration // spec.chase_every
        off = (step * _CHASE_WALK_MULT + slot.index) % trace.chase_fp_lines
        terms = [step * _CHASE_WALK_MULT,
                 step * _CHASE_WALK_MULT + slot.index, off * line,
                 trace.chase_bases[slot.index] + off * line]
    elif kind in (SlotKind.BURST_LOAD, SlotKind.RANDOM_LOAD):
        lines = (trace.burst_lines if kind is SlotKind.BURST_LOAD
                 else trace.random_lines)
        off = mix64(trace.seed, local_pc, iteration) % lines * line
        terms = [off, off + (trace.burst_base if kind is SlotKind.BURST_LOAD
                             else trace.random_base)]
    else:
        terms = []
    return all(-_INT64_MAX - 1 <= t <= _INT64_MAX for t in terms)


def _iterations(trace) -> list[int]:
    """Small counts, every period boundary, and counts up to 2**40."""
    spec = trace.spec
    body_len = trace.body_len
    small = list(range(4))
    for every in (spec.chase_every, spec.burst_every):
        small += [every - 1, every, every + 1, 2 * every, 7 * every + 3]
    big = [1000, 2**20 + 5, 2**31, 2**32 + 1,
           # the chase product step * 2654435761 leaves int64 here
           (_INT64_MAX // _CHASE_WALK_MULT) * spec.chase_every,
           (_INT64_MAX // _CHASE_WALK_MULT + 1) * spec.chase_every,
           2**36 + 12345, (2**40 - 1) // body_len, 2**40 // body_len]
    return sorted({i for i in small + big if i >= 0})


def _same_instr(a: Instr, b: Instr) -> bool:
    return all(
        (type(getattr(a, name)), getattr(a, name))
        == (type(getattr(b, name)), getattr(b, name))
        for name in Instr.__slots__)


@pytest.mark.parametrize("seed", (0, 3, 17))
def test_trace_slots_match_get(seed):
    engine = _engine()
    cfg = SMTConfig(num_threads=8)
    checked = overflowed = 0
    for name in registry.benchmarks.names():
        for thread in range(8):
            trace = trace_for(name, cfg, thread, seed)
            body_len = trace.body_len
            # every body-length boundary the fetch index crosses
            for k in (0, 1, 2, 64, 2**20):
                for index in (k * body_len - 1, k * body_len,
                              k * body_len + 1):
                    if index < 0:
                        continue
                    built = engine._trace_dyn(trace, index)
                    if trace._static[index % body_len] is not None:
                        assert built is None
                    elif built is not None:
                        assert _same_instr(built, trace.get(index))
            for pos, params in enumerate(trace._dyn):
                if params is None:
                    assert engine._trace_dyn(trace, pos) is None
                    continue
                for it in _iterations(trace):
                    index = it * body_len + pos
                    built = engine._trace_dyn(trace, index)
                    ref = trace.get(index)
                    if _fits(trace, pos, it):
                        assert built is not None, (name, thread, index)
                        assert _same_instr(built, ref), (name, index)
                        checked += 1
                    else:
                        # C does not guess: it leaves the slot to get
                        assert built is None, (name, thread, index)
                        overflowed += 1
    assert checked > 10_000
    assert overflowed > 0       # the 2**40 range reached a chase slot


def test_trace_stub_subclass_keeps_get():
    engine = _engine()
    trace = trace_for("mcf", scaled_config(num_threads=1), 0, 0)

    class Traced(type(trace)):
        __slots__ = ()

    sub = Traced(trace.spec, scaled_config(num_threads=1).memory)
    pos = next(i for i, p in enumerate(sub._dyn) if p is not None)
    assert engine._trace_dyn(sub, pos) is None


# ---------------------------------------------------------------------- #
# LLSR.commit_zeros
# ---------------------------------------------------------------------- #

def _llsr_state(llsr: LLSR) -> tuple:
    return (list(llsr._bits), list(llsr._pcs), llsr._head, llsr._filled,
            llsr._total, llsr._last_one_total, llsr.suppressed,
            list(llsr.measured))


_llsr_ops = st.lists(
    st.one_of(
        st.tuples(st.just("commit"), st.booleans(), st.integers(0, 50),
                  st.booleans()),
        st.tuples(st.just("zeros"), st.integers(1, 150))),
    min_size=1, max_size=40)


@settings(max_examples=150, deadline=None)
@given(length=st.integers(2, 64), exclude=st.booleans(), ops=_llsr_ops)
def test_llsr_commit_zeros_matches_python(length, exclude, ops):
    engine = _engine()
    calls: tuple[list, list] = ([], [])
    ref = LLSR(length, on_measure=lambda pc, d: calls[0].append((pc, d)),
               exclude_dependent=exclude)
    llsr = LLSR(length, on_measure=lambda pc, d: calls[1].append((pc, d)),
                exclude_dependent=exclude)
    for op in ops:
        if op[0] == "commit":
            _, is_ll, pc, dependent = op
            assert (ref.commit(is_ll, pc, dependent)
                    == llsr.commit(is_ll, pc, dependent))
        else:
            ref.commit_zeros(op[1])
            assert engine._llsr_commit_zeros(llsr, op[1]) is True
        assert _llsr_state(llsr) == _llsr_state(ref)
        assert calls[1] == calls[0]


def test_llsr_without_hook_and_subclass():
    engine = _engine()
    ref, llsr = LLSR(4), LLSR(4)
    for r in (ref, llsr):
        r.commit(True, 7)
    ref.commit_zeros(9)
    assert engine._llsr_commit_zeros(llsr, 9) is True
    assert _llsr_state(llsr) == _llsr_state(ref) and ref.measured

    class Sub(LLSR):
        __slots__ = ()

    assert engine._llsr_commit_zeros(Sub(4), 3) is False


# ---------------------------------------------------------------------- #
# the memory hierarchy's L1/TLB-hit path
# ---------------------------------------------------------------------- #

def _small_memory(prefetch: bool, serialize: bool) -> MemoryConfig:
    """Few sets, tiny TLBs and short latencies: hits, evictions, live
    and stale fills all within a short access stream."""
    return replace(
        MemoryConfig(),
        l1i=CacheConfig(256, 2), l1d=CacheConfig(512, 2),
        l2=CacheConfig(1024, 2), l3=CacheConfig(2048, 4),
        itlb=TLBConfig(2, 512), dtlb=TLBConfig(3, 512),
        l2_latency=5, l3_latency=9, mem_latency=40, tlb_miss_penalty=17,
        mshr_entries=2, serialize_long_latency=serialize,
        prefetcher=PrefetcherConfig(enabled=prefetch, num_buffers=2,
                                    buffer_entries=2,
                                    stride_table_entries=4))


def _hier_state(h: MemoryHierarchy) -> tuple:
    caches = [([list(s) for s in c._sets], c.hits, c.misses)
              for c in (h.l1i, h.l1d, h.l2, h.l3)]
    tlbs = [(list(t._entries), t.hits, t.misses) for t in (h.itlb, h.dtlb)]
    pf = h.prefetcher
    prefetch = None if pf is None else (
        [(i, e.last_addr, e.stride, e.confidence)
         for i, e in pf.stride_predictor._table.items()],
        [(list(b.entries.items()), b.next_addr, b.stride, b.last_used,
          b.valid, b.hits_since_alloc, b.alloc_cycle) for b in pf._buffers],
        pf.hits, pf.lookups, pf.allocations, pf.prefetches_issued)
    return (caches, tlbs, list(h._pending.items()), list(h._fill_ends),
            h._last_ll_end, list(h.ll_intervals),
            dict(h.ll_loads_per_thread), h.demand_loads, h.merged_loads,
            h.prefetch_covered, prefetch)


def _result(r) -> tuple:
    return (r.complete_cycle, r.detect_cycle, r.level, r.tlb_miss,
            r.long_latency, r.trigger, r.fill_line)


_accesses = st.lists(
    st.tuples(st.sampled_from(("load", "store", "ifetch")),
              st.integers(0, 47),        # line: 6 pages of 8 lines
              st.integers(0, 63),        # byte in line
              st.integers(0, 9),         # pc
              st.integers(0, 45)),       # cycles since the last access
    min_size=1, max_size=80)


@settings(max_examples=200, deadline=None)
@given(prefetch=st.booleans(), serialize=st.booleans(), accesses=_accesses)
def test_hit_path_matches_python(prefetch, serialize, accesses):
    engine = _engine()
    cfg = _small_memory(prefetch, serialize)
    ref, hier = MemoryHierarchy(cfg), MemoryHierarchy(cfg)
    cycle = 0
    for op, line, byte, pc, gap in accesses:
        cycle += gap
        addr = line * 64 + byte
        if op == "ifetch":
            done, _ = engine._mem_ifetch(hier, 0, addr, cycle)
            assert done == ref.ifetch(0, addr, cycle)
        else:
            got = engine._mem_data(hier, op == "load", 1, pc, addr, cycle)
            want = (ref.load if op == "load" else ref.store)(
                1, pc, addr, cycle)
            assert got[:7] == _result(want)
        assert _hier_state(hier) == _hier_state(ref)


def test_hit_path_runs_in_c_only_on_a_clean_hit():
    engine = _engine()
    hier = MemoryHierarchy(_small_memory(True, False))
    # cold: TLB and L1 miss -> Python; the fill is live until cycle 57
    assert engine._mem_data(hier, True, 0, 1, 64, 0)[-1] is False
    assert engine._mem_data(hier, True, 0, 1, 64, 10)[-1] is False  # merge
    assert hier._pending
    got = engine._mem_data(hier, True, 0, 1, 64, 400)
    assert got[-1] is True and got[0] == 401
    assert not hier._pending            # the stale fill entry was dropped
    # an I-TLB miss -> Python; the line misses to memory (ready at 458)
    assert engine._mem_ifetch(hier, 0, 1280, 401) == (458, False)
    assert engine._mem_ifetch(hier, 0, 1280, 402) == (458, True)  # live
    assert engine._mem_ifetch(hier, 0, 1280, 500) == (500, True)  # L1I
    assert 20 in hier._pending        # ifetch leaves stale fills in place

    class Sub(MemoryHierarchy):
        __slots__ = ()

    sub = Sub(_small_memory(True, False))
    sub.load(0, 1, 64, 0)
    assert engine._mem_data(sub, True, 0, 1, 64, 400)[-1] is False


# ---------------------------------------------------------------------- #
# the fast-forward target
# ---------------------------------------------------------------------- #

def _target(next_cycle, *args):
    try:
        return next_cycle(*args)
    except SimulationDeadlock as exc:
        return str(exc)


@pytest.mark.parametrize("workload, policy", [
    (("gzip", "swim"), "icount"),
    (("mcf", "equake", "art", "swim"), "stall"),
])
def test_fast_forward_target_matches_python(workload, policy):
    """At every 7th cycle of two bit-exact runs (each stopped by its
    cycle limit and resumed), the C target equals ``SMTCore._next_cycle``
    on the object engine's state, deadlock verdicts included.  A
    one-entry write buffer makes a completed store waiting at the head
    for a full buffer common, also in stretches the loop skips."""
    engine = _engine()
    cfg = scaled_config(num_threads=len(workload), write_buffer_entries=1)
    traces = [trace_for(name, cfg, t) for t, name in enumerate(workload)]
    obj = SMTCore(cfg, traces, make_policy(policy))
    arena = cext.CextCore(cfg, traces, make_policy(policy))
    store_waits = 0
    for limit in range(7, 6000, 7):
        for core in (obj, arena):
            with pytest.raises(SimulationLimitExceeded):
                core.advance_to(10**9, max_cycles=limit)
        assert obj.cycle == arena.cycle
        want = _target(obj._next_cycle, obj.cycle)
        assert _target(engine._next_cycle, arena, arena.cycle) == want
        store_waits += (
            isinstance(want, int) and want > obj.cycle + 1
            and obj._wb_used >= obj._wb_entries
            and any(ts.window and ts.window[0].completed
                    and ts.window[0].is_store for ts in obj.threads))
    assert store_waits > 5


class _NeverFetch(FetchPolicy):
    """Grants no thread fetch, ever: nothing can happen after cycle 0."""

    __slots__ = ()

    def fetch_order(self, cycle):
        return []

    def fetch_pending(self, cycle):
        return False


@pytest.mark.parametrize("backend", ("object", "cext"))
def test_wedged_core_raises_deadlock(backend):
    cfg = scaled_config(num_threads=2)
    traces = [trace_for("gzip", cfg, t) for t in range(2)]
    cls = SMTCore if backend == "object" else cext.CextCore
    core = cls(cfg, traces, _NeverFetch())
    with pytest.raises(SimulationDeadlock,
                       match=r"no future events at cycle 0; "
                             r"pipeline is wedged"):
        core.run(10)
