"""The compiled engine's native memory model against MemoryHierarchy.

A ``cext`` core's memory model is ``_cext_engine.Hierarchy``: the
caches, TLBs, pending-fill table, MSHR fill heap, stream buffers and
stride table of :class:`~repro.memory.hierarchy.MemoryHierarchy` as C
memory, answering ``load``, ``store``, ``ifetch`` and ``cancel_fill``
with the Python class's results.  The tests here drive both with the
same access streams and compare every result and, after every step, the
canonical state (``Hierarchy.state()`` against :func:`_python_state`):
recency orders as sequences; the pending table, the stride table, each
stream buffer's lines and ``ll_loads_per_thread`` as mappings; the fill
heap sorted.  The golden matrix and ``test_differential.py`` compare
whole runs.

The file also holds the check of the weights DCRA keeps: the limits
``SMTCore.partition_limits`` derives from ``slow_weights`` equal fresh
ones computed from ``slow_weight``, the MLP need and the miss state.
"""

from __future__ import annotations

from dataclasses import replace
import json
from pathlib import Path
import random
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro.config import (
    CacheConfig,
    MemoryConfig,
    PrefetcherConfig,
    SMTConfig,
    TLBConfig,
    scaled_config,
    with_window_size,
)
from repro.experiments.runner import trace_for
from repro.memory.cache import Cache
from repro.memory.hierarchy import (
    MemoryHierarchy,
    ServiceLevel,
    mlp_from_intervals,
)
from repro.perf.golden import golden_matrix, snapshot_cell
from repro.pipeline import cext
from repro.pipeline.core import SMTCore
from repro.policies import make_policy

from conftest import needs_cext

_FIXTURE = Path(__file__).parent / "golden" / "golden_stats.json"
_MATRIX = {sc.name: sc for sc in golden_matrix()}


def _native(cfg: MemoryConfig):
    return cext._engine().Hierarchy(cfg)


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


def _python_state(h: MemoryHierarchy) -> dict:
    """``Hierarchy.state()``'s canonical form of a MemoryHierarchy."""
    def cache(c):
        return ([list(s) for s in c._sets], c.hits, c.misses)

    def tlb(t):
        return (list(t._entries), t.hits, t.misses)

    assert all(level is ServiceLevel.MEM for _, level in h._pending.values())
    pf = h.prefetcher
    prefetcher = None if pf is None else {
        "stride": {i: (e.last_addr, e.stride, e.confidence)
                   for i, e in pf.stride_predictor._table.items()},
        "buffers": [(dict(b.entries), b.next_addr, b.stride, b.last_used,
                     b.valid, b.hits_since_alloc, b.alloc_cycle)
                    for b in pf._buffers],
        "hits": pf.hits, "lookups": pf.lookups,
        "allocations": pf.allocations,
        "prefetches_issued": pf.prefetches_issued,
    }
    return {
        "l1i": cache(h.l1i), "l1d": cache(h.l1d), "l2": cache(h.l2),
        "l3": cache(h.l3), "itlb": tlb(h.itlb), "dtlb": tlb(h.dtlb),
        "pending": {line: ready for line, (ready, _) in h._pending.items()},
        "fill_ends": sorted(h._fill_ends),
        "last_ll_end": h._last_ll_end,
        "ll_intervals": list(h.ll_intervals),
        "ll_loads_per_thread": dict(h.ll_loads_per_thread),
        "demand_loads": h.demand_loads,
        "merged_loads": h.merged_loads,
        "prefetch_covered": h.prefetch_covered,
        "prefetcher": prefetcher,
    }


def _result(r) -> tuple:
    return (r.complete_cycle, r.detect_cycle, r.level, r.tlb_miss,
            r.long_latency, r.trigger, r.fill_line)


def _step(native, ref, op: str, thread: int, pc: int, addr: int,
          cycle: int) -> None:
    """One access on both models; the results must agree."""
    if op == "ifetch":
        assert native.ifetch(thread, addr, cycle) == \
            ref.ifetch(thread, addr, cycle)
    elif op == "cancel_fill":
        line = addr >> 6
        assert native.cancel_fill(line, addr, cycle) == \
            ref.cancel_fill(line, addr, cycle)
    else:
        got = getattr(native, op)(thread, pc, addr, cycle)
        want = getattr(ref, op)(thread, pc, addr, cycle)
        assert _result(got) == _result(want)
        assert type(got) is type(want)


# ---------------------------------------------------------------------- #
# differential: random access streams
# ---------------------------------------------------------------------- #

_accesses = st.lists(
    st.tuples(st.sampled_from(("load", "store", "ifetch", "cancel_fill")),
              st.integers(0, 47),        # line: 6 pages of 8 lines
              st.integers(0, 63),        # byte in line
              st.integers(0, 9),         # pc
              st.integers(0, 45),        # cycles since the last access
              st.integers(0, 2)),        # thread
    min_size=1, max_size=80)


@needs_cext
@settings(max_examples=250, deadline=None)
@given(prefetch=st.booleans(), serialize=st.booleans(), accesses=_accesses)
def test_matches_python(prefetch, serialize, accesses):
    cfg = _small_memory(prefetch, serialize)
    native, ref = _native(cfg), MemoryHierarchy(cfg)
    cycle = 0
    for op, line, byte, pc, gap, thread in accesses:
        cycle += gap
        _step(native, ref, op, thread, pc, line * 64 + byte, cycle)
        assert native.state() == _python_state(ref)
        assert native.check() is None
    assert native.mlp() == ref.mlp()
    assert native.ll_load_count == ref.ll_load_count


_streams = st.lists(
    st.tuples(st.integers(0, 9),          # pc
              st.integers(-8, 47),        # start line
              st.integers(-300, -1)),     # stride in bytes
    min_size=1, max_size=3)


@needs_cext
@settings(max_examples=150, deadline=None)
@given(serialize=st.booleans(), streams=_streams,
       steps=st.integers(4, 40), gap=st.integers(0, 45),
       stores=st.booleans())
def test_negative_strides_match_python(serialize, streams, steps, gap,
                                       stores):
    """Descending streams train negative strides: the stream buffers
    floor-divide them into line strides and walk ``next_addr`` below 0,
    and addresses below 0 floor through ``>>`` and ``%``."""
    cfg = _small_memory(True, serialize)
    native, ref = _native(cfg), MemoryHierarchy(cfg)
    cycle = 0
    for i in range(steps):
        for pc, start, stride in streams:
            cycle += gap
            op = "store" if stores and i % 5 == 4 else "load"
            _step(native, ref, op, 0, pc, start * 64 + i * stride, cycle)
            assert native.state() == _python_state(ref)
    assert native.check() is None


@needs_cext
def test_negative_stride_reaches_below_zero():
    """The hypothesis stream above can reach these states; pin that one
    run does: a buffer allocated on a negative line stride of more than
    one line, prefetching lines below 0."""
    cfg = _small_memory(True, False)
    native, ref = _native(cfg), MemoryHierarchy(cfg)
    for i in range(12):
        _step(native, ref, "load", 0, 3, 600 - 200 * i, 100 * i)
    state = native.state()
    assert state == _python_state(ref)
    buffers = state["prefetcher"]["buffers"]
    assert any(b[2] < -1 for b in buffers)                 # line stride
    assert any(line < 0 for b in buffers for line in b[0])


@needs_cext
def test_long_stream_on_table_iv_config(monkeypatch):
    """20,000 accesses on the Table IV hierarchy, concentrated on three
    sets of every level: every level evicts and the pending table grows
    well past its first capacity."""
    evicted: set[str] = set()
    install = Cache.install

    def counting_install(self, addr):
        victim = install(self, addr)
        if victim is not None:
            evicted.add(self.name)
        return victim

    monkeypatch.setattr(Cache, "install", counting_install)
    cfg = MemoryConfig()
    native, ref = _native(cfg), MemoryHierarchy(cfg)
    rnd = random.Random(18)
    # 4,096 L3 sets, a multiple of the L1s' and the L2's set counts
    lines = [s + k * 4096 for s in (0, 1, 2) for k in range(48)]
    ops = ("load",) * 12 + ("store",) * 4 + ("ifetch",) * 3 + ("cancel_fill",)
    cycle = peak = 0
    for i in range(20_000):
        cycle += rnd.randrange(30)
        _step(native, ref, rnd.choice(ops), rnd.randrange(2),
              rnd.randrange(16), rnd.choice(lines) * 64 + rnd.randrange(64),
              cycle)
        peak = max(peak, len(ref._pending))
        if i % 2_500 == 0:
            assert native.state() == _python_state(ref)
    assert native.state() == _python_state(ref)
    assert native.check() is None
    assert evicted == {"L1I", "L1D", "L2", "L3"}
    assert peak > 64


# ---------------------------------------------------------------------- #
# the Python face
# ---------------------------------------------------------------------- #

@needs_cext
def test_values_outside_int64_raise_overflow():
    native = _native(_small_memory(True, False))
    native.load(0, 1, 64, 0)
    before = native.state()
    for call in (lambda: native.load(0, 1, 2**63, 0),
                 lambda: native.load(0, -2**63 - 1, 64, 0),
                 lambda: native.store(0, 1, 64, 2**64),
                 lambda: native.ifetch(0, 2**63, 0),
                 lambda: native.cancel_fill(2**63, 64, 0)):
        with pytest.raises(OverflowError):
            call()
    assert native.state() == before       # refused before any effect
    # intermediates past int64 raise too (Python would carry on)
    with pytest.raises(OverflowError):
        native.load(0, 1, 4096 * 64, 2**63 - 2)     # + the TLB penalty
    stride = _native(_small_memory(True, False))
    stride.load(0, 5, 2**62, 0)
    with pytest.raises(OverflowError):
        stride.load(0, 5, -2**63 + 5, 1)            # addr - last_addr


@needs_cext
def test_python_face():
    cfg = _small_memory(True, False)
    native = _native(cfg)
    assert native.cfg is cfg
    assert isinstance(native.load(0, 1, 64, 0).level, ServiceLevel)
    intervals = native.ll_intervals
    native.load(1, 2, 4096, 10)
    assert native.ll_intervals is intervals and len(intervals) == 2
    assert native.mlp() == mlp_from_intervals(intervals)
    assert native.ll_load_count == 2
    assert native.ll_loads_per_thread == {0: 1, 1: 1}
    # reset_measurement's assignments
    native.ll_intervals = []
    native.ll_loads_per_thread = {}
    native.demand_loads = native.merged_loads = native.prefetch_covered = 0
    assert native.ll_load_count == 0 and native.mlp() == 0.0
    with pytest.raises(TypeError):
        native.ll_intervals = ()
    with pytest.raises(TypeError):
        native.ll_loads_per_thread = []
    with pytest.raises(ValueError, match="line size"):
        _native(replace(cfg, l1d=CacheConfig(96 * 3, 1, 96)))
    with pytest.raises(ValueError, match="page size"):
        _native(replace(cfg, dtlb=TLBConfig(4, 1000)))


@needs_cext
def test_cext_core_runs_the_native_model():
    cfg = scaled_config(num_threads=2)
    traces = [trace_for(name, cfg, t) for t, name in
              enumerate(("mcf", "swim"))]
    core = cext.CextCore(cfg, traces, make_policy("mlp_flush"))
    assert type(core.hierarchy) is cext._engine().Hierarchy
    core.begin_measurement(500)
    core.advance_to(1_500)
    assert core.stats.ll_intervals is core.hierarchy.ll_intervals
    assert core.stats.ll_intervals
    assert core.hierarchy.check() is None
    core.detach()


# ---------------------------------------------------------------------- #
# whole runs: no Python memory call
# ---------------------------------------------------------------------- #

def _fixture() -> dict:
    return json.loads(_FIXTURE.read_text())["cells"]


@needs_cext
def test_native_run_makes_no_python_memory_call(monkeypatch):
    def refuse(self, *args):
        raise AssertionError("a Python memory call on the native model")

    for name in ("load", "store", "ifetch", "cancel_fill"):
        monkeypatch.setattr(MemoryHierarchy, name, refuse)
    fixture = _fixture()
    cells = [sc for sc in _MATRIX.values() if "runahead" not in sc.policy]
    assert len(cells) == 32
    for sc in cells:
        assert snapshot_cell(sc, backend="cext") == fixture[sc.name]


# ---------------------------------------------------------------------- #
# DCRA's resource shares from its cached per-thread weights
# ---------------------------------------------------------------------- #

def _dcra_core(policy: str, cfg: SMTConfig) -> SMTCore:
    traces = [trace_for("gzip", cfg, t) for t in range(cfg.num_threads)]
    return SMTCore(cfg, traces, make_policy(policy))


@pytest.mark.parametrize("policy", ("dcra", "mlp_dcra"))
@pytest.mark.parametrize("cfg", [SMTConfig(num_threads=n, rob_size=840)
                                 for n in range(1, 9)]
                         + [with_window_size(SMTConfig(num_threads=16),
                                             512)],
                         ids=[f"{n}t" for n in range(1, 9)] + ["16t-w512"])
def test_dcra_cached_limits_match_fresh(policy, cfg):
    """``slow_weights`` caches each thread's slow weight (written at
    ``attach`` and, for ``mlp_dcra``, at each detection); the limits
    the core derives from it equal limits computed from scratch."""
    core = _dcra_core(policy, cfg)
    pol = core.policy
    rnd = random.Random(cfg.num_threads)
    seen = set()

    def fresh(ts):
        bonus = pol.slow_weight - 1.0
        weights = [
            (1.0 + bonus * min(pol._mlp_need[t.tid], 1.0)
             if policy == "mlp_dcra" else pol.slow_weight)
            if t.outstanding_misses > 0 else 1.0
            for t in core.threads]
        total = 0.0
        for w in weights:
            total += w
        share = weights[ts.tid] / total
        return tuple(size * share for size in (
            cfg.rob_size, cfg.lsq_size, cfg.int_iq_size, cfg.fp_iq_size,
            cfg.int_rename_regs, cfg.fp_rename_regs))

    for _ in range(400):
        for ts in core.threads:
            ts.outstanding_misses = rnd.choice((0, 0, 1, 3))
        if policy == "mlp_dcra" and rnd.random() < 0.3:
            # a detection updates the thread's MLP need
            ts = rnd.choice(core.threads)
            pc = rnd.randrange(64)
            ts.mlp_pred.train(pc, rnd.randrange(1, 40))
            pol.on_ll_detect(SimpleNamespace(instr=SimpleNamespace(pc=pc)),
                             ts)
        for ts in core.threads:
            assert core.partition_limits(ts) == fresh(ts)
            seen.add(core.partition_limits(ts))
    assert len(seen) > 1 or cfg.num_threads == 1   # one thread: one share
    assert len(pol.slow_weights) == cfg.num_threads
    core.detach()
