"""The compiled loop's in-C paths, each against its Python reference.

``_cext_engine.c`` does kinds of work itself whose Python bodies stay
as the object engine's code and as the reference: the fast-forward
target (``SMTCore._next_cycle``), ``LLSR.commit_zeros`` and the
long-latency ``LLSR.commit`` (training the thread's native MLP
predictors for ``ThreadState._train_mlp``), and the iteration-varying
slots of ``SyntheticTrace.get``.  The golden matrix and
``test_differential.py`` compare whole runs; the tests here drive each
path through the module's test hooks (``_trace_dyn``,
``_llsr_commit_zeros``, ``_llsr_commit``) and compare it, state for
state, with the Python body it stands in for.  The fetch burst's
thread registers are checked by a policy whose hook flushes mid-burst.
The native memory model and predictors have their own files,
``test_native_hierarchy.py`` and ``test_native_predictors.py``.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro import registry
from dataclasses import asdict

from repro.config import PredictorConfig, SMTConfig, scaled_config
from repro.experiments.runner import trace_for
from repro.isa import Instr
from repro.pipeline import cext
from repro.pipeline.core import (
    SimulationDeadlock,
    SimulationLimitExceeded,
    SMTCore,
)
from repro.policies import make_policy
from repro.policies.base import FetchPolicy
from repro.pipeline.thread_state import ThreadState
from repro.predictors import LLSR, MLPDistancePredictor
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
    assert engine._llsr_commit(Sub(4), 5, False) is False


def _thread(length: int, exclude: bool, native: bool) -> ThreadState:
    """A ThreadState with an LLSR of ``length`` entries whose on_measure
    is its own ``_train_mlp``, over native MLP predictors or not."""
    cfg = scaled_config(num_threads=1, llsr_length_override=length,
                        predictors=PredictorConfig(dependence_aware=exclude))
    ts = ThreadState(0, trace_for("mcf", cfg, 0), cfg)
    if native:
        ts.mlp_pred = _engine().MLPDistancePredictor(
            ts.mlp_pred._entries, ts.mlp_pred._max_distance)
        ts.binary_mlp = _engine().BinaryMLPPredictor(ts.binary_mlp._entries)
    return ts


def _predictors(ts: ThreadState) -> tuple:
    mlp, binary = ts.mlp_pred, ts.binary_mlp
    counts = tuple(getattr(mlp, name) for name in (
        "true_pos", "true_neg", "false_pos", "false_neg", "far_enough",
        "too_short"))
    if isinstance(mlp, MLPDistancePredictor):
        return counts, dict(mlp._table), dict(binary._table)
    return counts, mlp.state(), binary.state()


_pcs = st.one_of(st.integers(0, 50), st.integers(2**20, 2**20 + 50),
                 st.integers(-2**63, 2**63 - 1))
_commit_ops = st.lists(
    st.one_of(
        st.tuples(st.just("commit"), st.booleans(), _pcs, st.booleans()),
        st.tuples(st.just("zeros"), st.integers(1, 150))),
    min_size=1, max_size=40)


@settings(max_examples=150, deadline=None)
@given(length=st.integers(2, 64), exclude=st.booleans(),
       hook=st.sampled_from(("none", "own", "own_python", "other")),
       ops=_commit_ops)
def test_llsr_commit_matches_python(length, exclude, hook, ops):
    """The commit stage's long-latency shift, and the zero runs beside
    it, against LLSR.commit / commit_zeros: with no on_measure, the
    thread's own ``_train_mlp`` over native predictors (trained in C) or
    Python ones, and another callable."""
    engine = _engine()
    ref = _thread(length, exclude, native=False)
    ts = _thread(length, exclude, native=hook != "own_python")
    calls: tuple[list, list] = ([], [])
    for t, log in zip((ref, ts), calls):
        if hook == "none":
            t.llsr._on_measure = None
        elif hook == "other":
            t.llsr._on_measure = lambda pc, d, log=log: log.append((pc, d))
    for op in ops:
        if op[0] == "commit":
            _, is_ll, pc, dependent = op
            ref.llsr.commit(is_ll, pc, dependent)
            if is_ll:
                assert engine._llsr_commit(ts.llsr, pc, dependent, ts) \
                    is True
            else:
                ts.llsr.commit(False, pc, dependent)
        else:
            ref.llsr.commit_zeros(op[1])
            assert engine._llsr_commit_zeros(ts.llsr, op[1], ts) is True
        assert _llsr_state(ts.llsr) == _llsr_state(ref.llsr)
        assert _predictors(ts) == _predictors(ref)
        assert calls[1] == calls[0]


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


# ---------------------------------------------------------------------- #
# the fetch burst's registers, reloaded after a flushing hook
# ---------------------------------------------------------------------- #

class _FlushBack(FetchPolicy):
    """Flushes the fetching thread back 3 instructions from ``on_fetch``
    when its front-end queue holds 2 (the one just fetched and one
    older), at most once per 97 fetched instructions.  The flush empties
    the queue mid-burst (clearing the thread's front-end bit), the burst
    fetches on, and the fetch index, icount and I-fetch line change
    under it."""

    name = "flush_back"

    def __init__(self):
        super().__init__()
        self.next_flush = {}

    def on_fetch(self, di, ts):
        if (len(ts.fe_queue) == 2
                and ts.fetch_index >= self.next_flush.get(ts.tid, 97)):
            self.next_flush[ts.tid] = ts.fetch_index + 97
            self.core.flush_thread(ts, ts.fetch_index - 4)


class _Rewind(FetchPolicy):
    """Flushes each thread to before its first instruction, once: the
    fetch index goes negative."""

    name = "rewind"

    def __init__(self):
        super().__init__()
        self.rewound = set()

    def on_fetch(self, di, ts):
        if ts.tid not in self.rewound and ts.fetch_index >= 3:
            self.rewound.add(ts.tid)
            self.core.flush_thread(ts, -7)


def _flush_outcome(cls, policy, workload, commits):
    cfg = scaled_config(num_threads=2)
    traces = [trace_for(name, cfg, t) for t, name in enumerate(workload)]
    core = cls(cfg, traces, policy)
    core.run(commits, max_cycles=200_000)
    out = (asdict(core.stats), core.cycle)
    core.detach()
    return out


@pytest.mark.parametrize("workload", (("mcf", "gzip"), ("gzip", "swim")))
def test_flush_from_on_fetch_matches_object(workload):
    """A burst whose hook flushes its own thread: cext (burst registers
    written before the hook, read again after it) equals the object
    engine, and neither starves the flushed thread of dispatch (both
    ran into the cycle limit when the burst's end set the thread's
    front-end bit only for a queue that was empty at its start)."""
    want = _flush_outcome(SMTCore, _FlushBack(), workload, 3_000)
    assert sum(t["flushes"] for t in want[0]["threads"]) > 10
    assert _flush_outcome(cext.CextCore, _FlushBack(), workload,
                          3_000) == want


def test_flush_to_a_negative_fetch_index_matches_object():
    """Indexes below 0 wrap into the trace body by floor modulo, as in
    the object engine (the compiled fetch read outside it)."""
    want = _flush_outcome(SMTCore, _Rewind(), ("mcf", "gzip"), 2_000)
    assert _flush_outcome(cext.CextCore, _Rewind(), ("mcf", "gzip"),
                          2_000) == want


class _StallAll(FetchPolicy):
    """Every 50 cycles stalls every thread in the same cycle (one
    ``stall_start`` for all) and releases them 20 cycles later, both
    from ``on_load_complete``: COT must break the tie by tid."""

    name = "stall_all"

    def __init__(self):
        super().__init__()
        self.since = None
        self.next = 50

    def on_load_complete(self, di, ts):
        cycle = self.core.cycle
        threads = self.core.threads
        if self.since is None and cycle >= self.next:
            self.since = cycle
            for t in threads:
                t.set_owner("stall_all", t.fetch_index - 1, cycle)
        elif self.since is not None and cycle >= self.since + 20:
            self.since = None
            self.next = cycle + 50
            for t in threads:
                t.clear_owner("stall_all", cycle)


@pytest.mark.parametrize("workload", (("mcf", "gzip"),
                                      ("gzip", "swim", "art", "mcf")))
def test_cot_matches_object(workload):
    """The base fetch order's COT branch, computed in C: every thread
    stalled at once, the first in tid order fetches past its stall."""
    cfg = scaled_config(num_threads=len(workload))
    outcome = []
    for cls in (SMTCore, cext.CextCore):
        traces = [trace_for(name, cfg, t) for t, name in enumerate(workload)]
        core = cls(cfg, traces, _StallAll())
        core.run(2_000, warmup=200)
        outcome.append((asdict(core.stats), core.cycle))
        core.detach()
    assert all(t["policy_stall_cycles"] > 100
               for t in outcome[0][0]["threads"])
    assert outcome[1] == outcome[0]


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
