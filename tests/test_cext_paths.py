"""The compiled loop's in-C paths, each against its Python reference.

``_cext_engine.c`` does kinds of work itself whose Python bodies stay
as the object engine's code and as the reference: the fast-forward
target (``SMTCore._next_cycle``) and the iteration-varying slots of
``SyntheticTrace.get``.  The golden matrix and ``test_differential.py``
compare whole runs; the tests here drive each path through the
module's test hooks (``_next_cycle``, ``_trace_dyn``) and compare it,
state for state, with the Python body it stands in for.
``_trace_dyn`` parses the trace's body into rows as each core does,
computes a fetch's address and direction from them and builds the
``Instr`` a view's ``instr`` would (``test_cext_instr.py`` holds the
views themselves to ``get``).  The engine's
``LLSR`` is held to :class:`~repro.predictors.LLSR` op for op, and the
commit stage that shifts it (and trains the thread's native MLP
predictors in C) to the object engine's per-retire ``LLSR.commit``
over whole runs.  A policy whose hook flushes mid-burst checks that
the burst sees the thread's fetch index, icount and I-fetch line change
under it.  A policy that logs its load-completion and detection hooks
checks that events due in one cycle reach them in age order, as the
object engine's heaps pop them.  The native memory model and
predictors have their own files, ``test_native_hierarchy.py`` and
``test_native_predictors.py``.
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
from repro.policies.flush import FlushPolicy
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
# the LLSR: the native register against the Python class
# ---------------------------------------------------------------------- #

def _ring(llsr: LLSR) -> dict:
    """The Python register's state in the shape of the native state()."""
    return {"bits": list(llsr._bits), "pcs": list(llsr._pcs),
            "head": llsr._head, "filled": llsr._filled,
            "total": llsr._total, "last_one": llsr._last_one_total}


def _observed(llsr) -> tuple:
    return (list(llsr.measured), llsr.suppressed, llsr.occupancy,
            llsr.length, llsr.exclude_dependent)


def _thread(length: int, exclude: bool, build=type.__call__) -> ThreadState:
    """A ThreadState with an LLSR of ``length`` entries whose on_measure
    is its own ``_train_mlp``: every part Python, or (with CextCore's
    build) every part native."""
    cfg = scaled_config(num_threads=1, llsr_length_override=length,
                        predictors=PredictorConfig(dependence_aware=exclude))
    return ThreadState(0, trace_for("mcf", cfg, 0), cfg, build)


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
_llsr_ops = st.lists(
    st.one_of(
        st.tuples(st.just("commit"), st.booleans(), _pcs, st.booleans()),
        st.tuples(st.just("zeros"), st.integers(0, 150)),
        st.tuples(st.just("reset"))),
    min_size=1, max_size=40)


def _native_against_python(length, exclude, hook, ops):
    """Run the engine's LLSR and ``repro.predictors.LLSR`` over one op
    stream and compare every commit's result, the ring, what Python
    reads (measured, suppressed, occupancy), the on_measure calls and
    the MLP predictors after each step."""
    engine = _engine()
    ref_ts = _thread(length, exclude)
    ts = _thread(length, exclude, cext.CextCore._build)
    assert type(ts.llsr) is engine.LLSR
    assert type(ts.mlp_pred) is engine.MLPDistancePredictor
    calls: tuple[list, list] = ([], [])
    if hook == "own":
        ref, nat = ref_ts.llsr, ts.llsr
    else:
        ref, nat = (
            cls(length, None if hook == "none"
                else lambda pc, d, log=log: log.append((pc, d)), exclude)
            for cls, log in ((LLSR, calls[0]), (engine.LLSR, calls[1])))
    for op in ops:
        if op[0] == "commit":
            _, is_ll, pc, dependent = op
            assert (nat.commit(is_ll, pc, dependent)
                    == ref.commit(is_ll, pc, dependent))
        elif op[0] == "zeros":
            assert nat.commit_zeros(op[1]) is ref.commit_zeros(op[1])
        else:       # what SMTCore.reset_measurement does
            for r in (ref, nat):
                r.measured = []
                r.suppressed = 0
        assert nat.state() == _ring(ref)
        assert _observed(nat) == _observed(ref)
        assert calls[1] == calls[0]
        assert _predictors(ts) == _predictors(ref_ts)


@settings(max_examples=150, deadline=None)
@given(length=st.integers(2, 64), exclude=st.booleans(),
       hook=st.sampled_from(("none", "log")), ops=_llsr_ops)
def test_llsr_commit_zeros_matches_python(length, exclude, hook, ops):
    """``commit``, ``commit_zeros`` and measurement resets on a register
    of its own, with on_measure None or a logging callable."""
    _native_against_python(length, exclude, hook, ops)


@settings(max_examples=150, deadline=None)
@given(length=st.integers(2, 64), exclude=st.booleans(), ops=_llsr_ops)
def test_llsr_commit_matches_python(length, exclude, ops):
    """The same on each thread's own register, whose on_measure is its
    ``_train_mlp``: native MLP predictors trained through it against the
    Python ones.  The commit stage's in-C training of them is held to
    the object engine by ``test_commit_stage_llsr_matches_object``."""
    _native_against_python(length, exclude, "own", ops)


def test_native_llsr_arguments_and_errors():
    engine = _engine()
    for length in (1, 0, -5):
        with pytest.raises(ValueError) as want:
            LLSR(length)
        with pytest.raises(ValueError) as got:
            engine.LLSR(length)
        assert str(got.value) == str(want.value)
    log = []
    nat = engine.LLSR(length=3, on_measure=lambda *m: log.append(m),
                      exclude_dependent=True)
    ref = LLSR(3)
    assert nat.exclude_dependent is True and ref.exclude_dependent is False
    nat.exclude_dependent = False
    for r in (ref, nat):
        r.commit(is_long_latency_load=True, pc=7)
        r.commit(True, 9, dependent=True)
        r.commit_zeros(k=1)
    assert nat.commit(False) == ref.commit(False) == 1
    assert nat.state() == _ring(ref) and log == [(7, 1)]
    with pytest.raises(OverflowError):
        nat.commit(True, 2**63)
    with pytest.raises(OverflowError):
        nat.commit(True, -2**63 - 1)
    with pytest.raises(ValueError):
        nat.commit_zeros(-1)
    with pytest.raises(TypeError):
        nat.measured = ()
    with pytest.raises(AttributeError):
        nat.length = 3
    assert nat.state() == _ring(ref)      # nothing moved


class _PerThreadLog(FetchPolicy):
    """The base policy, giving each thread a fresh LLSR that logs its
    measurements (of its engine's type) when the core attaches."""

    name = "per_thread_log"

    def __init__(self, make):
        super().__init__()
        self.make = make
        self.logs = []

    def attach(self, core):
        super().attach(core)
        for ts in core.threads:
            log = []
            self.logs.append(log)
            ts.llsr = self.make(core.cfg.llsr_length,
                                lambda pc, d, log=log: log.append((pc, d)),
                                core.cfg.predictors.dependence_aware)


@pytest.mark.parametrize("exclude", (False, True))
@pytest.mark.parametrize("hook", ("own", "log"))
def test_commit_stage_llsr_matches_object(exclude, hook):
    """The commit stage's shifts (zero runs staged and shifted at once,
    the long-latency shift, and the in-C training of the thread's native
    MLP predictors for its own ``_train_mlp``) against the object
    engine's one ``LLSR.commit`` per retire, over whole runs: each
    thread's register, measurements, predictors and on_measure calls."""
    cfg = scaled_config(num_threads=2,
                        predictors=PredictorConfig(dependence_aware=exclude))
    outcome = []
    for cls, make in ((SMTCore, LLSR), (cext.CextCore, _engine().LLSR)):
        policy = (make_policy("mlp_flush") if hook == "own"
                  else _PerThreadLog(make))
        traces = [trace_for(n, cfg, t)
                  for t, n in enumerate(("equake", "swim"))]
        core = cls(cfg, traces, policy)
        core.run(2_000, warmup=300)
        outcome.append((
            asdict(core.stats),
            [(_ring(ts.llsr) if cls is SMTCore else ts.llsr.state(),
              _observed(ts.llsr), _predictors(ts)) for ts in core.threads],
            getattr(policy, "logs", None)))
        core.detach()
    assert outcome[1] == outcome[0]
    assert all(len(ts[1][0]) > 20 for ts in outcome[0][1])
    assert exclude == any(ts[1][1] for ts in outcome[0][1])


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
    """A burst whose hook flushes its own thread: cext (whose burst
    reads the thread's native fields again after the hook) equals the
    object engine, and neither starves the flushed thread of dispatch (both
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


# ---------------------------------------------------------------------- #
# the event wheels' due order
# ---------------------------------------------------------------------- #

class _HookOrder(FlushPolicy):
    """``flush``, logging ``(cycle, tid, seq)`` of each load completion
    and long-latency detection.  The override carries no cleanup
    marker, so the compiled loop calls it for every load."""

    __slots__ = ("log",)

    name = "hook_order"

    def __init__(self):
        super().__init__()
        self.log = []

    def on_load_complete(self, di, ts):
        self.log.append(("complete", self.core.cycle, ts.tid, di.seq))
        super().on_load_complete(di, ts)

    def on_ll_detect(self, di, ts):
        self.log.append(("detect", self.core.cycle, ts.tid, di.seq))
        super().on_ll_detect(di, ts)


def test_due_events_reach_the_hooks_in_age_order():
    """Events due in one cycle drain oldest first on both engines: the
    object engine's heaps pop in (cycle, age) order, and the compiled
    loop sorts each due bucket of its wheels by age.  Within a cycle,
    the order of completions and detections is the order the hooks
    see, and ``flush`` acts on it."""
    cfg = scaled_config(num_threads=4)
    names = ("equake", "gap", "equake", "swim")
    outcome = []
    for cls in (SMTCore, cext.CextCore):
        policy = _HookOrder()
        core = cls(cfg, [trace_for(n, cfg, t) for t, n in enumerate(names)],
                   policy)
        core.run(1_000, warmup=100)
        outcome.append((policy.log, asdict(core.stats), core.cycle))
        core.detach()
    log = outcome[0][0]
    assert len({entry[1:2] for entry in log}) < len(log)   # shared cycles
    assert outcome[1] == outcome[0]
