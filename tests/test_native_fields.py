"""The compiled engine's per-cycle integers, through their Python face.

A cext core and each of its threads keep the integers the stages touch
every cycle (the cycle, the shared and per-thread resource counters,
the wake latches, ``icount``, the fetch index, ...) as int64 fields of
a native block the object owns.  The engine's descriptors read and
write them under the object engine's attribute names, so policies,
``advance_to`` and the sanitizer use ``core.cycle`` and ``ts.icount``
as before.  These tests hold that face to the object engine: the same
values at every ``advance_to`` boundary of the golden cells, hooks that
write the fields, the errors of a bad write, and reads after
``detach()``.
"""

from __future__ import annotations

from dataclasses import asdict

import pytest

from repro.api import Session
from repro.config import scaled_config
from repro.experiments.runner import trace_for
from repro.isa import Instr
from repro.perf.golden import golden_matrix
from repro.pipeline import cext
from repro.pipeline.core import SMTCore
from repro.policies.base import FetchPolicy

from conftest import needs_cext

pytestmark = needs_cext

#: The moved fields the object engine keeps with the same meaning.  The
#: release epochs (``_release_epoch``, ``_stall_latch_epoch``, each
#: thread's ``dispatch_blocked_epoch``) only ever compare for equality
#: and step at different points on the two engines; ``_fe_mask``,
#: ``_dispatch_wake`` and ``head_ready`` are the compiled loop's own.
CORE_FIELDS = ("cycle", "_gseq", "_wb_used", "rob_used", "lsq_used",
               "iq_used", "fq_used", "int_regs_used", "fp_regs_used",
               "_heads_mask", "_fetch_wake", "_stall_latch_until",
               "_committed_watermark", "_commit_pending", "_measure_start")
THREAD_FIELDS = ("icount", "rob_count", "lsq_count", "iq_count", "fq_count",
                 "int_regs", "fp_regs", "fetch_index", "fetch_blocked_until",
                 "dispatch_wait_until", "last_ifetch_line",
                 "outstanding_misses")


def _fields(core) -> dict:
    out = {name: getattr(core, name) for name in CORE_FIELDS}
    for ts in core.threads:
        out.update({f"t{ts.tid}.{name}": getattr(ts, name)
                    for name in THREAD_FIELDS})
    return out


def _in_flight(core) -> list:
    """Each in-flight instruction's thread, seq and ``instr`` (every slot
    with its type), front-end queue then window: records on the object
    engine, views of slots on cext."""
    view = core.view if isinstance(core, cext.CextCore) else None
    return [(ts.tid, di.seq,
             tuple((type(getattr(di.instr, name)), getattr(di.instr, name))
                   for name in Instr.__slots__))
            for ts in core.threads for queue in (ts.fe_queue, ts.window)
            for di in (map(view, queue) if view else queue)]


def _cells():
    return [sc for sc in golden_matrix() if "runahead" not in sc.policy]


def test_golden_cells_read_alike_at_every_boundary():
    """The 32 non-runahead golden cells, warmed up and advanced in six
    steps: at each boundary every field, and every in-flight
    instruction's ``instr`` (built from the cext arena's columns),
    reads the same on both engines."""
    session = Session()
    cells = _cells()
    assert len(cells) == 32
    for sc in cells:
        cores = [session._build_core(sc.to_runspec(backend=backend))
                 for backend in ("object", "cext")]
        assert type(cores[1]).__name__ == "CextCore"
        for core in cores:
            core.begin_measurement(sc.warmup)
        assert _fields(cores[1]) == _fields(cores[0]), (sc.name, "warmup")
        in_flight = 0
        for target in range(250, sc.commits + 1, 250):
            for core in cores:
                core.advance_to(target)
            assert _fields(cores[1]) == _fields(cores[0]), (sc.name, target)
            want = _in_flight(cores[0])
            assert _in_flight(cores[1]) == want, (sc.name, target)
            in_flight += len(want)
        assert in_flight > 0, sc.name
        for core in cores:
            core.detach()


class _FieldWriter(FetchPolicy):
    """Writes moved fields from its hooks: every 40th fetched load blocks
    its thread's fetch for 30 cycles (``ts.fetch_blocked_until`` and
    ``core._fetch_wake = 0``, as CGMT's switch does), and every load
    completion re-arms the dispatch latches (``_dispatch_wake`` is the
    compiled loop's own: on the object engine nothing reads it)."""

    name = "field_writer"

    def __init__(self):
        super().__init__()
        self.loads = 0

    def on_fetch(self, di, ts):
        if di.is_load:
            self.loads += 1
            if self.loads % 40 == 0:
                core = self.core
                ts.fetch_blocked_until = core.cycle + 30
                core._fetch_wake = 0

    def on_load_complete(self, di, ts):
        core = self.core
        core._dispatch_wake = 0
        core._stall_latch_until = 0
        ts.dispatch_wait_until = 0


@pytest.mark.parametrize("workload", (("mcf", "swim"),
                                      ("gzip", "art", "mcf", "twolf")))
def test_hook_writes_run_alike(workload):
    cfg = scaled_config(num_threads=len(workload))
    outcome = []
    for cls in (SMTCore, cext.CextCore):
        traces = [trace_for(name, cfg, t) for t, name in enumerate(workload)]
        policy = _FieldWriter()
        core = cls(cfg, traces, policy)
        core.run(2_000, warmup=300)
        outcome.append((asdict(core.stats), _fields(core), policy.loads))
        core.detach()
    assert outcome[0][2] > 200
    assert outcome[1] == outcome[0]


def _core():
    cfg = scaled_config(num_threads=2)
    return cext.CextCore(cfg, [trace_for(name, cfg, t) for t, name
                               in enumerate(("mcf", "swim"))],
                         FetchPolicy())


@pytest.mark.parametrize("owner", ("core", "thread"))
def test_bad_writes_raise(owner):
    core = _core()
    obj, name = ((core, "_fetch_wake") if owner == "core"
                 else (core.threads[1], "fetch_blocked_until"))
    setattr(obj, name, 7)
    for bad in (7.0, "7", None):
        with pytest.raises(TypeError, match="must be an int"):
            setattr(obj, name, bad)
    for big in (1 << 63, -(1 << 63) - 1):
        with pytest.raises(OverflowError):
            setattr(obj, name, big)
    with pytest.raises(AttributeError):
        delattr(obj, name)
    assert getattr(obj, name) == 7            # no bad write landed
    setattr(obj, name, (1 << 63) - 1)
    assert getattr(obj, name) == (1 << 63) - 1
    setattr(obj, name, True)                  # an int subclass
    assert getattr(obj, name) == 1
    core.detach()


def test_fields_are_per_object():
    """Each thread and core writes its own block: a write to one thread's
    field reads back there and nowhere else."""
    cores = [_core(), _core()]
    for i, core in enumerate(cores):
        for ts in core.threads:
            ts.icount = 100 * i + ts.tid
            ts.fetch_index = 1000 * i + 10 * ts.tid
        core._gseq = 7 + i
    for i, core in enumerate(cores):
        assert core._gseq == 7 + i
        for ts in core.threads:
            assert (ts.icount, ts.fetch_index) == (100 * i + ts.tid,
                                                   1000 * i + 10 * ts.tid)
        core.detach()


def test_fields_outlive_detach():
    core = _core()
    core.run(1_000, warmup=200)
    want = (core.cycle, [ts.icount for ts in core.threads],
            core.stats.cycles)
    assert want[0] > 0 and core._measure_start > 0
    core.detach()
    assert (core.cycle, [ts.icount for ts in core.threads],
            core.stats.cycles) == want
    assert core.cycle - core._measure_start == core.stats.cycles
