"""DynInstr pool recycling: no stale-field leakage across reuse.

The base core returns retired, unreferenced instruction records to a
free list and re-arms them with ``DynInstr.reinit``, which deliberately
skips the fields the commit-path recycle guards prove pristine.  These
tests pin that contract from three directions: field-by-field equality
of a reused record against a fresh construction (driven by hypothesis
over junk states), the recycle-time invariants on a real simulation's
pool, and bit-identical architectural stats with pooling force-disabled.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import StubTrace, alu, branch, load, needs_cext, store
from repro.config import SMTConfig
from repro.perf.golden import snapshot_cell
from repro.perf.scenarios import Scenario, run_scenario
from repro.pipeline.cext import CextCore
from repro.pipeline.core import SMTCore
from repro.pipeline.dyninstr import F_FREED, DynInstr
from repro.policies import make_policy

_ALL_SLOTS = DynInstr.__slots__

#: Fields ``reinit`` may skip because pool eligibility guarantees their
#: pristine value; everything else must be re-written on reuse.
_POOL_INVARIANTS = {
    "waiter0": None,
    "waiters": None,
    "old_map": None,
    "ll_parents": None,
    "squashed": False,
    "inv": False,
    "in_iq": False,
    "refs": 0,
    "in_detects": False,
}

#: Fields ``reinit`` also skips because the pipeline provably writes them
#: before their first possible read in the record's new lifetime (see the
#: ``DynInstr.reinit`` docstring): ``iq_is_fp`` at dispatch (reads gated
#: on ``in_iq``), ``predicted_ll`` at fetch (reads gated on ``is_load``),
#: ``level`` at execute (read only for completed loads).
_WRITTEN_BEFORE_READ = frozenset({"iq_is_fp", "predicted_ll", "level"})


def _instrs():
    return st.sampled_from([
        alu(3), load(5, addr=0x1234), store(7, addr=0x99), branch(9, True),
    ])


@settings(max_examples=200, deadline=None)
@given(old_instr=_instrs(), new_instr=_instrs(),
       junk_int=st.integers(min_value=-7, max_value=10**9),
       junk_flags=st.booleans())
def test_reinit_equals_fresh_construction(old_instr, new_instr,
                                          junk_int, junk_flags):
    """A reused record is field-for-field a freshly constructed one."""
    used = DynInstr(old_instr, 0, 11, 17, fe_ready=23)
    # Trash every slot the way a full lifetime might, ...
    used.pending = junk_int
    used.iq_is_fp = junk_flags
    used.issued = True
    used.completed = True
    used.is_ll = junk_flags
    used.predicted_ll = junk_flags
    used.fill_line = junk_int
    used.level = junk_int
    used.ll_dep = junk_flags
    used.retired = True
    # ... then restore exactly the states the recycle guards guarantee.
    for name, value in _POOL_INVARIANTS.items():
        setattr(used, name, value)

    used.reinit(new_instr, 1, 42, 43, fe_ready=44)
    fresh = DynInstr(new_instr, 1, 42, 43, fe_ready=44)
    for slot in _ALL_SLOTS:
        if slot in _WRITTEN_BEFORE_READ:
            continue
        assert getattr(used, slot) == getattr(fresh, slot), slot


def _run_small_core():
    cfg = SMTConfig(num_threads=2)
    body = [load(0, addr=0x1000, dest=5), alu(1, dest=6, srcs=(5,)),
            store(2, addr=0x2000, srcs=(6, 5)), branch(3, False)]
    traces = [StubTrace(list(body), base=tid << 33) for tid in range(2)]
    core = SMTCore(cfg, traces, make_policy("icount"))
    core.run(400)
    return core


def test_pool_entries_respect_recycle_invariants():
    """Everything the sim pooled is retired, unreferenced, and inert."""
    core = _run_small_core()
    pool = core._di_pool
    assert pool, "expected the commit path to recycle records"
    for di in pool:
        assert di.retired
        assert di.completed
        assert di.issued
        for name, value in _POOL_INVARIANTS.items():
            assert getattr(di, name) == value, (di, name)
        # nothing reachable from live state may point here
        for ts in core.threads:
            assert di not in ts.ll_owners
            assert all(di is not entry for entry in ts.window)
            assert all(di is not entry for entry in ts.fe_queue)
            assert all(di is not mapped
                       for mapped in ts.rename_map)


def test_pooling_is_architecturally_invisible():
    """A pooled and a pool-disabled run produce bit-identical stats."""
    sc = Scenario("pool_probe", ("mcf", "swim"), "mlp_flush",
                  commits=1_200, warmup=300, quick_commits=1_200)
    baseline = snapshot_cell(sc)

    # Same scenario with the pool force-disabled on a hand-built core.
    from repro.experiments.runner import core_for, trace_for

    cfg = sc.config()
    traces = [trace_for(name, cfg, slot=i)
              for i, name in enumerate(sc.workload)]
    policy = make_policy(sc.policy)
    core = core_for(policy)(cfg, traces, policy)
    core._di_pool = None
    stats = core.run(sc.commits, warmup=sc.warmup)

    assert stats.cycles == baseline["cycles"]
    assert core.cycle == baseline["total_cycles"]
    assert [t.committed for t in stats.threads] == \
        [t["committed"] for t in baseline["threads"]]
    assert [t.fetched for t in stats.threads] == \
        [t["fetched"] for t in baseline["threads"]]
    assert [t.squashed for t in stats.threads] == \
        [t["squashed"] for t in baseline["threads"]]


def test_detect_queued_records_are_not_pooled():
    """A record with a queued LL-detection event must never be reused."""
    core = _run_small_core()
    pool = core._di_pool
    assert all(not di.in_detects for di in pool)


# --------------------------------------------------------------------- #
# compiled engine's arena: the free list is the pool, slots are the records
# --------------------------------------------------------------------- #

def _soa_assert_free_list_pristine(core):
    """The arena analogue of the pool invariants, on the columns.

    Every slot on the free list must carry exactly the state the alloc
    fast path relies on without re-writing (see the arena contract in
    the ``cext`` module docstring), and no live engine structure may
    still reference it.
    """
    arena = core._arena
    free = set(arena["free"])
    assert free, "expected the engine to have recycled slots"
    col = {name: arena[name] for name in (
        "flags", "pending", "refs", "waiter0", "waiters", "old_map",
        "ll_parents", "fill_line", "views")}
    for s in free:
        assert col["flags"][s] & F_FREED, s
        assert col["pending"][s] == 0, s
        assert col["refs"][s] == 0, s
        assert col["waiter0"][s] == -1, s
        assert col["waiters"][s] is None, s
        assert col["old_map"][s] == -1, s
        assert col["ll_parents"][s] is None, s
        assert col["fill_line"][s] is None, s
        assert col["views"][s] is None, s
    for ts in core.threads:
        assert not free.intersection(ts.window)
        assert not free.intersection(ts.fe_queue)
        assert not free.intersection(
            s for s in ts.rename_map if s >= 0)


@needs_cext
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**20),
       segments=st.lists(st.tuples(st.integers(min_value=5, max_value=80),
                                   st.booleans(),
                                   st.integers(min_value=0, max_value=20)),
                         min_size=1, max_size=6))
def test_cext_free_slots_are_pristine(seed, segments):
    """Random runs + flush injections leave only pristine free slots.

    The compiled loop has no per-cycle ``step``: it advances in
    ``advance_to`` commit segments, and flushes land between them.
    """
    rng = random.Random(seed)
    cfg = SMTConfig(num_threads=2)
    bodies = []
    for tid in range(2):
        body = []
        for pc in range(rng.randint(4, 8)):
            # Destinations share r1-r8 with the fixed sources (r1-r4), so
            # loads feed later instructions and squashes catch producers
            # with registered waiters.
            kind = rng.randrange(4)
            if kind == 0:
                body.append(alu(pc, dest=rng.randint(1, 8)))
            elif kind == 1:
                body.append(load(pc, addr=rng.randrange(1 << 12) * 8,
                                 dest=rng.randint(1, 8)))
            elif kind == 2:
                body.append(store(pc, addr=rng.randrange(1 << 12) * 8))
            else:
                body.append(branch(pc, rng.random() < 0.5))
        bodies.append(body)
    traces = [StubTrace(body, base=(tid + 1) << 33)
              for tid, body in enumerate(bodies)]
    core = CextCore(cfg, traces, make_policy("mlp_flush"))
    target = 0
    for commits, do_flush, rewind in segments:
        target += commits
        core.advance_to(target)
        if do_flush:
            ts = core.threads[rng.randrange(2)]
            core.flush_thread(ts, max(ts.fetch_index - 1 - rewind, 0))
        _soa_assert_free_list_pristine(core)
