"""The compiled engine's arena free list: freed slots are pristine.

The ``cext`` engine keeps every in-flight instruction as a slot of its
native arena and recycles a slot through a free list once nothing can
reach it (retired or squashed, no references, no queued detection).  A
fetch re-arms a free slot by writing only the columns that vary, so
every slot on the free list must already hold the values a fresh one
would.  The object engine recycles nothing: each fetch builds a fresh
``DynInstr``.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import StubTrace, alu, branch, load, needs_cext, store
from repro.config import SMTConfig
from repro.pipeline.cext import CextCore
from repro.pipeline.dyninstr import F_FREED
from repro.policies import make_policy


def _soa_assert_free_list_pristine(core):
    """Every slot on the free list carries exactly the state the alloc
    fast path relies on without re-writing (see the arena contract in
    the ``cext`` module docstring), and no live engine structure still
    references it.
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
