"""Opt-in runtime sanitizer for the engine allocation paths.

``REPRO_SANITIZE=1`` makes :func:`repro.experiments.runner.core_for`
return *checked* engine subclasses (:class:`CheckedSMTCore`,
:class:`CheckedCextCore`) that check the two recycling allocators — the
object engine's retired-``DynInstr`` pool and the compiled engine's slot
arena — with the classic allocator-sanitizer checks:

* **double-free** — a record or slot returned to the pool or free list
  twice;
* **use-after-free** — a pooled record reachable from live pipeline
  state, or a pooled record or free slot whose pristine invariants were
  mutated while it was free;
* **leak** — an arena slot that is neither freed nor reachable from any
  live root (front-end queues, windows, rename maps, event wheels,
  waiter/old-map/parent edges, policy-held views);
* **event-wheel monotonicity** — an armed calendar-queue entry dated
  before the current cycle (an event the fast-forward probe skipped
  would silently never fire).

The two engines are checked at different grains:

* :class:`CheckedSMTCore` swaps its pool for a :class:`CheckedPool` and
  overrides :meth:`step`, which the object engine's ``_run_until``
  answers by calling ``step()`` once per cycle; each call runs one pass
  of the engine's run loop.  Every free, every allocation and every
  cycle is checked.
* :class:`CheckedCextCore` runs the compiled loop unchanged and calls
  the arena's C ``check`` at every measurement boundary
  (``begin_measurement`` and ``advance_to``, also when the run fails:
  a violated invariant is then raised in place of the engine's error).
  It checks, in order:
  that no wheel mark or spill-heap head is dated before the cycle; that
  no slot is on the free list twice; that every free slot has
  ``F_FREED`` and is pristine (``pending`` 0, ``refs`` 0, ``waiter0``
  and ``old_map`` -1, no waiters, parents, ``fill_line`` or view); that
  every ``F_FREED`` slot is on the free list; and the leak scan, from
  the thread queues, rename maps, waiting branches, queued events,
  ready heaps and the views policies hold (``ll_owners``,
  ``policy_data``) through the ``old_map``, waiter and parent edges.
  It then calls the ``check`` of the core's memory model, the native
  ``_cext_engine.Hierarchy`` (the only model the loop runs): no cache
  set holds more than ``assoc`` lines, a duplicate tag or another set's
  line; no TLB holds more than ``entries`` pages; the TLB indexes, the
  pending-fill table and the stride table agree with their entries
  (every entry found by its key); the fill heap is a heap of at most
  ``mshr_entries`` ends; no stream buffer holds more than
  ``buffer_entries`` lines or one twice (a Python model, which the
  loop refuses with a ``TypeError``, is not checked, so that error
  stands).  The arena and the model live in C memory, so per-operation
  checks cannot see them: a defect goes unseen only if it is made and
  repaired between two boundaries.

Sanitized runs stay **bit-exact**: the golden matrix passes under
``REPRO_SANITIZE=1`` on both backends, and the ``golden-sanitize`` CI
leg holds it there.

With the variable unset the module is never imported and the engines
run their unchecked allocators — zero cost when off.

Violations raise :class:`SanitizerError`, an ``AssertionError``
subclass, so they fail tests loudly and are distinguishable from
engine exceptions.
"""

from __future__ import annotations

from collections.abc import Iterable
import os
from typing import TYPE_CHECKING, Any

from repro.pipeline.cext import CextCore, _engine
from repro.pipeline.core import SMTCore

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.pipeline.dyninstr import DynInstr

#: Environment variable that switches the sanitizer on ("" / "0" = off).
SANITIZE_ENV = "REPRO_SANITIZE"


def sanitize_enabled() -> bool:
    """The REPRO_SANITIZE knob (default off)."""
    return os.environ.get(SANITIZE_ENV, "") not in ("", "0")


class SanitizerError(AssertionError):
    """An engine allocator invariant was violated under REPRO_SANITIZE."""


def checked_variant(cls: type) -> type:
    """The checked subclass for a stock engine class.

    Specialized cores (runahead's ``core_class``) pass through
    unchanged — they opt out of pooling anyway and own their driving
    loops, so the allocator checks have nothing to attach to.
    """
    if cls is SMTCore:
        return CheckedSMTCore
    if cls is CextCore:
        return CheckedCextCore
    return cls


# --------------------------------------------------------------------- #
# event-wheel monotonicity (the object engine's wheels)
# --------------------------------------------------------------------- #

def _check_wheels(core: SMTCore, cycle: int) -> None:
    """No armed calendar entry may be dated before the current cycle.

    Buckets drain exactly at their own cycle and every fast-forward jump
    is bounded by the armed marks, so an entry dated ``< cycle`` before
    cycle ``cycle`` runs is an event that was skipped and will never
    fire.
    """
    for name in ("_ev_marks", "_dt_marks", "_wb_marks"):
        marks = getattr(core, name)
        if marks and marks[0] < cycle:
            raise SanitizerError(
                f"event wheel non-monotonic: {name}[0]={marks[0]} is "
                f"before cycle {cycle} (skipped bucket)")
    for name in ("_ev_over", "_dt_over"):
        over = getattr(core, name)
        if over and over[0][0] < cycle:
            raise SanitizerError(
                f"event wheel non-monotonic: {name} head due at "
                f"{over[0][0]} is before cycle {cycle}")
    wb_over = core._wb_over
    if wb_over and wb_over[0] < cycle:
        raise SanitizerError(
            f"event wheel non-monotonic: _wb_over head due at "
            f"{wb_over[0]} is before cycle {cycle}")


# --------------------------------------------------------------------- #
# object engine: checked DynInstr pool
# --------------------------------------------------------------------- #

def _assert_pristine_record(di: DynInstr, when: str) -> None:
    """The pool-entry contract (the recycle guards, re-stated)."""
    if not di.retired:
        raise SanitizerError(
            f"{when}: pooled DynInstr t{di.thread}#{di.seq} is not "
            f"retired")
    if di.refs:
        raise SanitizerError(
            f"{when}: pooled DynInstr t{di.thread}#{di.seq} still has "
            f"refs={di.refs}")
    if di.in_detects:
        raise SanitizerError(
            f"{when}: pooled DynInstr t{di.thread}#{di.seq} has a "
            f"queued long-latency detection")


class CheckedPool(list):
    """A DynInstr free list that checks the recycle contract.

    Drop-in for the plain list in ``SMTCore._di_pool`` (the engine only
    ever calls ``append``/``pop``/``len``/truth on it).  Tracks pooled
    object identities to catch double-frees at ``append`` and re-checks
    the pristine contract at ``pop`` — a record mutated *while pooled*
    is a use-after-free by whoever kept the reference.
    """

    __slots__ = ("_ids",)

    def __init__(self, items: Iterable = ()):
        super().__init__(items)
        self._ids = {id(di) for di in self}

    def append(self, di: DynInstr) -> None:
        ids = self._ids
        if id(di) in ids:
            raise SanitizerError(
                f"double free: DynInstr t{di.thread}#{di.seq} returned "
                f"to the pool twice")
        _assert_pristine_record(di, "free")
        ids.add(id(di))
        super().append(di)

    def pop(self, index: int = -1) -> DynInstr:
        di = super().pop(index)
        self._ids.discard(id(di))
        _assert_pristine_record(di, "alloc (mutated while pooled)")
        return di


class CheckedSMTCore(SMTCore):
    """Object engine with the DynInstr pool under sanitizer checks."""

    __slots__ = ()

    def __init__(self, *args: Any, **kwargs: Any):
        super().__init__(*args, **kwargs)
        if self._di_pool is not None:
            self._di_pool = CheckedPool(self._di_pool)

    # Overriding step() makes _run_until call it once per cycle; the base
    # step() runs one pass of the same loop, so the checks see every cycle.
    def step(self) -> None:
        cycle = self.cycle
        _check_wheels(self, cycle)
        super().step()
        if self.cycle <= cycle:
            raise SanitizerError(
                f"step() did not advance the cycle (stuck at {cycle})")

    def advance_to(self, commits: int,
                   max_cycles: int | None = None) -> bool:
        done = super().advance_to(commits, max_cycles)
        self.sanitize_check()
        return done

    def sanitize_check(self) -> None:
        """Scan live pipeline state for pooled (freed) records."""
        pool = self._di_pool
        if not isinstance(pool, CheckedPool):
            return
        ids = pool._ids
        if len(ids) != len(pool):
            raise SanitizerError(
                f"pool identity set out of sync: {len(ids)} ids for "
                f"{len(pool)} pooled records")

        def check(di: DynInstr, where: str) -> None:
            if id(di) in ids:
                raise SanitizerError(
                    f"use after free: pooled DynInstr t{di.thread}"
                    f"#{di.seq} still reachable from {where}")

        for ts in self.threads:
            for di in ts.fe_queue:
                check(di, f"thread {ts.tid} fe_queue")
            for di in ts.window:
                check(di, f"thread {ts.tid} window")
            for di in ts.rename_map:
                if di is not None:
                    check(di, f"thread {ts.tid} rename_map")
            if ts.waiting_branch is not None:
                check(ts.waiting_branch, f"thread {ts.tid} waiting_branch")
            for di in ts.ll_owners:
                check(di, f"thread {ts.tid} ll_owners")
        for name in ("_ev_buckets", "_dt_buckets"):
            for bucket in getattr(self, name):
                if bucket:
                    for di in bucket:
                        check(di, name)
        for name in ("_ev_over", "_dt_over"):
            for entry in getattr(self, name):
                check(entry[2], name)


# --------------------------------------------------------------------- #
# compiled engine: the slot arena, checked at measurement boundaries
# --------------------------------------------------------------------- #

class CheckedCextCore(CextCore):
    """The ``cext`` backend under ``REPRO_SANITIZE=1``.

    Runs the compiled loop as is and checks the arena whenever it
    returns to Python at a measurement boundary (see the module doc).
    """

    __slots__ = ()

    def begin_measurement(self, warmup: int,
                          max_cycles: int | None = None) -> None:
        try:
            super().begin_measurement(warmup, max_cycles)
        finally:
            self.sanitize_check()

    def advance_to(self, commits: int,
                   max_cycles: int | None = None) -> bool:
        try:
            return super().advance_to(commits, max_cycles)
        finally:
            self.sanitize_check()

    def sanitize_check(self) -> None:
        """The arena's ``check`` (wheels, free list, leaks), then the
        native memory model's (module doc).  A part the loop refuses (a
        Python hierarchy, or a Python LLSR on a thread) has nothing to
        check, so the run's ``TypeError`` naming backend 'object'
        stands."""
        problem = self._arena.check(self)
        hierarchy = self.hierarchy
        if problem is None and type(hierarchy) is _engine().Hierarchy:
            problem = hierarchy.check()
        if problem is not None:
            raise SanitizerError(problem)
