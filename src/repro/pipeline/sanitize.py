"""Opt-in runtime sanitizer for the engines.

``REPRO_SANITIZE=1`` makes :func:`repro.experiments.runner.core_for`
return *checked* engine subclasses (:class:`CheckedSMTCore`,
:class:`CheckedRunaheadCore`, :class:`CheckedCextCore`).  Only the
compiled engine recycles instruction storage: its slot arena.  The
object engine builds a fresh ``DynInstr`` per fetch and CPython frees
it, so the classic allocator-sanitizer checks are the arena's:

* **double-free** — a slot on the free list twice;
* **use-after-free** — a free slot whose pristine invariants were
  mutated while it was free;
* **leak** — an arena slot that is neither freed nor reachable from any
  live root (front-end queues, windows, rename maps, event wheels,
  waiter/old-map/parent edges, policy-held views).

Both engines are checked for **event-queue monotonicity**: a queued
event dated before the current cycle (an event the fast-forward probe
skipped would silently never fire).  They are checked at different
grains:

* :class:`CheckedSMTCore` and :class:`CheckedRunaheadCore` override
  :meth:`step`, which the object engine's ``_run_until`` answers by
  calling ``step()`` once per cycle; each call runs one pass of the
  engine's run loop.  Every cycle is checked: the heads of the three
  event heaps before it, and after it that the cycle advanced.
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
run unchecked — zero cost when off.

Violations raise :class:`SanitizerError`, an ``AssertionError``
subclass, so they fail tests loudly and are distinguishable from
engine exceptions.
"""

from __future__ import annotations

import os

from repro.pipeline.cext import CextCore, _engine
from repro.pipeline.core import SMTCore
from repro.runahead.core import RunaheadCore

#: Environment variable that switches the sanitizer on ("" / "0" = off).
SANITIZE_ENV = "REPRO_SANITIZE"


def sanitize_enabled() -> bool:
    """The REPRO_SANITIZE knob (default off)."""
    return os.environ.get(SANITIZE_ENV, "") not in ("", "0")


class SanitizerError(AssertionError):
    """An engine invariant was violated under REPRO_SANITIZE."""


def checked_variant(cls: type) -> type:
    """The checked subclass for an engine class: one for each stock
    engine and for runahead's ``core_class``.  Any other class (a
    subclass defined elsewhere) passes through unchanged."""
    return _CHECKED.get(cls, cls)


# --------------------------------------------------------------------- #
# object engine: event-queue monotonicity, every cycle
# --------------------------------------------------------------------- #

def _check_event_heaps(core: SMTCore, cycle: int) -> None:
    """No queued event may be dated before the current cycle.

    The run loop drains every due entry at its cycle and every
    fast-forward jump is bounded by the heap heads, so an entry dated
    ``< cycle`` before cycle ``cycle`` runs is an event that was
    skipped and will never fire.
    """
    ev, dt, wb = core._ev_heap, core._dt_heap, core._wb_heap
    for name, head in (("_ev_heap", ev[0][0] if ev else cycle),
                       ("_dt_heap", dt[0][0] if dt else cycle),
                       ("_wb_heap", wb[0] if wb else cycle)):
        if head < cycle:
            raise SanitizerError(
                f"event queue non-monotonic: {name} head due at {head} "
                f"is before cycle {cycle}")


class _CheckedSteps:
    """The per-cycle checks of a checked object-engine core (a mixin
    placed before the engine class)."""

    __slots__ = ()

    # Overriding step() makes _run_until call it once per cycle; the base
    # step() runs one pass of the same loop, so the checks see every cycle.
    def step(self) -> None:
        cycle = self.cycle
        _check_event_heaps(self, cycle)
        super().step()
        if self.cycle <= cycle:
            raise SanitizerError(
                f"step() did not advance the cycle (stuck at {cycle})")


class CheckedSMTCore(_CheckedSteps, SMTCore):
    """Object engine with its event queues checked every cycle."""

    __slots__ = ()


class CheckedRunaheadCore(_CheckedSteps, RunaheadCore):
    """Runahead core with its event queues checked every cycle."""

    __slots__ = ()


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


_CHECKED: dict[type, type] = {
    SMTCore: CheckedSMTCore,
    RunaheadCore: CheckedRunaheadCore,
    CextCore: CheckedCextCore,
}
