"""The slot arena: the state the compiled loop runs on.

:class:`SoACore` gives an :class:`~repro.pipeline.core.SMTCore` one
native ``Arena`` (a C type in ``_cext_engine.c``) holding every
in-flight instruction as a *slot*.  It is not an engine on its own:
:class:`~repro.pipeline.cext.CextCore` drives it with the compiled stage
loop, bit-exact with the object engine (``tests/test_golden_stats.py``).

The arena's contract, which the C stages and the C ``flush`` share:

* **A dynamic instruction is a slot number.**  Its fields are int64
  columns (the booleans share one ``flags`` word, see
  :mod:`repro.pipeline.dyninstr`) plus owned references where Python
  reads a value back (``instr``, ``predicted_ll``, ``fill_line``,
  ``level``, the cached view).  The free list, ready heaps, event
  wheels, per-slot waiter and parent lists and each thread's
  ``fe_queue``, ``window`` and ``rename_map`` are C memory too; Python
  sees the thread queues as read-only int sequences.
* **Packed heap/wheel entries**, ``(gseq << SLOT_SHIFT) | slot``: integer
  order is age order, and a stamp whose gseq no longer matches its
  slot's ``gseq`` column is stale (the generation check).
* **Explicit reclamation.**  A slot is freed at the *last* point the
  engine can reach it (retire with no live references, flush, or the
  drain of its final queued event); stale references are defused by
  the generation check, the ``F_FREED`` bit or the dead-view tombstone.
* **Pristine free list.**  A free slot has ``pending`` 0, ``refs`` 0,
  ``waiter0`` and ``old_map`` -1 and no waiters, parents, ``fill_line``
  or view, so a fetch writes only the columns that vary
  (``REPRO_SANITIZE=1`` checks it, :mod:`.sanitize`).  The arena starts
  at 2,048 slots and doubles when the free list runs dry, up to
  ``1 << SLOT_SHIFT``.

Views (the C ``SoAView``) are made lazily, at most one per dynamic
instruction.  ``core._arena[name]`` reads (or plants) a column, the
free list, a heap or a wheel as a Python list.
"""

from __future__ import annotations

from repro.isa import FU_CLASS_BY_OP
from repro.pipeline.core import SMTCore
from repro.pipeline.dyninstr import instr_flags


class SoACore(SMTCore):
    """The pipeline state as a native slot arena (see the module doc).

    Without the compiled engine the arena is ``None`` and the core
    cannot run (:class:`~repro.pipeline.cext.CextCore` says why).
    """

    __slots__ = ("_arena",)

    def __init__(self, cfg, traces, policy, hierarchy=None):
        super().__init__(cfg, traces, policy, hierarchy)
        from repro.pipeline.cext import _engine
        # The object engine's record pool, wheels and ready queues: the
        # arena replaces them all.
        self._di_pool = self._ready = self._ready_by_op = None
        self._ready_int = self._ready_ldst = self._ready_fp = None
        self._ev_buckets = self._ev_marks = self._ev_over = None
        self._dt_buckets = self._dt_marks = self._dt_over = None
        self._wb_buckets = self._wb_marks = self._wb_over = None
        engine = _engine()
        # The arena takes over each thread's fe_queue, window and
        # rename_map.
        self._arena = None if engine is None else engine.Arena(
            self.threads, self._wheel_mask + 1, FU_CLASS_BY_OP)
        for ts in self.threads:
            if self._arena is not None:
                ts.fe_append = None
            if ts.trace_static is not None:
                ts.trace_flags = [None if instr is None else
                                  instr_flags(instr)
                                  for instr in ts.trace_static]

    def view(self, slot: int):
        """The (cached, generation-stamped) view of ``slot``'s occupant."""
        return self._arena.view(slot)

    def flush_thread(self, ts, after_seq: int,
                     cancel_fills: bool | None = None) -> int:
        if cancel_fills is None:
            cancel_fills = self.cfg.memory.cancel_squashed_fills
        return self._arena.flush(self, ts, after_seq, cancel_fills)

    def step(self) -> None:
        # The object engine's loop (and every per-record body it calls)
        # drives a subclass through step(): refusing here keeps it off
        # the arena.
        raise NotImplementedError(
            "SoACore has no stage loop of its own; run the compiled "
            "engine (backend 'cext') or the object engine (backend "
            "'object')")
