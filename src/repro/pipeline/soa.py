"""Struct-of-arrays pipeline state: the columns the compiled loop runs on.

:class:`SoACore` holds every in-flight instruction of an
:class:`repro.pipeline.core.SMTCore` as parallel flat columns indexed by
*arena slot* (see :mod:`repro.pipeline.dyninstr` for the column schema
and the packed heap/wheel entry encoding).  It is not an engine on its
own: the stage loop that runs over these columns is compiled
(``_cext_engine.c``), and :class:`~repro.pipeline.cext.CextCore`, the
``cext`` entry in the ``backends`` registry, is the class that drives
it.  What stays in Python here is what that loop and the policy hooks
call back into — the arena (:meth:`SoACore.view`,
:meth:`SoACore._soa_grow`) and the policy-triggered squash
(:meth:`SoACore.flush_thread`); the fast-forward target is computed in
C.  The architectural contract is the object engine's, bit for bit: the
golden-stats matrix asserts identical counters cell by cell
(``tests/test_golden_stats.py``).

The arena's contract, which the C loop and :meth:`flush_thread` share:

* **A dynamic instruction is a slot number.**  Its fields live in
  parallel Python lists, and the eleven per-record booleans collapse
  into one ``flags`` word.
* **Packed int heap/wheel entries.**  Ready queues and the event wheels
  hold ``(gseq << SLOT_SHIFT) | slot`` ints: bucket age-sorts are
  key-less int sorts, and the embedded age stamp doubles as the
  generation check that replaces the object engine's reliance on GC
  liveness.
* **Explicit slot reclamation.**  The object engine pools retired
  records and lets the GC keep squashed ones alive for any straggling
  reference (queued events, waiter lists, policy-retained records).  The
  arena instead frees a slot at the *last* point the engine itself can
  reach it — retire with no live references, flush, or the drain of the
  final queued event — and every stale reference is defused either by
  the generation check (packed entries), the ``F_FREED`` guard bit
  (reclaim sites), or the dead-view tombstone (policy-retained
  :class:`~repro.pipeline.dyninstr.SoAView` proxies).
* **Pristine free-list discipline.**  Mirroring ``DynInstr.reinit``'s
  pool invariant, every free site leaves its slot with ``pending == 0``,
  ``refs == 0``, ``waiter0 == -1``, ``waiters``/``old_map``/
  ``ll_parents``/``fill_line``/``view`` cleared, so the per-fetch
  allocation writes only the six columns that actually vary (instr,
  thread, seq, gseq, fe_ready, flags).  ``REPRO_SANITIZE=1`` checks
  this at every ``advance_to`` boundary (:mod:`repro.pipeline.sanitize`).

Views are created lazily, only when a policy hook or test actually
touches a record, so hook-free policies (plain ICOUNT) allocate nothing
per instruction at all.

Deliberately unsupported: :class:`repro.runahead.RunaheadCore`-style
subclassing of the per-cycle internals.  Policies that declare a
``core_class`` keep riding the object engine (``experiments.runner.
core_for`` gives ``core_class`` precedence over the backend), and the
overridable object-engine extension points (``step``, ``_complete``,
``_execute``, ``_commit_one``, ``_try_dispatch``, ``_head_retirable``,
``_next_cycle``) raise loudly here instead of running the object
engine's bodies over slot numbers.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.isa import NUM_ARCH_REGS
from repro.pipeline.core import SMTCore
from repro.pipeline.dyninstr import (
    F_COMPLETED,
    F_DEST_FP,
    F_FREED,
    F_HAS_DEST,
    F_IN_DETECTS,
    F_IN_IQ,
    F_IQ_FP,
    F_IS_LOAD,
    F_IS_STORE,
    F_RETIRED,
    F_SQUASHED,
    SLOT_SHIFT,
    SoAView,
    instr_flags,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.config import SMTConfig
    from repro.memory.hierarchy import MemoryHierarchy
    from repro.pipeline.thread_state import ThreadState
    from repro.policies.base import FetchPolicy
    from repro.workloads.trace import SyntheticTrace

#: Initial arena capacity (slots); the arena doubles on demand, bounded
#: by the packed-entry slot width.
_INITIAL_CAPACITY = 2048

_F_MEM = F_IS_LOAD | F_IS_STORE


class SoACore(SMTCore):
    """The pipeline state as slot-indexed columns (see the module doc).

    Cycle-exact with :class:`SMTCore` when driven by the compiled loop
    (:class:`~repro.pipeline.cext.CextCore`); it has no stage loop of
    its own, so a bare instance cannot run.
    """

    __slots__ = (
        "_capacity", "_free",
        "_col_instr", "_col_thread", "_col_seq", "_col_gseq",
        "_col_packed",
        "_col_pending", "_col_fe_ready", "_col_flags", "_col_refs",
        "_col_waiter0", "_col_waiters", "_col_old_map", "_col_ll_parents",
        "_col_pred_ll", "_col_fill_line", "_col_level", "_col_views",
    )

    def __init__(self, cfg: SMTConfig, traces: list[SyntheticTrace],
                 policy: FetchPolicy,
                 hierarchy: MemoryHierarchy | None = None):
        super().__init__(cfg, traces, policy, hierarchy)
        # Object-record pooling is meaningless here (no records).
        self._di_pool = None
        cap = _INITIAL_CAPACITY
        self._capacity = cap
        self._col_instr: list = [None] * cap
        self._col_thread = [0] * cap
        self._col_seq = [0] * cap
        # -1 never matches a packed entry's stamp (gseq starts at 1), so
        # an unallocated slot defuses every stale reference.
        self._col_gseq = [-1] * cap
        # The slot's own packed stamp ``(gseq << SLOT_SHIFT) | slot``,
        # written once at allocation: generation checks become one
        # allocation-free int equality against the queued entry instead
        # of a shift (whose result CPython would have to box per check),
        # and re-pushing a slot reuses the stamp.  0 never matches a
        # queued entry (their gseq is >= 1).
        self._col_packed = [0] * cap
        self._col_pending = [0] * cap
        self._col_fe_ready = [0] * cap
        self._col_flags = [F_FREED] * cap
        self._col_refs = [0] * cap
        self._col_waiter0 = [-1] * cap
        self._col_waiters: list = [None] * cap
        self._col_old_map = [-1] * cap
        self._col_ll_parents: list = [None] * cap
        self._col_pred_ll: list = [None] * cap
        self._col_fill_line: list = [None] * cap
        self._col_level: list = [None] * cap
        self._col_views: list = [None] * cap
        # Free-list stack, seeded so pop() hands out slot 0 first.  Every
        # slot on it is *pristine* (see the module docstring): the alloc
        # path relies on pending/refs/waiter0/waiters/old_map/ll_parents/
        # fill_line/view being clear and does not re-write them.
        self._free = list(range(cap - 1, -1, -1))
        for ts in self.threads:
            # The rename map holds slot numbers (-1 = no in-flight
            # producer) instead of record references.
            ts.rename_map = [-1] * NUM_ARCH_REGS
            trace_static = ts.trace_static
            if trace_static is not None:
                ts.trace_flags = [
                    None if instr is None else instr_flags(instr)
                    for instr in trace_static]

    # ------------------------------------------------------------------ #
    # arena
    # ------------------------------------------------------------------ #

    def view(self, slot: int) -> SoAView:
        """The (cached, generation-stamped) view of ``slot``'s occupant."""
        v = self._col_views[slot]
        if v is None:
            v = self._col_views[slot] = SoAView(self, slot,
                                                self._col_gseq[slot])
        return v

    def _soa_grow(self) -> None:
        """Double the arena in place (cold; all columns keep identity)."""
        old = self._capacity
        new = old * 2
        if new > (1 << SLOT_SHIFT):
            raise RuntimeError(
                f"SoA arena cannot grow past {1 << SLOT_SHIFT} slots")
        self._col_instr.extend([None] * old)
        self._col_thread.extend([0] * old)
        self._col_seq.extend([0] * old)
        self._col_gseq.extend([-1] * old)
        self._col_packed.extend([0] * old)
        self._col_pending.extend([0] * old)
        self._col_fe_ready.extend([0] * old)
        self._col_flags.extend([F_FREED] * old)
        self._col_refs.extend([0] * old)
        self._col_waiter0.extend([-1] * old)
        self._col_waiters.extend([None] * old)
        self._col_old_map.extend([-1] * old)
        self._col_ll_parents.extend([None] * old)
        self._col_pred_ll.extend([None] * old)
        self._col_fill_line.extend([None] * old)
        self._col_level.extend([None] * old)
        self._col_views.extend([None] * old)
        self._free.extend(range(new - 1, old - 1, -1))
        self._capacity = new

    # ------------------------------------------------------------------ #
    # object-engine extension points that cannot apply here
    # ------------------------------------------------------------------ #

    def step(self) -> None:
        raise NotImplementedError(
            "SoACore has no stage loop of its own; run the compiled "
            "engine (backend 'cext') or the object engine (backend "
            "'object')")

    def _complete(self, di, cycle):  # pragma: no cover - guard
        raise NotImplementedError(
            "the cext loop inlines completion handling; subclass the "
            "object engine (backend 'object') instead")

    def _process_events(self, cycle):  # pragma: no cover - guard
        raise NotImplementedError(
            "the cext loop inlines event draining; subclass the object "
            "engine (backend 'object') instead")

    def _execute(self, di, cycle):  # pragma: no cover - guard
        raise NotImplementedError(
            "the cext loop inlines execution in its issue stage; "
            "subclass the object engine (backend 'object') instead")

    def _commit_one(self, ts, cycle):  # pragma: no cover - guard
        raise NotImplementedError(
            "SoACore has no per-record commit path; subclass the object "
            "engine (backend 'object') instead")

    def _try_dispatch(self, ts, di):  # pragma: no cover - guard
        raise NotImplementedError(
            "SoACore has no per-record dispatch path; subclass the "
            "object engine (backend 'object') instead")

    def _head_retirable(self, ts, wb_full):  # pragma: no cover - guard
        raise NotImplementedError(
            "the cext loop computes the fast-forward target itself; "
            "subclass the object engine (backend 'object') instead")

    def _next_cycle(self, cycle):  # pragma: no cover - guard
        raise NotImplementedError(
            "the cext loop computes the fast-forward target itself; "
            "subclass the object engine (backend 'object') instead")

    # ------------------------------------------------------------------ #
    # flush (policy-triggered squash)
    # ------------------------------------------------------------------ #

    def flush_thread(self, ts: ThreadState, after_seq: int,
                     cancel_fills: bool | None = None) -> int:
        # Mirrors SMTCore.flush_thread; squashed slots are reclaimed here
        # unless a queued event (completion of a counted miss, a pending
        # detection) or a policy ownership still needs them — those free
        # at their respective drains.  Keep in sync.
        squashed = 0
        fe = ts.fe_queue
        icount_delta = 0
        col_instr = self._col_instr
        col_seq = self._col_seq
        col_pending = self._col_pending
        col_flags = self._col_flags
        col_refs = self._col_refs
        col_waiter0 = self._col_waiter0
        col_waiters = self._col_waiters
        col_old_map = self._col_old_map
        col_ll_parents = self._col_ll_parents
        col_fill_line = self._col_fill_line
        col_views = self._col_views
        free = self._free
        ll_owners = ts.ll_owners
        while fe and col_seq[fe[-1]] > after_seq:
            s = fe.pop()
            fl = col_flags[s] | F_SQUASHED
            icount_delta += 1
            squashed += 1
            # Never dispatched: no references, no queued events — still
            # pristine but for a possible hook-created view.  Only a
            # policy fetch-gating ownership can still reach the slot.
            v = col_views[s]
            if v is None or v not in ll_owners:
                col_views[s] = None
                col_flags[s] = fl | F_FREED
                free.append(s)
            else:
                col_flags[s] = fl
        if cancel_fills is None:
            cancel_fills = self.cfg.memory.cancel_squashed_fills
        window = ts.window
        rename_map = ts.rename_map
        cycle = self.cycle
        rob_delta = lsq_delta = iq_delta = fq_delta = 0
        int_regs_delta = fp_regs_delta = 0
        while window and col_seq[window[-1]] > after_seq:
            s = window.pop()
            fl = col_flags[s] | F_SQUASHED
            squashed += 1
            if cancel_fills and col_fill_line[s] is not None \
                    and not fl & F_COMPLETED:
                self.hierarchy.cancel_fill(col_fill_line[s],
                                           col_instr[s].addr, cycle)
            rob_delta += 1
            if fl & _F_MEM:
                lsq_delta += 1
            if fl & F_IN_IQ:
                fl &= ~F_IN_IQ
                icount_delta += 1
                if fl & F_IQ_FP:
                    fq_delta += 1
                else:
                    iq_delta += 1
            if fl & F_HAS_DEST:
                # Undo the rename: the old mapping becomes current again;
                # the squashed slot drops its own current-entry ref.
                rename_map[col_instr[s].dest] = col_old_map[s]
                col_refs[s] -= 1
                if fl & F_DEST_FP:
                    fp_regs_delta += 1
                else:
                    int_regs_delta += 1
            parents = col_ll_parents[s]
            if parents is not None:
                col_ll_parents[s] = None
                for p in parents:
                    r = col_refs[p] - 1
                    col_refs[p] = r
                    if not r:
                        pfl = col_flags[p]
                        if (pfl & F_RETIRED
                                and not pfl & (F_IN_DETECTS | F_FREED)):
                            v = col_views[p]
                            if v is None or v not in ll_owners:
                                col_fill_line[p] = None
                                col_views[p] = None
                                col_flags[p] = pfl | F_FREED
                                free.append(p)
            v = col_views[s]
            if v is not None and v in ll_owners:
                ts.clear_owner(v, cycle)
            # Reclaim unless a queued event still needs the slot: a
            # counted outstanding miss (pending == -1, cleared at its
            # completion drain) or a pending detection (freed at the
            # detect drain).  Restore the pristine invariant; a live
            # producer may still hold this slot's waiter registration,
            # which the drains defuse on the F_FREED bit.
            if (not col_refs[s] and col_pending[s] != -1
                    and not fl & (F_IN_DETECTS | F_FREED)):
                col_pending[s] = 0
                col_waiter0[s] = -1
                col_waiters[s] = None
                col_old_map[s] = -1
                col_fill_line[s] = None
                col_views[s] = None
                col_flags[s] = fl | F_FREED
                free.append(s)
            else:
                col_flags[s] = fl
        if rob_delta:
            ts.rob_count -= rob_delta
            self.rob_used -= rob_delta
        if lsq_delta:
            ts.lsq_count -= lsq_delta
            self.lsq_used -= lsq_delta
        if iq_delta:
            ts.iq_count -= iq_delta
            self.iq_used -= iq_delta
        if fq_delta:
            ts.fq_count -= fq_delta
            self.fq_used -= fq_delta
        if int_regs_delta:
            ts.int_regs -= int_regs_delta
            self.int_regs_used -= int_regs_delta
        if fp_regs_delta:
            ts.fp_regs -= fp_regs_delta
            self.fp_regs_used -= fp_regs_delta
        if icount_delta:
            ts.icount -= icount_delta
        wb = ts.waiting_branch
        if wb is not None and col_flags[wb] & F_SQUASHED:
            ts.waiting_branch = None
            ts.stats.branch_stall_cycles += self.cycle - ts.branch_wait_since
        ts.fetch_index = after_seq + 1
        ts.last_ifetch_line = -1
        bit = ts.tid_bit
        if window and col_flags[window[0]] & F_COMPLETED:
            ts.head_ready = True
            self._heads_mask |= bit
        else:
            ts.head_ready = False
            self._heads_mask &= ~bit
        if fe:
            self._fe_mask |= bit
        else:
            self._fe_mask &= ~bit
        ts.stats.squashed += squashed
        ts.stats.flushes += 1
        self._release_epoch += 1
        self._fetch_wake = 0
        self._dispatch_wake = 0
        self._stall_latch_until = 0
        ts._sync_policy_stall(cycle)
        return squashed
