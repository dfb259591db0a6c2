"""SMT core with per-thread runahead execution (Mutlu et al., HPCA 2003).

Mechanism summary, mapped onto this simulator:

* **Entry.**  When an executed long-latency load reaches the head of a
  thread's ROB slice without its data (it would block commit for hundreds
  of cycles), and the attached policy's ``enter_runahead`` hook agrees, the
  thread checkpoints (trivially, in a trace-driven simulator: the entry
  load's sequence number) and enters runahead.  The blocked load's result
  is marked INV (bogus) and its dependents are released with INV values.
* **Runahead period.**  The thread keeps fetching and executing.  INV
  propagates through the rename map: any instruction sourcing an INV value
  is itself INV — it does not wait for producers, does not access memory,
  and completes in one cycle.  Valid loads execute normally against the
  hierarchy, turning future independent misses into prefetches — this is
  how runahead exposes MLP without holding ROB entries.  Instructions
  *pseudo-retire* in program order once completed or INV: they release
  their ROB/LSQ/IQ/register resources but are not architecturally
  committed (no stats, no LLSR training, stores do not write).  A valid
  long-latency load that reaches the ROB head during runahead is INV'd in
  place, Mutlu-style, while its fill continues in the background.
* **Exit.**  When the entry load's data returns, the thread flushes
  everything younger than the entry load (fills of squashed loads are
  *not* cancelled — they are the prefetches runahead exists to start),
  rewinds fetch to the entry load, and resumes normal execution.  The
  refetched entry load now hits in the cache.

Divergences from real hardware, and why they are benign here: INV branches
follow the trace rather than a stale prediction (slightly optimistic
prefetch addresses for *all* policies equally), and there is no runahead
cache for store-load forwarding (runahead stores are simply dropped; the
synthetic workloads carry no store-to-load dependences).
"""

from __future__ import annotations

import heapq

from repro.pipeline.core import SMTCore
from repro.pipeline.dyninstr import DynInstr
from repro.pipeline.thread_state import ThreadState


class _RunaheadState:
    """Per-thread runahead bookkeeping."""

    __slots__ = ("active", "entry", "refused")

    def __init__(self) -> None:
        self.active = False
        self.entry: DynInstr | None = None
        # Blocking load the policy declined runahead for: the decision is
        # memoized so the fast-forward probe can skip the blocked episode.
        self.refused: DynInstr | None = None


class RunaheadCore(SMTCore):
    """SMT core whose threads may run ahead past blocked loads.

    The attached policy opts threads into runahead through an
    ``enter_runahead(thread_state, blocking_load) -> bool`` hook; policies
    without the hook never trigger it, making this core a drop-in
    replacement for :class:`repro.pipeline.core.SMTCore`.
    """

    __slots__ = ("_ra",)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._ra = [_RunaheadState() for _ in self.threads]
        # The commit gate stays permanently open and the commit rotation
        # unfiltered (no rotation cache): this commit stage can make
        # progress on *incomplete* heads (runahead entry,
        # pseudo-retirement), which neither the event-driven gate nor the
        # ready-head mask can see.
        self._commit_pending = True
        self._rot_cache = None

    def in_runahead(self, ts: ThreadState) -> bool:
        return self._ra[ts.tid].active

    # ------------------------------------------------------------------ #
    # entry / exit
    # ------------------------------------------------------------------ #

    def _enter_runahead(self, ts: ThreadState, di: DynInstr,
                        cycle: int) -> None:
        ra = self._ra[ts.tid]
        ra.active = True
        ra.entry = di
        ts.stats.runahead_entries += 1
        self._invalidate(di)

    def _exit_runahead(self, ts: ThreadState, cycle: int) -> None:
        ra = self._ra[ts.tid]
        entry = ra.entry
        ra.active = False
        ra.entry = None
        ts.stats.runahead_exits += 1
        # Squash the runahead work and rewind fetch to the entry load; the
        # fills started during runahead keep going — they are the point.
        self.flush_thread(ts, entry.seq - 1, cancel_fills=False)

    def _invalidate(self, di: DynInstr) -> None:
        """Mark ``di``'s result bogus and release its dependents as INV."""
        di.inv = True
        w0 = di.waiter0
        if w0 is not None:
            di.waiter0 = None
            waiters = di.waiters
            di.waiters = None
            ready_by_op = self._ready_by_op
            for w in ((w0,) if waiters is None else (w0, *waiters)):
                w.inv = True
                w.pending -= 1
                if (w.pending == 0 and not w.squashed and w.in_iq
                        and not w.issued):
                    heapq.heappush(ready_by_op[w.instr.op_i], (w.gseq, w))

    # ------------------------------------------------------------------ #
    # commit stage: normal commit, runahead entry, pseudo-retirement
    # ------------------------------------------------------------------ #

    def _commit(self, cycle: int) -> None:
        # The base rotation loop, over every thread (see __init__), with
        # the gate left open.
        super()._commit(cycle)
        self._commit_pending = True

    def _commit_one(self, ts: ThreadState, cycle: int) -> bool:
        ra = self._ra[ts.tid]
        if ra.active:
            return self._pseudo_retire_one(ts)
        window = ts.window
        if not window:
            return False
        di = window[0]
        if di.completed:
            return super()._commit_one(ts, cycle)
        if (di.is_load and di.is_ll and di.issued and not di.inv
                and di is not ra.refused):
            if self._policy_wants_runahead(ts, di):
                self._enter_runahead(ts, di, cycle)
                return self._pseudo_retire_one(ts)
            ra.refused = di
        return False

    def _policy_wants_runahead(self, ts: ThreadState, di: DynInstr) -> bool:
        enter = getattr(self.policy, "enter_runahead", None)
        return enter is not None and enter(ts, di)

    def _pseudo_retire_one(self, ts: ThreadState) -> bool:
        window = ts.window
        if not window:
            return False
        di = window[0]
        if not (di.completed or di.inv):
            if di.is_load and di.issued and di.is_ll:
                # A second long-latency miss reached the head mid-runahead:
                # INV it in place; its fill continues as a prefetch.
                self._invalidate(di)
            else:
                return False
        window.popleft()
        ts.rob_count -= 1
        self.rob_used -= 1
        if di.is_load or di.is_store:
            ts.lsq_count -= 1
            self.lsq_used -= 1
        if di.in_iq:
            # Unissued INV instruction: free its queue slot now; the
            # in-flight issue path checks ``in_iq`` before touching counts.
            di.in_iq = False
            ts.icount -= 1
            if di.iq_is_fp:
                ts.fq_count -= 1
                self.fq_used -= 1
            else:
                ts.iq_count -= 1
                self.iq_used -= 1
        if di.has_dest:
            if di.dest_fp:
                ts.fp_regs -= 1
                self.fp_regs_used -= 1
            else:
                ts.int_regs -= 1
                self.int_regs_used -= 1
        # Shared entries were released: the dispatch stage's latched
        # rejections and stall verdict no longer hold.
        self._release_epoch += 1
        ts.stats.runahead_pseudo_retired += 1
        return True

    # ------------------------------------------------------------------ #
    # dispatch / execute / complete extensions
    # ------------------------------------------------------------------ #

    def _try_dispatch(self, ts: ThreadState, di: DynInstr) -> bool | None:
        if self._ra[ts.tid].active and not di.inv:
            rename_map = ts.rename_map
            for src in di.instr.srcs:
                prod = rename_map[src]
                if prod is not None and prod.inv and not prod.squashed:
                    di.inv = True
                    break
        return super()._try_dispatch(ts, di)

    def _execute(self, di: DynInstr, cycle: int) -> None:
        if not di.inv:
            super()._execute(di, cycle)
            return
        # INV fast path: no memory access, no predictor training, single
        # cycle of latency.
        ts = self.threads[di.thread]
        di.issued = True
        if di.in_iq:
            di.in_iq = False
            if di.iq_is_fp:
                ts.fq_count -= 1
                self.fq_used -= 1
            else:
                ts.iq_count -= 1
                self.iq_used -= 1
            ts.icount -= 1
        self._schedule_completion(di, cycle + 1, cycle)

    def _complete(self, di: DynInstr, cycle: int) -> None:
        super()._complete(di, cycle)
        if di.squashed:
            return
        ra = self._ra[di.thread]
        if ra.active and di is ra.entry:
            self._exit_runahead(self.threads[di.thread], cycle)

    # ------------------------------------------------------------------ #
    # fast-forward probe
    # ------------------------------------------------------------------ #

    def _head_retirable(self, ts: ThreadState, wb_full: bool) -> bool:
        ra = self._ra[ts.tid]
        window = ts.window
        if ra.active:
            if not window:
                return False
            di = window[0]
            return (di.completed or di.inv
                    or (di.is_load and di.issued and di.is_ll))
        if window:
            di = window[0]
            if (not di.completed and di.is_load and di.is_ll and di.issued
                    and not di.inv and di is not ra.refused):
                # A runahead-entry decision is possible next cycle.
                return True
        return super()._head_retirable(ts, wb_full)
