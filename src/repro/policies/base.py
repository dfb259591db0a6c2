"""Fetch-policy interface and the shared ICOUNT + COT machinery.

Every policy in the paper extends ICOUNT (Tullsen et al. 1996): each cycle,
fetch goes to the threads with the fewest instructions in the front-end
pipeline and issue queues.  All long-latency-aware policies additionally
implement COT — *continue the oldest thread* (Cazorla et al. 2004a): when
every thread is stalled on a long-latency load, the thread that stalled
first is allowed to keep allocating, because its data will return first.

Policies restrict fetch through the per-thread ``allowed_end`` mechanism
(see :class:`repro.pipeline.thread_state.ThreadState`): each unresolved
long-latency "owner" load grants fetch up to some per-thread sequence
number; the thread fetch-stalls past the maximum grant.
"""

from __future__ import annotations

from operator import attrgetter
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.pipeline.core import SMTCore
    from repro.pipeline.dyninstr import DynInstr
    from repro.pipeline.thread_state import ThreadState

_BY_ICOUNT = attrgetter("icount")

#: Shared empty fetch order.  A tuple so an accidental mutation by a
#: caller raises instead of corrupting every later empty result.
_EMPTY_ORDER: tuple = ()


class FetchPolicy:
    """Base class: plain ICOUNT with COT support for subclasses."""

    __slots__ = ("core", "limit_rows", "slow_weights")

    name = "icount"
    #: The form of the policy's dispatch partition, per-thread caps on
    #: every shared buffer that both engines check at each dispatch
    #: attempt, after :meth:`can_dispatch`: ``None`` (no caps),
    #: ``"rows"`` (:attr:`limit_rows`: per thread, six limits in the
    #: order of :func:`buffer_sizes`) or ``"weights"`` (DCRA's
    #: :attr:`slow_weights`, one per thread; see
    #: :meth:`repro.pipeline.core.SMTCore.partition_limits`).
    partition: str | None = None
    #: Declares that :meth:`on_fetch` is a no-op for anything but loads
    #: (its body is guarded by ``di.is_load``).  The core then skips the
    #: per-instruction call for non-loads — exact by declaration.
    on_fetch_loads_only = False
    #: Core implementation this policy requires; ``None`` means the plain
    #: :class:`repro.pipeline.core.SMTCore`.  Runahead policies point this
    #: at :class:`repro.runahead.RunaheadCore`; the experiment runner
    #: honours it when constructing simulations.
    core_class: type | None = None

    def __init__(self) -> None:
        self.core: SMTCore | None = None
        self.limit_rows: list[tuple[float, ...]] | None = None
        self.slow_weights: list[float] | None = None

    def attach(self, core: SMTCore) -> None:
        self.core = core

    # ------------------------------------------------------------------ #
    # fetch selection (ICOUNT order + COT)
    # ------------------------------------------------------------------ #

    def fetch_order(self, cycle: int) -> list[tuple[ThreadState, bool]]:
        """Threads allowed to fetch this cycle, best first.

        Returns ``(thread, ignore_stall)`` pairs; ``ignore_stall`` marks a
        COT grant that overrides the thread's own policy stall.  Must be
        side-effect free.  Subclasses that change the *eligibility* rules
        here must override :meth:`fetch_pending` to match.

        Eligibility is read off the core's event-maintained candidate
        list (``core._fetch_candidates``: the policy-unstalled threads,
        re-derived only on stall/unstall transitions) instead of
        re-proving the ``allowed_end`` predicate for every thread every
        cycle; only the genuinely time-varying conditions (I-fetch block,
        branch wait, fetch-queue headroom) are checked here.  The common
        result shapes allocate nothing: a single eligible thread returns
        its interned one-entry order, and the ICOUNT sort only runs when
        two or more threads compete.
        """
        core = self.core
        candidates = core._fetch_candidates
        fe_capacity = core._fe_capacity
        if candidates:
            first = None
            rest = None
            for ts in candidates:
                if (ts.fetch_blocked_until <= cycle
                        and ts.waiting_branch is None
                        and len(ts.fe_queue) < fe_capacity):
                    if first is None:
                        first = ts
                    elif rest is None:
                        rest = [first, ts]
                    else:
                        rest.append(ts)
            if rest is None:
                return _EMPTY_ORDER if first is None else first.fetch_one
            if len(rest) == 2:
                a, b = rest
                # Matches the stable sort: ties keep tid order.
                if b.icount < a.icount:
                    return [b.fetch_entry, a.fetch_entry]
                return [a.fetch_entry, b.fetch_entry]
            rest.sort(key=_BY_ICOUNT)
            return [ts.fetch_entry for ts in rest]
        # Every thread is policy-stalled on a long-latency load: COT.  COT
        # applies only in that case — a thread that is merely
        # back-pressured (full fetch queue, unresolved branch) will resume
        # by itself, and granting a stalled thread fetch in the meantime
        # would defeat the stall/flush policy.
        oldest = None
        for ts in core.threads:
            if (ts.fetch_blocked_until <= cycle
                    and ts.waiting_branch is None
                    and len(ts.fe_queue) < fe_capacity
                    and (oldest is None
                         or ts.stall_start < oldest.stall_start)):
                oldest = ts
        return _EMPTY_ORDER if oldest is None else [(oldest, True)]

    def fetch_pending(self, cycle: int) -> bool:
        """Would :meth:`fetch_order` be non-empty at ``cycle``?

        The fast-forward probe calls this every cycle; the default mirrors
        the base :meth:`fetch_order` truthiness without building or
        sorting the candidate list.  Subclasses that override
        :meth:`fetch_order` with different eligibility rules must override
        this too (``return bool(self.fetch_order(cycle))`` is always a
        correct, if slower, implementation).
        """
        core = self.core
        fe_capacity = core._fe_capacity
        # An empty candidate list means all threads are policy-stalled, in
        # which case COT grants fetch to any fetchable thread.
        for ts in (core._fetch_candidates or core.threads):
            if (ts.fetch_blocked_until <= cycle
                    and ts.waiting_branch is None
                    and len(ts.fe_queue) < fe_capacity):
                return True
        return False

    # ------------------------------------------------------------------ #
    # hooks
    # ------------------------------------------------------------------ #

    def on_fetch(self, di: DynInstr, ts: ThreadState) -> None:
        """Called for every instruction the front end fetches."""

    def on_ll_detect(self, di: DynInstr, ts: ThreadState) -> None:
        """Called when a load is *observed* to be long-latency (post-L3)."""

    def on_load_complete(self, di: DynInstr, ts: ThreadState) -> None:
        """Called when any load's data arrives."""

    def can_dispatch(self, ts: ThreadState, di: DynInstr) -> bool:
        """Dispatch-cap hook; False blocks dispatch this cycle.  Runs
        before the :attr:`partition` limits, which need no hook."""
        return True

    def on_resource_stall(self, cycle: int) -> None:
        """Called on cycles where dispatch is blocked by a full resource."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"


# Markers for the no-op default hooks: the core skips the per-instruction
# calls entirely for policies that do not override them (the marker is on
# the function object, so any override — which is a different function —
# is automatically unmarked).
FetchPolicy.can_dispatch._is_default_hook = True
FetchPolicy.on_fetch._is_default_hook = True
FetchPolicy.on_ll_detect._is_default_hook = True
FetchPolicy.on_load_complete._is_default_hook = True
FetchPolicy.on_resource_stall._is_default_hook = True
# Marks the base eligibility rules: with these implementations the core
# may cache "no thread can fetch before cycle X" (the fetch-wake latch),
# because every eligibility change is either time-bound
# (fetch_blocked_until) or flows through an invalidation the core owns
# (branch resolution, front-end pop, flush, stall/unstall transition).
# Policies that override fetch_order/fetch_pending lose the marker
# automatically and are probed every cycle.
FetchPolicy.fetch_order._is_base_impl = True
FetchPolicy.fetch_pending._is_base_impl = True


def buffer_sizes(cfg) -> tuple[int, ...]:
    """The six buffers a partition caps, in the order of a limit row:
    ROB, LSQ, int and FP issue queues, int and FP rename registers."""
    return (cfg.rob_size, cfg.lsq_size, cfg.int_iq_size, cfg.fp_iq_size,
            cfg.int_rename_regs, cfg.fp_rename_regs)


class LongLatencyAwarePolicy(FetchPolicy):
    """Shared helper for policies keyed on long-latency owner loads."""

    __slots__ = ()

    def on_load_complete(self, di: DynInstr, ts: ThreadState) -> None:
        ts.clear_owner(di, self.core.cycle)

    def _flush_to(self, ts: ThreadState, after_seq: int) -> None:
        """Flush ``ts`` past ``after_seq`` if anything newer was fetched."""
        if ts.fetch_index - 1 > after_seq:
            self.core.flush_thread(ts, after_seq)


# Marks on_load_complete implementations that only *de-register* state
# keyed by record identity (owner grants, episode anchors): for a record
# the policy was never handed, the call is provably a no-op.  The compiled
# (cext) engine uses this to skip both the call and the view
# materialization for loads that never reached a policy hook; the object
# engine ignores it.
# Like the default-hook markers above, the marker lives on the function
# object, so any unmarked override is automatically excluded.
LongLatencyAwarePolicy.on_load_complete._identity_keyed_cleanup = True
