"""Per-hardware-thread pipeline state."""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

from repro.config import SMTConfig
from repro.isa import NUM_ARCH_REGS
from repro.pipeline.stats import ThreadStats
from repro.predictors import (
    LLL_PREDICTORS,
    LLSR,
    BinaryMLPPredictor,
    MLPDistancePredictor,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.pipeline.dyninstr import DynInstr
    from repro.workloads.trace import SyntheticTrace


class ThreadState:
    """Everything the core tracks per hardware thread.

    The paper's per-thread predictor hardware lives here: the long-latency
    load predictor (front end), the MLP distance predictor, the binary MLP
    predictor, and the LLSR that trains the latter two from the commit
    stream.
    """

    __slots__ = (
        "tid", "trace", "fetch_index",
        "fe_queue", "window", "rename_map",
        "icount", "rob_count", "lsq_count", "iq_count", "fq_count",
        "int_regs", "fp_regs",
        "fetch_blocked_until", "waiting_branch", "branch_wait_since",
        "allowed_end", "ll_owners", "stall_start",
        "last_ifetch_line",
        "outstanding_misses",
        "llsr", "lll_pred", "mlp_pred", "binary_mlp",
        "stats", "policy_data", "commit_cycles", "fetch_entry",
        "core", "policy_stalled_flag", "policy_stall_since", "fetch_one",
        "dispatch_blocked_head", "dispatch_blocked_epoch",
        "dispatch_wait_until",
        "trace_get", "fe_append", "lll_predict", "pc_origin",
        "llsr_commit", "llsr_commit_zeros", "trace_static",
        "trace_body_len", "llsr_zeros",
        "head_ready", "tid_bit", "trace_flags",
    )

    def __init__(self, tid: int, trace: SyntheticTrace, cfg: SMTConfig):
        self.tid = tid
        #: This thread's bit in the core's activity bitmasks
        #: (``_fe_mask`` / ``_heads_mask`` — see ``SMTCore``).
        self.tid_bit = 1 << tid
        self.trace = trace
        self.fetch_index = 0
        self.fe_queue: deque[DynInstr] = deque()
        self.window: deque[DynInstr] = deque()
        #: Rename map as a fixed array indexed by the dense architectural
        #: register number (ints 0..31 and fps 32..63 partition the same
        #: flat space — see :mod:`repro.isa.instruction`), replacing the
        #: dict the dispatch loop used to hash into per source operand.
        #: ``None`` means "no in-flight producer"; flush undo writes the
        #: ``old_map`` backref straight into the slot, so the DynInstr
        #: pooling reference accounting is byte-for-byte the dict's.
        self.rename_map: list[DynInstr | None] = [None] * NUM_ARCH_REGS
        self.icount = 0
        self.rob_count = 0
        self.lsq_count = 0
        self.iq_count = 0
        self.fq_count = 0
        self.int_regs = 0
        self.fp_regs = 0
        self.fetch_blocked_until = 0
        self.waiting_branch: DynInstr | None = None
        # Cycle the current branch wait began; branch_stall_cycles is
        # accounted event-wise (wait start -> resolve/squash) instead of
        # by a per-cycle scan — see SMTCore.step / _settle_branch_stalls.
        self.branch_wait_since = 0
        # Policy state: fetch allowed up to this per-thread sequence number
        # (inclusive); None means unrestricted.  ``ll_owners`` maps each
        # unresolved long-latency load driving the restriction to its
        # allowed-end; the effective end is their maximum.
        self.allowed_end: int | None = None
        self.ll_owners: dict[DynInstr, int] = {}
        self.stall_start = -1
        self.last_ifetch_line = -1
        self.outstanding_misses = 0
        pred_cfg = cfg.predictors
        lll_cls = LLL_PREDICTORS[pred_cfg.lll_kind]
        self.lll_pred = lll_cls(pred_cfg.lll_entries, pred_cfg.lll_counter_bits)
        self.mlp_pred = MLPDistancePredictor(
            pred_cfg.mlp_entries, max_distance=max(cfg.llsr_length - 1, 1))
        self.binary_mlp = BinaryMLPPredictor(pred_cfg.mlp_entries)
        self.llsr = LLSR(cfg.llsr_length, on_measure=self._train_mlp,
                         exclude_dependent=pred_cfg.dependence_aware)
        self.stats = ThreadStats()
        self.policy_data: dict = {}
        #: Interned ``(self, False)`` pair for fetch_order results, so the
        #: per-cycle ICOUNT ordering allocates no tuples.
        self.fetch_entry = (self, False)
        #: Interned single-thread fetch order (the overwhelmingly common
        #: result shape), so the per-cycle fetch selection allocates
        #: nothing when one thread is eligible.
        self.fetch_one = [self.fetch_entry]
        #: Owning core (set by ``SMTCore.__init__``); ``None`` for
        #: standalone ThreadStates in unit tests.
        self.core = None
        #: Event-maintained mirror of :attr:`policy_stalled`, kept exact
        #: at every stage boundary by ``_sync_policy_stall`` so the fetch
        #: stage never re-derives it per thread per cycle.  The paired
        #: ``policy_stall_since`` timestamp turns the old per-cycle
        #: stall-counting scan into stall-interval accounting.
        self.policy_stalled_flag = False
        self.policy_stall_since = 0
        #: Dispatch-attempt latch: the head instruction last rejected by a
        #: *shared-resource* gate, with the core's release epoch at the
        #: time.  While the head and epoch both match, the dispatch stage
        #: re-asserts the rejection without re-proving it.
        self.dispatch_blocked_head: DynInstr | None = None
        self.dispatch_blocked_epoch = 0
        #: Front-end time latch: the head's ``fe_ready`` last observed by
        #: the dispatch stage.  Head ready times are nondecreasing (pops
        #: advance to later-fetched instructions; a flush only ever leads
        #: to refetched, later-stamped ones), so skipping the thread while
        #: ``cycle < dispatch_wait_until`` can never skip a ready head —
        #: a stale-low value merely costs one harmless probe.
        self.dispatch_wait_until = 0
        # Fetch-stage invariants cached as slots: bound methods and the
        # affine PC-address origin (pc_address(pc) == pc_origin + pc * 4
        # for every trace implementation), so the per-burst prologue is
        # slot loads instead of attribute chains and a probe call.
        self.trace_get = trace.get
        self.fe_append = self.fe_queue.append
        self.lll_predict = self.lll_pred.predict
        self.pc_origin = trace.pc_address(0)
        self.llsr_commit = self.llsr.commit
        self.llsr_commit_zeros = self.llsr.commit_zeros
        # Commit-stage staging slot (see ``SMTCore._commit``): the run of
        # consecutive non-long-latency retires not yet shifted into the
        # LLSR, coalesced into one ``commit_zeros`` ring advance before a
        # same-thread long-latency commit or at the end of the commit
        # pass.  Always zero between stages.
        self.llsr_zeros = 0
        #: Event-maintained "ROB head is completed" flag, kept exact at
        #: the three transitions that can change it — a completion event
        #: landing on the current head, a retire exposing a new head,
        #: and a flush (recomputed after the squash) — so the commit
        #: rotation scan is a single slot load per thread instead of a
        #: deque probe.  Only the base ``SMTCore._commit`` reads it;
        #: RunaheadCore's commit loop can progress on incomplete heads
        #: and keeps its own generic scan.
        self.head_ready = False
        # Direct view of the trace's pre-materialized static instructions
        # (None for duck-typed stub traces): lets the fetch loop skip the
        # ``get`` call for iteration-invariant slots.
        self.trace_static = getattr(trace, "_static", None)
        self.trace_body_len = getattr(trace, "body_len", 1)
        #: Per-static-instruction ``flags`` templates parallel to
        #: ``trace_static`` (see :func:`repro.pipeline.dyninstr.
        #: instr_flags`); populated by the slot arena state of the
        #: ``cext`` engine, ``None`` on the object engine.
        self.trace_flags: list[int | None] | None = None
        # When not None, the commit cycle of every instruction is appended
        # here (used to evaluate single-threaded CPI at arbitrary
        # instruction counts, per the paper's Section 5 methodology).
        self.commit_cycles: list[int] | None = None

    def _train_mlp(self, pc: int, distance: int) -> None:
        self.mlp_pred.train(pc, distance)
        self.binary_mlp.train(pc, distance)

    # ------------------------------------------------------------------ #
    # policy helpers
    # ------------------------------------------------------------------ #

    @property
    def policy_stalled(self) -> bool:
        """True when the fetch policy forbids fetching past allowed_end."""
        return (self.allowed_end is not None
                and self.fetch_index > self.allowed_end)

    def set_owner(self, owner: DynInstr, end: int, cycle: int) -> None:
        """Register a long-latency load restricting fetch to ``end``."""
        self.ll_owners[owner] = end
        self._recompute_allowed_end(cycle)

    def clear_owner(self, owner: DynInstr, cycle: int) -> None:
        if owner in self.ll_owners:
            del self.ll_owners[owner]
            self._recompute_allowed_end(cycle)

    def _recompute_allowed_end(self, cycle: int) -> None:
        if self.ll_owners:
            self.allowed_end = max(self.ll_owners.values())
            if self.stall_start < 0:
                self.stall_start = cycle
        else:
            self.allowed_end = None
            self.stall_start = -1
        self._sync_policy_stall(cycle)

    def _sync_policy_stall(self, cycle: int) -> None:
        """Fold the current stall predicate into the event-driven state.

        Called at every point the predicate can flip: owner set/clear
        (via ``_recompute_allowed_end``), the end of a fetch burst (the
        fetch index may have crossed ``allowed_end``), and the end of a
        flush (the fetch index rewinds).  On a transition it re-derives
        the core's fetch-candidate list and settles the stall-cycle
        interval, which is what lets the core drop both the per-cycle
        eligibility rebuild and the per-cycle stall-counting scan.
        """
        allowed_end = self.allowed_end
        stalled = allowed_end is not None and self.fetch_index > allowed_end
        if stalled == self.policy_stalled_flag:
            return
        self.policy_stalled_flag = stalled
        if stalled:
            self.policy_stall_since = cycle
        else:
            self.stats.policy_stall_cycles += cycle - self.policy_stall_since
        core = self.core
        if core is not None:
            # Incremental candidate-list edit: the transition direction is
            # known here, so a single C-level remove / tid-ordered insert
            # replaces the full rebuild's per-thread filter pass.  The
            # list stays exactly "policy-unstalled threads in tid order".
            candidates = core._fetch_candidates
            if stalled:
                candidates.remove(self)
            else:
                tid = self.tid
                pos = 0
                for other in candidates:
                    if other.tid > tid:
                        break
                    pos += 1
                candidates.insert(pos, self)
            core._fetch_wake = 0

    def oldest_owner(self) -> DynInstr | None:
        if not self.ll_owners:
            return None
        return min(self.ll_owners, key=lambda di: di.seq)
