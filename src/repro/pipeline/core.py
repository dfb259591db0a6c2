"""The cycle-level SMT out-of-order core.

Models the Table IV machine: ICOUNT-style fetch of up to ``fetch_width``
instructions from up to ``fetch_max_threads`` threads per cycle, a front-end
pipeline of ``frontend_depth`` cycles, register renaming against shared
int/fp rename-register pools, shared ROB/LSQ and per-class issue queues,
oldest-first issue to the functional-unit pools, a shared write buffer that
stores drain through after commit, and per-thread commit with a shared
commit-width budget.

Fetch policies plug in through :class:`repro.policies.base.FetchPolicy`
hooks; flushes squash a thread's youngest instructions, undo the rename map
from per-instruction records, release all held resources, and rewind the
thread's (stateless, regenerable) trace index.

Branch handling is trace-driven: wrong-path instructions are never fetched;
a mispredicted branch instead blocks its thread's fetch until the branch
resolves, and the front-end refill supplies the redirect penalty.

The engine optionally *fast-forwards* over cycles in which provably nothing
can happen (no fetch-eligible thread, empty ready queues, no dispatchable or
committable instruction) by jumping to the next scheduled event; tests
verify cycle-exact equivalence with the naive loop.

Implementation notes (perf).  This engine is the reference every
compiled-engine test compares against, so it keeps only the fast paths
that measurably pay (perf/PROFILE.md, "the object engine keeps only
the fast paths that pay") and recomputes the rest every cycle.  The compiled loop (:mod:`repro.pipeline.cext`) keeps more
of them, and these exist *only in C*:

* the calendar-queue event wheels (this engine has three plain heaps);
* the dispatch wake latch ``_dispatch_wake`` (this engine runs the
  dispatch stage every cycle);
* the front-end activity mask ``_fe_mask`` (this engine's dispatch walks
  the full rotation);
* each thread's ``head_ready``, and the slot arena that recycles
  instruction records (this engine builds a fresh ``DynInstr`` per
  fetch and CPython frees it).

The differential tests check each of those C copies against this engine.

Every object-engine run bottoms out in the loop of
:meth:`SMTCore._run_until`, the engine's one cycle body
(:meth:`SMTCore.step` runs one pass of it).  Beyond local and
bound-method hoists, per-op tables and config snapshots, the fast paths
both engines share are these: fetch eligibility lives in an
incrementally maintained candidate list updated only on stall/unstall
transitions (``ThreadState._sync_policy_stall``); branch- and
policy-stall cycles are accounted as wait intervals; dispatch latches
rejected heads against a resource-release epoch and head-ready times,
and replays a proven all-blocked stall verdict without re-scanning
while that epoch holds; the commit stage runs behind an exact
head-completion gate, its rotation filtered through the ready-head mask
``_heads_mask`` with a lazily built per-(mask, start) rotation cache;
the fetch wake latch skips provably idle fetch cycles; and the
fast-forward probe jumps over cycles in which nothing can happen.
Completions, long-latency detections and write-buffer drains wait in
heaps, and each thread's rename map is a flat array indexed by the
dense architectural register number.  Each stage has one body, and the
per-instruction ones are the overridable methods the stage loops call
(``_complete``, ``_execute``, ``_commit_one``, ``_try_dispatch``, and the
policy's ``fetch_order``/``fetch_pending``), so a subclass hooks a
mechanism by overriding one of them; the golden-stats matrix
(``tests/test_golden_stats.py``, {1,2,4,8} threads x all eight paper
policies plus runahead) pins the engine to the pre-optimization core
cycle-for-cycle.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import TYPE_CHECKING

from repro.branch import BTB, GShare
from repro.config import SMTConfig
from repro.isa import FU_CLASS_BY_OP, FuClass
from repro.memory.hierarchy import MemoryHierarchy, ServiceLevel
from repro.pipeline.dyninstr import DynInstr
from repro.pipeline.stats import CoreStats
from repro.pipeline.thread_state import ThreadState

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.policies.base import FetchPolicy
    from repro.workloads.trace import SyntheticTrace


class SimulationDeadlock(RuntimeError):
    """Raised when no future event can ever change pipeline state."""


class SimulationLimitExceeded(RuntimeError):
    """Raised when the cycle budget runs out before the commit target."""


class SMTCore:
    """One simulated SMT processor instance (single run, single workload)."""

    # The hot loop reads dozens of core attributes per cycle; with ~55
    # instance attributes the CPython inline-values optimization does not
    # hold, so slots keep every ``self.X`` a fixed-offset load.  The
    # trailing ``__dict__`` keeps ad-hoc attribute assignment (tests spy
    # by monkeypatching instance methods) working.
    __slots__ = (
        "cfg", "hierarchy", "threads", "policy", "gshare", "btb", "cycle",
        "_gseq", "_ready", "_ready_by_op",
        "_ready_int", "_ready_ldst", "_ready_fp",
        "_num_int_alu", "_num_ldst", "_num_fp",
        "_ev_heap", "_dt_heap", "_wb_heap", "_wb_used",
        "rob_used", "lsq_used", "iq_used", "fq_used",
        "int_regs_used", "fp_regs_used",
        "_fe_capacity", "stats", "_line_shift", "_measure_start",
        "_track_ll_dep", "_rob_size", "_lsq_size", "_int_iq_size",
        "_fp_iq_size", "_int_rename_regs", "_fp_rename_regs",
        "_commit_width", "_decode_width", "_fetch_width",
        "_fetch_max_threads", "_frontend_depth", "_wb_entries",
        "_fast_forward", "_rotations", "_fetch_candidates",
        "_heads_mask", "_rot_cache",
        "_policy_on_resource_stall",
        "_release_epoch", "_committed_watermark", "_commit_pending",
        "_policy_fetch_order", "_policy_fetch_pending",
        "_policy_can_dispatch", "_policy_on_fetch", "_policy_on_fetch_load",
        "_policy_on_load_complete", "_n_threads",
        "_fetch_wake", "_fetch_order_is_base",
        "_stall_latch_until", "_stall_latch_epoch", "_partition",
        "__dict__",
    )

    def __init__(self, cfg: SMTConfig, traces: list[SyntheticTrace],
                 policy: FetchPolicy):
        if len(traces) != cfg.num_threads:
            raise ValueError(
                f"expected {cfg.num_threads} traces, got {len(traces)}")
        self.cfg = cfg
        build = self._build
        self.hierarchy = build(MemoryHierarchy, cfg.memory)
        self._n_threads = cfg.num_threads
        self.threads = tuple(build(ThreadState, tid, trace, cfg, build)
                             for tid, trace in enumerate(traces))
        self.policy = policy
        self.gshare = build(GShare, cfg.gshare_entries, cfg.num_threads)
        self.btb = build(BTB, cfg.btb_entries, cfg.btb_assoc)
        self.cycle = 0
        self._gseq = 0
        # Event queues: completions and long-latency detections as
        # ``(cycle, gseq, di)`` heaps (``gseq`` is unique, so they pop in
        # (cycle, age) order and never compare records), write-buffer
        # drains as a heap of drain cycles, with the occupancy in
        # ``_wb_used``.  Fast-forward jumps are bounded by the heads, so
        # every entry is drained at its own cycle.
        self._ev_heap: list[tuple[int, int, DynInstr]] = []
        self._dt_heap: list[tuple[int, int, DynInstr]] = []
        self._wb_heap: list[int] = []
        self._wb_used = 0
        self._ready: dict[FuClass, list[tuple[int, DynInstr]]] = {
            FuClass.INT_ALU: [], FuClass.LDST: [], FuClass.FP: []}
        #: The same ready queues, addressable by ``int(op)`` with a single
        #: tuple index (hot path) instead of two enum-keyed dict lookups.
        self._ready_by_op: tuple[list, ...] = tuple(
            self._ready[FU_CLASS_BY_OP[i]] for i in range(len(FU_CLASS_BY_OP)))
        # The three FU-pool ready queues and their slot counts as direct
        # attributes: the issue stage and the fast-forward probe touch
        # them every cycle.
        self._ready_int = self._ready[FuClass.INT_ALU]
        self._ready_ldst = self._ready[FuClass.LDST]
        self._ready_fp = self._ready[FuClass.FP]
        self._num_int_alu = cfg.num_int_alu
        self._num_ldst = cfg.num_ldst
        self._num_fp = cfg.num_fp
        self.rob_used = 0
        self.lsq_used = 0
        self.iq_used = 0
        self.fq_used = 0
        self.int_regs_used = 0
        self.fp_regs_used = 0
        # The front-end queue must hold frontend_depth cycles of in-flight
        # instructions *plus* headroom for new fetch groups, or fetch
        # stalls every other cycle at full throughput.
        self._fe_capacity = (cfg.frontend_depth + 2) * cfg.fetch_width
        self.stats = CoreStats(threads=[ts.stats for ts in self.threads])
        self._line_shift = cfg.memory.line_size.bit_length() - 1
        self._measure_start = 0
        self._track_ll_dep = cfg.predictors.dependence_aware
        # Config limits snapshotted off the frozen dataclass: plain slots
        # on self are one attribute hop instead of two in the stage loops.
        self._rob_size = cfg.rob_size
        self._lsq_size = cfg.lsq_size
        self._int_iq_size = cfg.int_iq_size
        self._fp_iq_size = cfg.fp_iq_size
        self._int_rename_regs = cfg.int_rename_regs
        self._fp_rename_regs = cfg.fp_rename_regs
        self._commit_width = cfg.commit_width
        self._decode_width = cfg.decode_width
        self._fetch_width = cfg.fetch_width
        self._fetch_max_threads = cfg.fetch_max_threads
        self._frontend_depth = cfg.frontend_depth
        self._wb_entries = cfg.write_buffer_entries
        self._fast_forward = cfg.fast_forward
        # Precomputed commit/dispatch rotation orders: _rotations[s] is the
        # thread list starting at thread s, so the per-cycle rotation is a
        # single tuple index instead of n modulo operations.
        n = cfg.num_threads
        self._rotations = tuple(
            tuple(self.threads[(s + i) % n] for i in range(n))
            for s in range(n))
        # Activity bitmask over the thread set: ``_heads_mask`` holds the
        # threads whose ROB head is completed (maintained at completions,
        # retires and flushes).  ``_rot_cache[mask * n + start]`` lazily
        # materializes the rotation order starting at ``start`` filtered
        # to the mask's threads, so the per-cycle commit scan iterates
        # only the threads that can possibly act.  The cache covers
        # n <= 8 (the table is n * 2^n entries); larger machines fall
        # back to the plain full rotations.
        self._heads_mask = 0
        self._rot_cache: list | None = (
            [None] * (n << n) if n <= 8 else None)
        # Event-maintained fetch-eligibility structure: the policy-unstalled
        # threads in tid order, re-derived only on stall/unstall transitions
        # (ThreadState._sync_policy_stall) instead of per cycle.  An empty
        # list means every thread is policy-stalled (the COT case).
        for ts in self.threads:
            ts.core = self
        self._fetch_candidates: list[ThreadState] = list(self.threads)
        # Shared-resource release epoch: bumped whenever any shared counter
        # (ROB/LSQ/IQ/regs) *decreases*.  The dispatch stage latches a
        # head rejected by a resource gate against the epoch and re-asserts
        # the rejection without re-proving it while the epoch is unchanged.
        self._release_epoch = 0
        # Highest per-thread committed count this measurement phase; lets
        # the run loop stop-check in O(1) instead of scanning every thread
        # every cycle.
        self._committed_watermark = 0
        # Event-driven commit gate: set by _complete when a ROB head
        # completes and kept set by _commit while a budget-limited pass
        # or a write-buffer-blocked store head could still make
        # progress; cleared only when a pass leaves no ready head.
        # RunaheadCore keeps it set — its commit stage can make progress
        # on incomplete heads.
        self._commit_pending = False
        policy.attach(self)
        # Bound-method hoists for the two policy calls made every cycle.
        # The policy is attached exactly once, at construction.
        self._policy_fetch_order = policy.fetch_order
        self._policy_fetch_pending = policy.fetch_pending
        # Per-instruction hooks elided when the policy keeps the marked
        # no-op defaults (None means "skip the call").
        cls = type(policy)
        self._policy_can_dispatch = (
            None if getattr(cls.can_dispatch, "_is_default_hook", False)
            else policy.can_dispatch)
        # The policy's dispatch partition (see partition_limits).
        self._partition = cls.partition
        if self._partition not in (None, "rows", "weights"):
            raise ValueError(f"unknown partition {self._partition!r}")
        fetch_hook = (
            None if getattr(cls.on_fetch, "_is_default_hook", False)
            else policy.on_fetch)
        if fetch_hook is not None and cls.on_fetch_loads_only:
            # The policy declares its hook a no-op for non-loads: route
            # it to the loads-only call site in _fetch_thread.
            self._policy_on_fetch = None
            self._policy_on_fetch_load = fetch_hook
        else:
            self._policy_on_fetch = fetch_hook
            self._policy_on_fetch_load = None
        self._policy_on_load_complete = (
            None if getattr(cls.on_load_complete, "_is_default_hook", False)
            else policy.on_load_complete)
        self._policy_on_resource_stall = (
            None if getattr(cls.on_resource_stall, "_is_default_hook", False)
            else policy.on_resource_stall)
        # Fetch-wake latch: earliest cycle fetch_order could be non-empty
        # again after returning empty (0 = probe every cycle).  Armed only
        # for the marked base eligibility rules; disarmed (reset to 0) by
        # branch resolution, front-end pops, flushes and stall/unstall
        # transitions — the only non-time-bound eligibility changes.
        self._fetch_wake = 0
        self._fetch_order_is_base = (
            getattr(cls.fetch_order, "_is_base_impl", False)
            and getattr(cls.fetch_pending, "_is_base_impl", False))
        # Stall-verdict latch: armed when a full dispatch pass concluded
        # "every ready head is blocked by a full shared resource" under a
        # policy whose ``on_resource_stall`` hook is the marked no-op and
        # with no dispatch cap (``can_dispatch`` or a partition).  While
        # the release epoch is unchanged and no absent head can have
        # arrived by time (``_stall_latch_until`` bounds that; fetch into
        # an empty queue and flushes disarm), the verdict — one
        # resource-stall cycle — is replayed without re-running the scan.
        self._stall_latch_until = 0
        self._stall_latch_epoch = -1

    @staticmethod
    def _build(cls, *args):
        """The part ``cls(*args)``: the one way a core builds its memory
        hierarchy, gshare, BTB, threads and each thread's predictors and
        LLSR, so an engine with its own model of a part builds that
        instead.  The core keeps none of a part's methods: it reads the
        part's attribute, so one swapped in later (by a policy's
        ``attach``, say) is the one that runs."""
        return cls(*args)

    # ------------------------------------------------------------------ #
    # top-level driving
    # ------------------------------------------------------------------ #

    def run(self, max_commits: int, max_cycles: int | None = None,
            warmup: int = 0) -> CoreStats:
        """Simulate until any thread commits ``max_commits`` instructions.

        This is the paper's multiprogram methodology (Section 5): the run
        stops when the first program reaches its instruction budget.  With
        ``warmup`` > 0, the run first executes until some thread commits
        that many instructions, then resets all measurements (caches,
        predictors and branch state stay warm) before the measured phase.
        """
        self.begin_measurement(warmup, max_cycles)
        self.advance_to(max_commits, max_cycles)
        return self.stats

    def begin_measurement(self, warmup: int,
                          max_cycles: int | None = None) -> None:
        """Execute the warmup phase (if any) and zero the measurements.

        Half of the :meth:`run` protocol, exposed so incremental drivers
        (:meth:`repro.api.Session.iter_intervals`) share the exact
        warmup/settle/reset sequence instead of re-implementing it.
        """
        if warmup > 0:
            try:
                self._run_until(warmup, max_cycles)
            finally:
                self._settle_stall_accounting()
            self.reset_measurement()

    def advance_to(self, commits: int,
                   max_cycles: int | None = None) -> bool:
        """Resume the measured phase until ``commits`` is reached.

        The other half of the :meth:`run` protocol, resumable: call with
        increasing targets to step one simulation in increments.  Settles
        open stall intervals and refreshes ``stats.cycles`` /
        ``stats.ll_intervals`` on every return, so the statistics are
        consistent at each boundary; returns True once some thread has
        committed ``commits`` instructions.
        """
        if self._committed_watermark < commits:
            try:
                self._run_until(commits, max_cycles)
            finally:
                self._settle_stall_accounting()
        self.stats.cycles = self.cycle - self._measure_start
        self.stats.ll_intervals = self.hierarchy.ll_intervals
        return self._committed_watermark >= commits

    def detach(self) -> None:
        """Unhook a finished core so reference counting frees it at once.

        The inverse of ``policy.attach``: clears ``policy.core`` and each
        ``ThreadState.core``.  It also drops each thread's other
        self-references, its interned fetch-order entries and its LLSR
        (whose training callback is a method of the thread).  Without
        this a finished core is cyclic garbage and holds its whole
        pipeline state until the collector runs.  Call it once the
        run's statistics and ``commit_cycles`` are read: the statistics
        stay valid, but the core cannot run again.
        """
        self.policy.core = None
        for ts in self.threads:
            ts.core = ts.fetch_entry = ts.fetch_one = None
            ts.llsr = None

    def _run_until(self, max_commits: int, max_cycles: int | None,
                   one_pass: bool = False) -> None:
        limit = max_cycles if max_cycles is not None else self.cfg.max_cycles
        # The commit watermark is maintained by the commit stage and reset
        # with the measurement phase, so the stop check is O(1) per cycle
        # instead of a per-thread scan.
        if one_pass:
            # step(): every pass meets a target of -1, so the loop returns
            # after one pass, before the cycle-limit check.
            max_commits = -1
        elif type(self).step is not SMTCore.step:
            # A subclass hooks every cycle (the sanitizer's checked core):
            # drive it one step() per cycle.
            step = self.step
            while True:
                step()
                if self._committed_watermark >= max_commits:
                    return
                if self.cycle >= limit:
                    raise SimulationLimitExceeded(
                        f"exceeded {limit} cycles without reaching "
                        f"{max_commits} commits")
        # The object engine's only cycle body.  The run-lifetime
        # invariants (event/ready/write-buffer structures, stage methods,
        # policy hooks, fetch limits) are hoisted once per call instead of
        # re-read every cycle; step() is one pass of this loop.  The
        # completion drain calls ``_complete`` per due record, fetch takes
        # the policy's ``fetch_order`` and the fast-forward step asks its
        # ``fetch_pending``.
        ev_heap = self._ev_heap
        dt_heap = self._dt_heap
        wb_heap = self._wb_heap
        ready_int = self._ready_int
        ready_ldst = self._ready_ldst
        ready_fp = self._ready_fp
        threads = self.threads
        commit_stage = self._commit
        dispatch_stage = self._dispatch
        issue_stage = self._issue
        complete = self._complete
        fetch_thread = self._fetch_thread
        next_cycle = self._next_cycle
        policy_fetch_order = self._policy_fetch_order
        policy_fetch_pending = self._policy_fetch_pending
        on_ll_detect = self.policy.on_ll_detect
        fetch_width = self._fetch_width
        fetch_max_threads = self._fetch_max_threads
        fast_forward = self._fast_forward
        fetch_order_is_base = self._fetch_order_is_base
        while True:
            cycle = self.cycle
            # Due events pop in (cycle, age) order; nothing a handler
            # schedules lands at or before ``cycle``.
            while ev_heap and ev_heap[0][0] <= cycle:
                complete(heappop(ev_heap)[2], cycle)
            while dt_heap and dt_heap[0][0] <= cycle:
                di = heappop(dt_heap)[2]
                if not (di.squashed or di.completed):
                    on_ll_detect(di, threads[di.thread])
            while wb_heap and wb_heap[0] <= cycle:
                heappop(wb_heap)
                self._wb_used -= 1
            if self._commit_pending:
                commit_stage(cycle)
            if ready_int or ready_ldst or ready_fp:
                issue_stage(cycle)
            if (cycle < self._stall_latch_until
                    and self._stall_latch_epoch == self._release_epoch):
                # Proven stall verdict still holds: account the cycle
                # without re-running the scan (hook is a no-op).
                self.stats.resource_stall_cycles += 1
            else:
                dispatch_stage(cycle)
            if cycle >= self._fetch_wake:
                order = policy_fetch_order(cycle)
                if order:
                    budget = fetch_width
                    remaining_threads = fetch_max_threads
                    for ts, ignore_stall in order:
                        if remaining_threads == 0 or budget == 0:
                            break
                        remaining_threads -= 1
                        budget -= fetch_thread(ts, budget, cycle,
                                               ignore_stall)
                elif fetch_order_is_base:
                    self._fetch_wake = self._compute_fetch_wake(cycle)
            nxt = cycle + 1
            if not fast_forward or ready_int or ready_ldst or ready_fp:
                self.cycle = nxt
            elif nxt < self._fetch_wake or not policy_fetch_pending(nxt):
                self.cycle = nxt = next_cycle(cycle)
            else:
                self.cycle = nxt
            if self._committed_watermark >= max_commits:
                return
            if nxt >= limit:
                raise SimulationLimitExceeded(
                    f"exceeded {limit} cycles without reaching "
                    f"{max_commits} commits")

    def _settle_stall_accounting(self) -> None:
        """Credit the still-open branch/policy-wait intervals up to ``cycle``.

        Branch-stall and policy-stall cycles are accounted at wait *end*
        (resolve, squash, unstall); a run that stops mid-wait settles the
        open tails here so the totals match the per-cycle scans they
        replaced, cycle for cycle.
        """
        cycle = self.cycle
        for ts in self.threads:
            if ts.waiting_branch is not None:
                ts.stats.branch_stall_cycles += cycle - ts.branch_wait_since
                ts.branch_wait_since = cycle
            if ts.policy_stalled_flag:
                ts.stats.policy_stall_cycles += cycle - ts.policy_stall_since
                ts.policy_stall_since = cycle

    def reset_measurement(self) -> None:
        """Zero all statistics while keeping microarchitectural state warm.

        Used to discard cold-start transients (cold caches and TLBs, empty
        predictors) from measurements; the pipeline contents, predictor
        tables and cache state are untouched.
        """
        from repro.pipeline.stats import ThreadStats

        for i, ts in enumerate(self.threads):
            fresh = ThreadStats()
            ts.stats = fresh
            self.stats.threads[i] = fresh
            if ts.commit_cycles is not None:
                ts.commit_cycles = []
            if ts.waiting_branch is not None:
                # The open branch wait straddles the measurement boundary;
                # only its measured-phase tail may count.
                ts.branch_wait_since = self.cycle
            if ts.policy_stalled_flag:
                # Same for an open policy stall.
                ts.policy_stall_since = self.cycle
            # The LLSR's register stays warm but its *sample log* is
            # measurement state: cold-start compulsory misses would
            # otherwise pollute the Figure 4 distance distribution.
            ts.llsr.measured = []
            ts.llsr.suppressed = 0
        self.stats.resource_stall_cycles = 0
        hierarchy = self.hierarchy
        hierarchy.ll_intervals = []
        hierarchy.ll_loads_per_thread = {}
        hierarchy.demand_loads = 0
        hierarchy.merged_loads = 0
        hierarchy.prefetch_covered = 0
        self._committed_watermark = 0
        self._measure_start = self.cycle

    def step(self) -> None:
        """Advance one cycle (or fast-forward to the next event).

        One pass of :meth:`_run_until`'s loop, with no commit target and
        no cycle limit.
        """
        self._run_until(0, None, one_pass=True)

    # ------------------------------------------------------------------ #
    # events (execution completions, long-latency detections)
    # ------------------------------------------------------------------ #

    def _complete(self, di: DynInstr, cycle: int) -> None:
        """Handle one due completion event: ``di``'s result is ready.

        The run loop's completion drain calls this for every due record,
        in age order.
        """
        ts = self.threads[di.thread]
        if di.is_load and di.pending == -1:  # counted as outstanding miss
            ts.outstanding_misses -= 1
        if di.squashed:
            return
        di.completed = True
        window = ts.window
        if window and window[0] is di:
            # Only a completed *head* can unblock commit: the gate and the
            # head mask move together.
            self._heads_mask |= ts.tid_bit
            self._commit_pending = True
        w = di.waiter0
        if w is not None:
            di.waiter0 = None
            ready_by_op = self._ready_by_op
            w.pending -= 1
            if w.pending == 0 and not w.squashed and w.in_iq and not w.issued:
                heappush(ready_by_op[w.instr.op_i], (w.gseq, w))
            waiters = di.waiters
            if waiters is not None:
                di.waiters = None
                for w in waiters:
                    w.pending -= 1
                    if (w.pending == 0 and not w.squashed
                            and w.in_iq and not w.issued):
                        heappush(ready_by_op[w.instr.op_i], (w.gseq, w))
        if di.is_branch and ts.waiting_branch is di:
            ts.waiting_branch = None
            ts.stats.branch_stall_cycles += cycle - ts.branch_wait_since
            if ts.fetch_blocked_until < cycle + 1:
                ts.fetch_blocked_until = cycle + 1
            self._fetch_wake = 0
        if di.is_load:
            on_load_complete = self._policy_on_load_complete
            if on_load_complete is not None:
                on_load_complete(di, ts)

    # ------------------------------------------------------------------ #
    # commit
    # ------------------------------------------------------------------ #

    def _commit(self, cycle: int) -> None:
        # Rotate by cycle number (not by call count) so fast-forwarded and
        # naive runs stay cycle-exact; the rotation is filtered to the
        # ready-head mask so idle threads are never even iterated.
        n = self._n_threads
        if n == 1:
            order = self.threads
        else:
            rot_cache = self._rot_cache
            if rot_cache is None:
                order = self._rotations[cycle % n]
            else:
                heads_mask = self._heads_mask
                slot = heads_mask * n + cycle % n
                order = rot_cache[slot]
                if order is None:
                    order = rot_cache[slot] = tuple(
                        ts for ts in self._rotations[cycle % n]
                        if heads_mask >> ts.tid & 1)
        commit_one = self._commit_one
        budget = self._commit_width
        # A thread's head only changes when that thread commits, so after
        # the first rotation pass another lap is owed only while some
        # thread is still making progress.
        while budget > 0:
            progress = False
            for ts in order:
                if budget == 0:
                    break
                if commit_one(ts, cycle):
                    budget -= 1
                    progress = True
            if not progress:
                break
        # Keep the gate set exactly while leftover progress is possible:
        # a non-zero head mask (which _commit_one maintains) means a
        # budget-limited pass left committable heads, or a
        # write-buffer-blocked store head (which unblocks by time) is
        # still ready.
        self._commit_pending = self._heads_mask != 0

    def _commit_one(self, ts: ThreadState, cycle: int) -> bool:
        window = ts.window
        if not window:
            return False
        di = window[0]
        if not di.completed:
            return False
        instr = di.instr
        if di.is_store:
            if self._wb_used >= self._wb_entries:
                return False
            result = self.hierarchy.store(ts.tid, instr.pc, instr.addr, cycle)
            self._schedule_wb_drain(result.complete_cycle, cycle)
        window.popleft()
        if window and window[0].completed:
            self._heads_mask |= ts.tid_bit
        else:
            self._heads_mask &= ~ts.tid_bit
        ts.rob_count -= 1
        self.rob_used -= 1
        if di.is_load or di.is_store:
            ts.lsq_count -= 1
            self.lsq_used -= 1
        if di.has_dest:
            if di.dest_fp:
                ts.fp_regs -= 1
                self.fp_regs_used -= 1
            else:
                ts.int_regs -= 1
                self.int_regs_used -= 1
        self._release_epoch += 1
        st = ts.stats
        committed = st.committed + 1
        st.committed = committed
        if committed > self._committed_watermark:
            self._committed_watermark = committed
        if ts.commit_cycles is not None:
            ts.commit_cycles.append(cycle - self._measure_start)
        dependent = False
        parents = di.ll_parents
        if parents is not None:
            # Producers committed before us, so their long-latency outcome
            # and inherited dependence are final by now.
            dependent = any(p.is_ll or p.ll_dep for p in parents)
            di.ll_dep = dependent
            di.ll_parents = None
        ts.llsr.commit(di.is_load and di.is_ll, instr.pc, dependent)
        # The rename-undo backref dies with the commit (a committed
        # instruction can never be flushed).  Dropping it keeps each
        # register's committed writers from staying chained in memory,
        # oldest to youngest, behind the rename-current record.
        di.old_map = None
        return True

    # ------------------------------------------------------------------ #
    # event scheduling
    # ------------------------------------------------------------------ #

    def _schedule_completion(self, di: DynInstr, when: int,
                             cycle: int) -> None:
        """Queue ``di``'s completion event at ``when``.

        A ``when`` at or before the current cycle lands at ``cycle + 1``:
        the drain for ``cycle`` has already run.
        """
        if when <= cycle:
            when = cycle + 1
        heappush(self._ev_heap, (when, di.gseq, di))

    def _schedule_wb_drain(self, when: int, cycle: int) -> None:
        """Occupy one write-buffer entry until ``when``."""
        if when <= cycle:
            when = cycle + 1
        heappush(self._wb_heap, when)
        self._wb_used += 1

    # ------------------------------------------------------------------ #
    # issue / execute
    # ------------------------------------------------------------------ #

    def _issue(self, cycle: int) -> None:
        # self._execute is looked up per call (not bound at construction)
        # on purpose: RunaheadCore overrides it, and tests monkeypatch it
        # on instances to spy on the issue stream.
        execute = self._execute
        issued = False
        queue = self._ready_int
        if queue:
            slots = self._num_int_alu
            while queue and slots > 0:
                _, di = heappop(queue)
                if di.squashed or di.issued or di.completed:
                    continue
                execute(di, cycle)
                slots -= 1
                issued = True
        queue = self._ready_ldst
        if queue:
            slots = self._num_ldst
            while queue and slots > 0:
                _, di = heappop(queue)
                if di.squashed or di.issued or di.completed:
                    continue
                execute(di, cycle)
                slots -= 1
                issued = True
        queue = self._ready_fp
        if queue:
            slots = self._num_fp
            while queue and slots > 0:
                _, di = heappop(queue)
                if di.squashed or di.issued or di.completed:
                    continue
                execute(di, cycle)
                slots -= 1
                issued = True
        if issued:
            # Issuing freed IQ slots (every executed instruction held one):
            # one epoch bump covers the whole stage.
            self._release_epoch += 1

    def _execute(self, di: DynInstr, cycle: int) -> None:
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
            # (the release-epoch bump for the IQ slot is batched at the
            # end of _issue — nothing reads the epoch mid-issue.)
        instr = di.instr
        if di.is_load:
            result = self.hierarchy.load(
                ts.tid, instr.pc, instr.addr, cycle + instr.latency)
            completion = result.complete_cycle
            is_ll = result.long_latency
            di.is_ll = is_ll
            di.level = result.level
            stats = ts.stats
            stats.loads_executed += 1
            ts.lll_pred.train(instr.pc, is_ll)
            predicted = di.predicted_ll
            if predicted is not None:
                stats.lll_pred_loads += 1
                if predicted == is_ll:
                    stats.lll_pred_correct += 1
                if is_ll:
                    stats.lll_pred_miss_actual += 1
                    if predicted:
                        stats.lll_pred_miss_correct += 1
            if is_ll:
                stats.ll_loads += 1
            if result.trigger:
                when = result.detect_cycle
                if when <= cycle:
                    when = cycle + 1
                heappush(self._dt_heap, (when, di.gseq, di))
            di.fill_line = result.fill_line
            if result.level is not ServiceLevel.L1:
                ts.outstanding_misses += 1
                di.pending = -1  # marks "counted as outstanding miss"
        else:
            completion = cycle + instr.latency
        # Every path lands strictly after ``cycle``, so no clamp is needed
        # here (_schedule_completion is the form with the clamp).
        heappush(self._ev_heap, (completion, di.gseq, di))

    # ------------------------------------------------------------------ #
    # dispatch (rename + resource allocation)
    # ------------------------------------------------------------------ #

    def _dispatch(self, cycle: int) -> None:
        # Every attempt goes through _try_dispatch.  A head rejected by a
        # *shared-resource* gate is latched against the release epoch:
        # with the same head and no release since, the same gate must
        # fail again (shared counters only grew), so the rejection is
        # re-asserted without re-proving it.  Policy-cap rejections
        # (can_dispatch, a partition) are never latched — their verdict
        # may change with any co-runner state.
        budget = self._decode_width
        any_ready = False
        blocked_by_resource = False
        dispatched = 0
        release_epoch = self._release_epoch
        try_dispatch = self._try_dispatch
        fe_capacity = self._fe_capacity
        # The rotation is offset by one from commit's.
        for ts in self._rotations[(cycle + 1) % self._n_threads]:
            if budget == 0:
                break
            if cycle < ts.dispatch_wait_until:
                continue  # head not through the front end yet
            fe = ts.fe_queue
            if not fe:
                continue
            if fe[0] is ts.dispatch_blocked_head:
                if ts.dispatch_blocked_epoch == release_epoch:
                    any_ready = True
                    blocked_by_resource = True
                    continue
                ts.dispatch_blocked_head = None
            fe_was_full = len(fe) >= fe_capacity
            while budget > 0 and fe:
                di = fe[0]
                if di.fe_ready > cycle:
                    ts.dispatch_wait_until = di.fe_ready
                    break
                any_ready = True
                outcome = try_dispatch(ts, di)
                if outcome is None:
                    fe.popleft()
                    budget -= 1
                    dispatched += 1
                    continue
                if outcome:   # a full shared resource: latch the head
                    ts.dispatch_blocked_head = di
                    ts.dispatch_blocked_epoch = release_epoch
                    blocked_by_resource = True
                break
            if fe_was_full and len(fe) < fe_capacity:
                # Pops opened fetch-queue headroom: eligibility changed.
                self._fetch_wake = 0
        if any_ready and dispatched == 0 and blocked_by_resource:
            self.stats.resource_stall_cycles += 1
            on_resource_stall = self._policy_on_resource_stall
            if on_resource_stall is not None:   # None: marked no-op hook
                on_resource_stall(cycle)
            elif (self._policy_can_dispatch is None
                  and self._partition is None):
                # Every ready head hit a full shared resource, the hook
                # is a no-op and there is no dispatch cap: the verdict
                # repeats until a release (epoch, captured *before* any
                # hook could flush), a head arriving through the front
                # end by time, or a fetch/flush invalidation.
                wake = cycle + (1 << 30)
                for ts in self.threads:
                    wait_until = ts.dispatch_wait_until
                    if cycle < wait_until < wake:
                        wake = wait_until
                self._stall_latch_until = wake
                self._stall_latch_epoch = release_epoch

    def _try_dispatch(self, ts: ThreadState, di: DynInstr) -> bool | None:
        """Dispatch ``di``; returns None on success, else whether the block
        was caused by a full shared resource (vs. a policy cap)."""
        if self.rob_used >= self._rob_size:
            return True
        instr = di.instr
        is_mem = di.is_load or di.is_store
        if is_mem and self.lsq_used >= self._lsq_size:
            return True
        fp_queue = instr.fp_queue
        if fp_queue:
            if self.fq_used >= self._fp_iq_size:
                return True
        elif self.iq_used >= self._int_iq_size:
            return True
        if di.has_dest:
            if di.dest_fp:
                if self.fp_regs_used >= self._fp_rename_regs:
                    return True
            elif self.int_regs_used >= self._int_rename_regs:
                return True
        can_dispatch = self._policy_can_dispatch   # None: allow-all
        if can_dispatch is not None and not can_dispatch(ts, di):
            return False
        if self._partition is not None:
            rob, lsq, iq, fq, int_regs, fp_regs = self.partition_limits(ts)
            if (ts.rob_count >= rob
                    or (is_mem and ts.lsq_count >= lsq)
                    or (ts.fq_count >= fq if fp_queue
                        else ts.iq_count >= iq)
                    or (di.has_dest
                        and (ts.fp_regs >= fp_regs if di.dest_fp
                             else ts.int_regs >= int_regs))):
                return False
        # All checks passed: allocate and rename.
        self.rob_used += 1
        ts.rob_count += 1
        if is_mem:
            self.lsq_used += 1
            ts.lsq_count += 1
        if fp_queue:
            self.fq_used += 1
            ts.fq_count += 1
        else:
            self.iq_used += 1
            ts.iq_count += 1
        di.in_iq = True
        di.iq_is_fp = fp_queue
        rename_map = ts.rename_map
        track_dep = self._track_ll_dep
        parents: list[DynInstr] | None = [] if track_dep else None
        # Runahead INV instructions carry bogus values: they neither wait
        # for producers nor execute for real (see repro.runahead.core).
        wait = not di.inv
        for src in instr.srcs:
            if src < 0:   # a list would read register 64 + src
                raise IndexError(
                    f"source register {src} is outside the rename map")
            prod = rename_map[src]
            if prod is None:
                continue
            if track_dep and (prod.is_load or prod.ll_parents is not None
                              or prod.ll_dep):
                parents.append(prod)
            if wait and not prod.completed:
                di.pending += 1
                if prod.waiter0 is None:
                    prod.waiter0 = di
                elif prod.waiters is None:
                    prod.waiters = [di]
                else:
                    prod.waiters.append(di)
        if parents:
            di.ll_parents = tuple(parents)
        if di.has_dest:
            dest = instr.dest
            if dest < 0:
                raise IndexError(
                    f"destination register {dest} is outside the rename map")
            di.old_map = rename_map[dest]
            rename_map[dest] = di
            if di.dest_fp:
                self.fp_regs_used += 1
                ts.fp_regs += 1
            else:
                self.int_regs_used += 1
                ts.int_regs += 1
        ts.window.append(di)
        if di.pending == 0:
            heappush(self._ready_by_op[instr.op_i], (di.gseq, di))
        return None

    def partition_limits(self, ts: ThreadState) -> tuple | None:
        """``ts``'s six dispatch limits, in the order of
        :func:`repro.policies.base.buffer_sizes`, under the policy's
        partition (``None`` without one): its row of
        ``policy.limit_rows``, or DCRA's share of every buffer, where a
        thread with a miss in flight weighs its entry of
        ``policy.slow_weights`` and any other 1.0."""
        policy = self.policy
        if self._partition == "rows":
            return policy.limit_rows[ts.tid]
        if self._partition is None:
            return None
        weights = policy.slow_weights
        # A plain left-to-right sum, as the compiled gate adds: sum()
        # compensates float rounding from CPython 3.12 on.
        total = 0.0
        for t in self.threads:
            total += weights[t.tid] if t.outstanding_misses > 0 else 1.0
        share = (weights[ts.tid] if ts.outstanding_misses > 0
                 else 1.0) / total
        return (self._rob_size * share, self._lsq_size * share,
                self._int_iq_size * share, self._fp_iq_size * share,
                self._int_rename_regs * share, self._fp_rename_regs * share)

    # ------------------------------------------------------------------ #
    # fetch
    # ------------------------------------------------------------------ #

    def fetchable(self, ts: ThreadState, cycle: int) -> bool:
        """Base (policy-independent) fetch eligibility for ``ts``."""
        return (ts.fetch_blocked_until <= cycle
                and ts.waiting_branch is None
                and len(ts.fe_queue) < self._fe_capacity)

    def _compute_fetch_wake(self, cycle: int) -> int:
        """Earliest cycle an empty fetch order could refill by *time*.

        Called right after fetch_order returned empty.  Threads blocked on
        I-fetch or redirect refill unblock at a known cycle; every other
        blocker (branch wait, full fetch queue, policy stall) clears
        through an event that resets the latch to 0.  A far-future result
        is fine: the fast-forward machinery still bounds progress and
        diagnoses genuine wedges.
        """
        wake = cycle + (1 << 30)
        for ts in self.threads:
            blocked_until = ts.fetch_blocked_until
            if cycle < blocked_until < wake:
                wake = blocked_until
        return wake

    def in_runahead(self, ts: ThreadState) -> bool:
        """Whether ``ts`` is speculating past a blocked long-latency load.

        Always False on the base core; :class:`repro.runahead.RunaheadCore`
        overrides this.  Policies consult it to suppress fetch-window
        bookkeeping during runahead episodes.
        """
        return False

    def _fetch_thread(self, ts: ThreadState, budget: int, cycle: int,
                      ignore_stall: bool) -> int:
        trace_get = ts.trace_get
        trace_static = ts.trace_static   # None: duck-typed stub trace
        body_len = ts.trace_body_len
        # pc_address(), inlined: every trace maps PCs affinely at 4 bytes
        # per instruction ("code region, 4 bytes per static instruction"),
        # so the cached origin folds the constant part and the
        # per-instruction cost is arithmetic rather than a method call.
        pc_origin = ts.pc_origin
        on_fetch = self._policy_on_fetch       # None: no-op for all instrs
        on_fetch_load = self._policy_on_fetch_load  # None: not loads-only
        fe_queue = ts.fe_queue
        fe_append = fe_queue.append
        lll_predict = ts.lll_pred.predict
        ifetch = self.hierarchy.ifetch
        line_shift = self._line_shift
        fe_ready = cycle + self._frontend_depth
        tid = ts.tid
        gseq = self._gseq
        allowed_end = ts.allowed_end
        count = 0
        fe_was_empty = not fe_queue
        limit = self._fe_capacity - len(fe_queue)
        if budget < limit:
            limit = budget
        while count < limit:
            fetch_index = ts.fetch_index
            if not ignore_stall and allowed_end is not None \
                    and fetch_index > allowed_end:
                break
            if trace_static is not None:
                # get(), fast half inlined: iteration-invariant slots are
                # pre-materialized; only varying slots pay the call.
                instr = trace_static[fetch_index % body_len]
                if instr is None:
                    instr = trace_get(fetch_index)
            else:
                instr = trace_get(fetch_index)
            pc_addr = pc_origin + instr.pc * 4
            line = pc_addr >> line_shift
            if line != ts.last_ifetch_line:
                done = ifetch(tid, pc_addr, cycle)
                ts.last_ifetch_line = line
                if done > cycle:
                    ts.fetch_blocked_until = done
                    break
            gseq += 1
            di = DynInstr(instr, tid, fetch_index, gseq, fe_ready)
            fe_append(di)
            ts.fetch_index = fetch_index + 1
            ts.icount += 1
            count += 1
            if di.is_load:
                di.predicted_ll = lll_predict(instr.pc)
                if on_fetch_load is not None:
                    on_fetch_load(di, ts)
                    allowed_end = ts.allowed_end  # the hook may update it
            if di.is_branch:
                taken = instr.taken
                prediction = self.gshare.update(instr.pc, taken, tid)
                target_known = True
                if taken:
                    target_known = self.btb.lookup(instr.pc)
                    self.btb.insert(instr.pc)
                if prediction != taken or not target_known:
                    ts.waiting_branch = di
                    ts.branch_wait_since = cycle
                    if on_fetch is not None:
                        on_fetch(di, ts)
                    break
                if on_fetch is not None:
                    on_fetch(di, ts)
                if taken:
                    # A correctly-predicted taken branch ends the block.
                    break
            elif on_fetch is not None:
                on_fetch(di, ts)
            if on_fetch is not None:
                allowed_end = ts.allowed_end  # the hook may update it
        self._gseq = gseq
        if count:
            # Batched: nothing inside the burst reads the fetched counter.
            ts.stats.fetched += count
            if fe_was_empty:
                # A fresh head where dispatch saw none: the stall verdict
                # no longer holds.  (A hook's flush mid-burst has already
                # disarmed it, in flush_thread.)
                self._stall_latch_until = 0
        # The fetch index may have crossed allowed_end mid-burst; fold the
        # transition into the event-driven stall state.
        ts._sync_policy_stall(cycle)
        return count

    # ------------------------------------------------------------------ #
    # flush (policy-triggered squash)
    # ------------------------------------------------------------------ #

    def flush_thread(self, ts: ThreadState, after_seq: int,
                     cancel_fills: bool | None = None) -> int:
        """Squash all of ``ts``'s instructions younger than ``after_seq``.

        Rewinds fetch to ``after_seq + 1``; returns the number of squashed
        instructions.  ``cancel_fills`` overrides the configured squash
        semantics: ``False`` lets in-flight cache fills of squashed loads
        continue (runahead exit — the fills *are* the prefetches), ``None``
        defers to ``cfg.memory.cancel_squashed_fills``.
        """
        squashed = 0
        fe = ts.fe_queue
        icount_delta = 0
        while fe and fe[-1].seq > after_seq:
            di = fe.pop()
            di.squashed = True
            icount_delta += 1
            squashed += 1
        if cancel_fills is None:
            cancel_fills = self.cfg.memory.cancel_squashed_fills
        window = ts.window
        rename_map = ts.rename_map
        ll_owners = ts.ll_owners
        cycle = self.cycle
        # Per-resource releases are tallied locally and applied once after
        # the loop; a deep flush (up to a ROB slice) would otherwise do
        # six read-modify-writes per squashed instruction.  Nothing inside
        # the loop observes the shared counters (clear_owner touches only
        # the policy-stall bookkeeping, cancel_fill only the hierarchy).
        rob_delta = lsq_delta = iq_delta = fq_delta = 0
        int_regs_delta = fp_regs_delta = 0
        while window and window[-1].seq > after_seq:
            di = window.pop()
            di.squashed = True
            squashed += 1
            if cancel_fills and di.fill_line is not None and not di.completed:
                self.hierarchy.cancel_fill(di.fill_line, di.instr.addr,
                                           cycle)
            rob_delta += 1
            if di.is_load or di.is_store:
                lsq_delta += 1
            if di.in_iq:
                di.in_iq = False
                icount_delta += 1
                if di.iq_is_fp:
                    fq_delta += 1
                else:
                    iq_delta += 1
            if di.has_dest:
                # Undo the rename: the old mapping is current again.
                rename_map[di.instr.dest] = di.old_map
                if di.dest_fp:
                    fp_regs_delta += 1
                else:
                    int_regs_delta += 1
            if di in ll_owners:
                ts.clear_owner(di, cycle)
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
        if ts.waiting_branch is not None and ts.waiting_branch.squashed:
            ts.waiting_branch = None
            ts.stats.branch_stall_cycles += self.cycle - ts.branch_wait_since
        ts.fetch_index = after_seq + 1
        ts.last_ifetch_line = -1
        # The squash may have removed the ROB head (or the whole window):
        # re-derive the head mask.
        if window and window[0].completed:
            self._heads_mask |= ts.tid_bit
        else:
            self._heads_mask &= ~ts.tid_bit
        ts.stats.squashed += squashed
        ts.stats.flushes += 1
        # Squashing released shared resources and rewound the fetch index:
        # invalidate dispatch and fetch latches, re-derive the stall state.
        self._release_epoch += 1
        self._fetch_wake = 0
        self._stall_latch_until = 0
        ts._sync_policy_stall(cycle)
        return squashed

    # ------------------------------------------------------------------ #
    # fast-forward
    # ------------------------------------------------------------------ #

    def _head_retirable(self, ts: ThreadState, wb_full: bool) -> bool:
        """Can ``ts``'s ROB head make commit-stage progress next cycle?

        Part of the fast-forward probe; :class:`repro.runahead.RunaheadCore`
        overrides it because pseudo-retirement and runahead entry can make
        progress on heads the base commit stage would stall on.
        """
        window = ts.window
        if not window or not window[0].completed:
            return False
        return not window[0].is_store or not wb_full

    def _next_cycle(self, cycle: int) -> int:
        # The run loop has already established that nothing can fetch or
        # issue at ``nxt``; find the earliest future cycle where anything
        # can happen, or prove the pipeline is wedged.
        nxt = cycle + 1
        candidates = []
        wb_full = self._wb_used >= self._wb_entries
        head_retirable = self._head_retirable
        for ts in self.threads:
            if head_retirable(ts, wb_full):
                return nxt
            fe = ts.fe_queue
            if fe:
                head_ready = fe[0].fe_ready
                if head_ready <= nxt:
                    return nxt
                candidates.append(head_ready)
            if ts.fetch_blocked_until > nxt:
                candidates.append(ts.fetch_blocked_until)
        if self._ev_heap:
            candidates.append(self._ev_heap[0][0])
        if self._dt_heap:
            candidates.append(self._dt_heap[0][0])
        if self._wb_heap:
            candidates.append(self._wb_heap[0])
        if not candidates:
            raise SimulationDeadlock(
                f"no future events at cycle {cycle}; pipeline is wedged")
        target = min(candidates)
        if target <= nxt:
            return nxt
        # (skipped policy-stall cycles are covered by the open stall
        # intervals — no transition can occur in a skipped cycle.)
        return target
