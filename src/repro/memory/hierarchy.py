"""The composed memory-hierarchy timing model.

Implements Table IV: 64KB 2-way L1I/L1D, 512KB 8-way L2, 4MB 16-way L3,
128/512-entry fully-associative I/D TLBs, latencies L2(11)/L3(35)/MEM(350),
and an 8×8 stream-buffer prefetcher guided by a 2K-entry stride predictor.

Modelling approach: tags are installed at request time, while a pending-fill
table records when the data actually arrives.  A second access to a line
whose fill is still in flight completes when the fill does — this reproduces
MSHR merging (delayed hits) without per-cycle bookkeeping.  MSHR capacity
bounds the number of concurrent demand fills.

A **long-latency load** (the paper's trigger event) is a demand load that
either misses the L3 (data comes from DRAM) or misses the D-TLB.  The
hierarchy records one `(start, end)` interval per long-latency load so that
MLP — the Chou et al. average number of long-latency loads outstanding while
at least one is outstanding — can be integrated exactly after a run.

``serialize_long_latency`` forces at most one outstanding memory-level
demand miss; comparing a serialized run against a normal run yields the
"MLP impact" column of Table I.
"""

from __future__ import annotations

from enum import IntEnum
import heapq

from repro.config import MemoryConfig
from repro.memory.cache import Cache
from repro.memory.stream_buffer import StreamBufferPrefetcher
from repro.memory.tlb import TLB


class ServiceLevel(IntEnum):
    """Where a memory access was ultimately serviced from."""

    L1 = 1
    STREAM = 2   # stream-buffer prefetcher
    MERGE = 3    # merged into an in-flight fill (delayed hit)
    L2 = 4
    L3 = 5
    MEM = 6


class AccessResult:
    """Timing outcome of one data access.

    ``long_latency`` is the paper's strict definition — the load itself
    missed the L3 or the D-TLB — and feeds the statistics, the LLSR, and
    the predictors.  ``trigger`` is what the long-latency-aware fetch
    policies observe: any load that will stay outstanding far beyond the
    L3 latency, which additionally includes *delayed hits* that merge into
    an in-flight fill (Tullsen & Brown trigger on loads outstanding past a
    threshold, and a merged load is outstanding just the same).
    """

    __slots__ = ("complete_cycle", "detect_cycle", "level", "tlb_miss",
                 "long_latency", "trigger", "fill_line")

    def __init__(self, complete_cycle: int, detect_cycle: int,
                 level: ServiceLevel, tlb_miss: bool, long_latency: bool,
                 trigger: bool | None = None, fill_line: int | None = None):
        self.complete_cycle = complete_cycle
        self.detect_cycle = detect_cycle
        self.level = level
        self.tlb_miss = tlb_miss
        self.long_latency = long_latency
        self.trigger = long_latency if trigger is None else trigger
        # Line number of the memory fill this load *initiated* (None if it
        # hit or merged); used to cancel the fill if the load is squashed.
        self.fill_line = fill_line

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<AccessResult {self.level.name} done@{self.complete_cycle}"
                f"{' LL' if self.long_latency else ''}>")


class MemoryHierarchy:
    """Shared (SMT) memory hierarchy with per-access timing.

    Slotted so the compiled engine reads it by slot offset: its loop
    resolves L1/TLB hits of ``load``, ``store`` and ``ifetch`` itself
    (``_cext_engine.c``) and calls these methods for everything else.
    """

    __slots__ = ("cfg", "_l1_latency", "_l2_latency", "_l3_latency",
                 "_mem_latency", "_tlb_miss_penalty", "_mshr_entries",
                 "_serialize_ll", "l1i", "l1d", "l2", "l3", "itlb", "dtlb",
                 "prefetcher", "_pending", "_fill_ends", "_last_ll_end",
                 "ll_intervals", "ll_loads_per_thread", "demand_loads",
                 "merged_loads", "prefetch_covered")

    def __init__(self, cfg: MemoryConfig):
        self.cfg = cfg
        # Latency/capacity scalars hoisted off the frozen config: the data
        # path reads several per access.
        self._l1_latency = cfg.l1_latency
        self._l2_latency = cfg.l2_latency
        self._l3_latency = cfg.l3_latency
        self._mem_latency = cfg.mem_latency
        self._tlb_miss_penalty = cfg.tlb_miss_penalty
        self._mshr_entries = cfg.mshr_entries
        self._serialize_ll = cfg.serialize_long_latency
        self.l1i = Cache(cfg.l1i, "L1I")
        self.l1d = Cache(cfg.l1d, "L1D")
        self.l2 = Cache(cfg.l2, "L2")
        self.l3 = Cache(cfg.l3, "L3")
        self.itlb = TLB(cfg.itlb)
        self.dtlb = TLB(cfg.dtlb)
        self.prefetcher = (
            StreamBufferPrefetcher(cfg.prefetcher, cfg.line_size,
                                   cfg.mem_latency)
            if cfg.prefetcher.enabled else None)
        # line number -> (data-ready cycle, ServiceLevel of the fill source)
        self._pending: dict[int, tuple[int, ServiceLevel]] = {}
        self._fill_ends: list[int] = []     # heap of outstanding demand fills
        self._last_ll_end = 0               # for serialize_long_latency mode
        # (start, end) per long-latency load, for exact MLP integration.
        self.ll_intervals: list[tuple[int, int]] = []
        self.ll_loads_per_thread: dict[int, int] = {}
        self.demand_loads = 0
        self.merged_loads = 0
        self.prefetch_covered = 0

    # ------------------------------------------------------------------ #
    # data path
    # ------------------------------------------------------------------ #

    def load(self, thread: int, pc: int, addr: int, cycle: int) -> AccessResult:
        """Demand load issued by a load/store unit at ``cycle``."""
        self.demand_loads += 1
        tlb_miss = not self.dtlb.lookup(addr)
        if self.prefetcher is not None:
            self.prefetcher.observe_load(pc, addr)
        result = self._data_access(pc, addr, cycle, tlb_miss, demand=True)
        if result.long_latency:
            self.ll_loads_per_thread[thread] = (
                self.ll_loads_per_thread.get(thread, 0) + 1)
            self.ll_intervals.append((cycle, result.complete_cycle))
        return result

    def store(self, thread: int, pc: int, addr: int, cycle: int) -> AccessResult:
        """Committed store draining from the write buffer (write-allocate)."""
        tlb_miss = not self.dtlb.lookup(addr)
        return self._data_access(pc, addr, cycle, tlb_miss, demand=False)

    def _data_access(self, pc: int, addr: int, cycle: int, tlb_miss: bool,
                     demand: bool) -> AccessResult:
        cfg = self  # hoisted scalars (_l1_latency etc.)
        start = cycle + (cfg._tlb_miss_penalty if tlb_miss else 0)
        line = self.l1d.line_of(addr)
        # Long-latency-aware policies trigger when the L2 miss is
        # determined (Tullsen & Brown's "trigger on miss"), a few cycles
        # after the L2 lookup — well before the data returns.
        detect = cycle + cfg._l2_latency + 3

        pending = self._pending.get(line)
        if pending is not None:
            ready, src = pending
            if ready > start:
                # Delayed hit: merge into the in-flight fill.  Not an L3 miss,
                # so not a long-latency load — unless the TLB missed.  It
                # does *trigger* the fetch policies when the fill is still
                # far away: the pipeline sees a load stuck for hundreds of
                # cycles either way.
                self.merged_loads += 1
                done = max(ready, start + cfg._l1_latency)
                if tlb_miss:
                    if cfg._serialize_ll:
                        done = max(done, self._last_ll_end)
                    self._last_ll_end = max(self._last_ll_end, done)
                trigger = tlb_miss or (done - detect) >= cfg._l3_latency
                return AccessResult(done, detect, ServiceLevel.MERGE,
                                    tlb_miss, tlb_miss, trigger)
            del self._pending[line]

        if self.l1d.lookup(addr):
            done = start + cfg._l1_latency
            if tlb_miss:
                if cfg._serialize_ll:
                    done = max(done, self._last_ll_end) + cfg._l1_latency
                self._last_ll_end = max(self._last_ll_end, done)
            return AccessResult(done, detect, ServiceLevel.L1, tlb_miss,
                                tlb_miss)

        if self.prefetcher is not None and demand:
            ready = self.prefetcher.demand_miss(pc, addr, start)
            if ready is not None:
                remaining = max(ready - start, 0)
                done = start + cfg._l1_latency + remaining
                self.l1d.install(addr)
                # A prefetch that is still (mostly) in flight did not hide
                # the memory latency: the load behaves as long-latency.
                is_ll = tlb_miss or remaining >= cfg._l3_latency
                if remaining < cfg._l3_latency:
                    self.prefetch_covered += 1
                if is_ll:
                    if cfg._serialize_ll:
                        done = max(done, self._last_ll_end)
                    self._last_ll_end = max(self._last_ll_end, done)
                return AccessResult(done, detect, ServiceLevel.STREAM,
                                    tlb_miss, is_ll)

        if self.l2.lookup(addr):
            self.l1d.install(addr)
            self.l3.touch(addr)  # keep recency; L2-hot lines stay L3-resident
            done = start + cfg._l2_latency
            if tlb_miss:
                if cfg._serialize_ll:
                    done = max(done, self._last_ll_end)
                self._last_ll_end = max(self._last_ll_end, done)
            return AccessResult(done, detect, ServiceLevel.L2, tlb_miss,
                                tlb_miss)

        if self.l3.lookup(addr):
            self.l1d.install(addr)
            self.l2.install(addr)
            done = start + cfg._l3_latency
            if tlb_miss:
                if cfg._serialize_ll:
                    done = max(done, self._last_ll_end)
                self._last_ll_end = max(self._last_ll_end, done)
            return AccessResult(done, detect, ServiceLevel.L3, tlb_miss,
                                tlb_miss)

        # Miss all the way to DRAM.
        fill_start = start
        if demand:
            fill_start = self._mshr_admit(fill_start)
            if cfg._serialize_ll:
                fill_start = max(fill_start, self._last_ll_end)
        done = fill_start + cfg._mem_latency
        if demand:
            heapq.heappush(self._fill_ends, done)
            self._last_ll_end = max(self._last_ll_end, done)
        self.l1d.install(addr)
        self.l2.install(addr)
        self.l3.install(addr)
        self._pending[line] = (done, ServiceLevel.MEM)
        return AccessResult(done, detect, ServiceLevel.MEM, tlb_miss, demand,
                            fill_line=line if demand else None)

    def cancel_fill(self, line: int, addr: int, cycle: int) -> bool:
        """Cancel an in-flight fill whose initiating load was squashed.

        If the fill has not completed by ``cycle``, the pending entry is
        dropped and the speculatively-installed tags are invalidated, so a
        refetched load misses again (SMTSIM squash semantics).  Completed
        fills are left in place — they become prefetches.
        """
        pending = self._pending.get(line)
        if pending is None or pending[0] <= cycle:
            return False
        del self._pending[line]
        self.l1d.invalidate(addr)
        self.l2.invalidate(addr)
        self.l3.invalidate(addr)
        return True

    def _mshr_admit(self, start: int) -> int:
        """Bound concurrent demand fills by the MSHR count."""
        ends = self._fill_ends
        while ends and ends[0] <= start:
            heapq.heappop(ends)
        if len(ends) >= self._mshr_entries:
            start = max(start, heapq.heappop(ends))
        return start

    # ------------------------------------------------------------------ #
    # instruction path
    # ------------------------------------------------------------------ #

    def ifetch(self, thread: int, addr: int, cycle: int) -> int:
        """Instruction-cache access; returns the completion cycle."""
        cfg = self  # hoisted scalars
        start = cycle + (0 if self.itlb.lookup(addr) else cfg._tlb_miss_penalty)
        line = self.l1i.line_of(addr)
        pending = self._pending.get(line)
        if pending is not None and pending[0] > start:
            return pending[0]
        if self.l1i.lookup(addr):
            return start  # overlapped with the fetch stage itself
        if self.l2.lookup(addr):
            self.l1i.install(addr)
            return start + cfg._l2_latency
        if self.l3.lookup(addr):
            self.l1i.install(addr)
            self.l2.install(addr)
            return start + cfg._l3_latency
        done = start + cfg._mem_latency
        self.l1i.install(addr)
        self.l2.install(addr)
        self.l3.install(addr)
        self._pending[line] = (done, ServiceLevel.MEM)
        return done

    # ------------------------------------------------------------------ #
    # metrics
    # ------------------------------------------------------------------ #

    def mlp(self) -> float:
        """Chou et al. MLP: mean #outstanding LL loads while >=1 outstanding."""
        return mlp_from_intervals(self.ll_intervals)

    @property
    def ll_load_count(self) -> int:
        return len(self.ll_intervals)


def mlp_from_intervals(intervals: list[tuple[int, int]]) -> float:
    """Integrate overlapping intervals into the Chou et al. MLP number."""
    if not intervals:
        return 0.0
    events: list[tuple[int, int]] = []
    total_latency = 0
    for start, end in intervals:
        if end <= start:
            continue
        events.append((start, 1))
        events.append((end, -1))
        total_latency += end - start
    if not events:
        return 0.0
    events.sort()
    busy = 0
    depth = 0
    last = 0
    for when, delta in events:
        if depth > 0:
            busy += when - last
        depth += delta
        last = when
    return total_latency / busy if busy else 0.0
