"""Data-miss gating fetch policies (El-Moursy & Albonesi, HPCA 2003).

Section 7.2 of the paper describes these as the L1-miss-driven relatives of
the long-latency-aware policies: instead of reacting to L3/TLB misses, they
bound the number of *outstanding L1 data-cache misses* per thread, fetch
gating the thread whenever the bound is exceeded.  The original goal was
issue-queue occupancy (and therefore energy), but they double as a fairness
baseline for the paper's comparison space.

Two schemes:

* **DG (data miss gating)** — counts L1D misses as loads *execute*; the
  thread is gated while more than ``threshold`` misses are outstanding.
  The count reacts late (a burst of loads can slip into the pipeline before
  the first miss is noticed), which is exactly the delay PDG targets.
* **PDG (predictive data miss gating)** — predicts L1D misses in the front
  end with a PC-indexed 2-bit saturating-counter table and gates on the
  number of *predicted-miss loads currently in flight*, closing the
  observe-to-gate window.

Neither scheme is MLP-aware: a gated thread cannot fetch the independent
misses that would have overlapped with the outstanding ones — the same
serialization the paper criticizes stall/flush for.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.memory.hierarchy import ServiceLevel
from repro.policies.base import FetchPolicy
from repro.predictors import TwoBitMissPredictor

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.pipeline.dyninstr import DynInstr
    from repro.pipeline.thread_state import ThreadState


class DataGatingPolicy(FetchPolicy):
    """DG: gate fetch while a thread has > ``threshold`` L1D misses out."""

    __slots__ = ("threshold",)

    name = "dg"

    def __init__(self, threshold: int = 2):
        super().__init__()
        if not threshold >= 1:   # negated: NaN fails too
            raise ValueError("threshold must be at least 1")
        self.threshold = threshold

    def _gated(self, ts: ThreadState) -> bool:
        return ts.outstanding_misses > self.threshold

    def fetch_order(self, cycle: int):
        core = self.core
        eligible = [ts for ts in core.threads
                    if core.fetchable(ts, cycle) and not self._gated(ts)]
        eligible.sort(key=lambda ts: ts.icount)
        return [(ts, False) for ts in eligible]

    def fetch_pending(self, cycle: int) -> bool:
        core = self.core
        return any(core.fetchable(ts, cycle) and not self._gated(ts)
                   for ts in core.threads)


class PredictiveDataGatingPolicy(FetchPolicy):
    """PDG: gate on the number of predicted-miss loads in flight."""

    __slots__ = ("threshold", "_predictor_entries", "_miss_pred", "_inflight")

    name = "pdg"
    on_fetch_loads_only = True  # on_fetch tracks predicted-miss loads

    def __init__(self, threshold: int = 2, predictor_entries: int = 2048):
        super().__init__()
        if not threshold >= 1:   # negated: NaN fails too
            raise ValueError("threshold must be at least 1")
        self.threshold = threshold
        self._predictor_entries = predictor_entries
        #: per-thread PC-indexed 2-bit L1D-miss predictors
        self._miss_pred: list[TwoBitMissPredictor] = []
        #: per-thread set of in-flight loads predicted to miss
        self._inflight: list[set[DynInstr]] = []

    def attach(self, core):
        super().attach(core)
        self._miss_pred = [TwoBitMissPredictor(self._predictor_entries)
                           for _ in core.threads]
        self._inflight = [set() for _ in core.threads]

    def _gated(self, ts: ThreadState) -> bool:
        # Count without mutating: fetch_order must stay side-effect free.
        live = sum(1 for di in self._inflight[ts.tid]
                   if not di.squashed and not di.completed)
        return live > self.threshold

    def fetch_order(self, cycle: int):
        core = self.core
        eligible = [ts for ts in core.threads
                    if core.fetchable(ts, cycle) and not self._gated(ts)]
        eligible.sort(key=lambda ts: ts.icount)
        return [(ts, False) for ts in eligible]

    def fetch_pending(self, cycle: int) -> bool:
        core = self.core
        return any(core.fetchable(ts, cycle) and not self._gated(ts)
                   for ts in core.threads)

    def on_fetch(self, di: DynInstr, ts: ThreadState) -> None:
        if di.is_load and self._miss_pred[ts.tid].predict(di.instr.pc):
            self._inflight[ts.tid].add(di)

    def on_load_complete(self, di: DynInstr, ts: ThreadState) -> None:
        if di.level is not None:
            self._miss_pred[ts.tid].train(
                di.instr.pc, di.level is not ServiceLevel.L1)
        inflight = self._inflight[ts.tid]
        inflight.discard(di)
        # Squashed members never complete; prune them here (a side-effectful
        # hook) so the set stays small.
        if len(inflight) > 4 * self.threshold:
            inflight.difference_update(
                [d for d in inflight if d.squashed or d.completed])
