"""Fetch policies that drive runahead execution (paper §7.2).

Two policies, both meant to run on :class:`repro.runahead.RunaheadCore`
(the experiment runner picks the core class from ``policy.core_class``):

* :class:`RunaheadPolicy` — *runahead threads* as evaluated by Ramirez
  et al. (HPCA 2008): every long-latency load that blocks the ROB head
  enters runahead.  Fetch stays plain ICOUNT — a runahead thread never
  clogs resources, because it pseudo-retires as fast as it fetches.
* :class:`MLPRunaheadPolicy` — the hybrid the paper proposes as future
  work: "If the predicted MLP distance is small, it may be beneficial to
  apply MLP-aware flush and not to go in runahead mode; only in case the
  predicted MLP distance is large, runahead execution should be
  initiated."  Below ``runahead_threshold`` the policy behaves exactly
  like MLP-aware flush (stall/flush at the predicted distance); at or
  above it, the thread is left alone until the blocking load reaches the
  ROB head and runahead takes over, with the further prefetches paying
  for the re-execution cost.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.policies.base import FetchPolicy
from repro.policies.mlp_flush import MLPFlushPolicy
from repro.runahead.core import RunaheadCore

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.pipeline.dyninstr import DynInstr
    from repro.pipeline.thread_state import ThreadState


class RunaheadPolicy(FetchPolicy):
    """Unconditional runahead threads over ICOUNT fetch."""

    __slots__ = ()

    name = "runahead"
    core_class = RunaheadCore

    def enter_runahead(self, ts: ThreadState, di: DynInstr) -> bool:
        """Any long-latency load blocking the ROB head enters runahead."""
        return True


class MLPRunaheadPolicy(MLPFlushPolicy):
    """MLP-distance-gated runahead with MLP-aware flush fallback."""

    __slots__ = ("runahead_threshold",)

    name = "mlp_runahead"
    core_class = RunaheadCore

    def __init__(self, runahead_threshold: int = 16):
        super().__init__()
        if not runahead_threshold >= 1:   # negated: NaN fails too
            raise ValueError("runahead threshold must be at least 1")
        self.runahead_threshold = runahead_threshold

    def on_ll_detect(self, di: DynInstr, ts: ThreadState) -> None:
        if self.core.in_runahead(ts):
            return  # runahead loads are prefetches, not new episodes
        if ts.ll_owners:
            return  # flush-mode episode already anchored
        if ts.mlp_pred.predict(di.instr.pc) >= self.runahead_threshold:
            return  # large distance: leave it to runahead entry
        super().on_ll_detect(di, ts)

    def enter_runahead(self, ts: ThreadState, di: DynInstr) -> bool:
        if ts.ll_owners:
            return False  # the flush path owns this episode
        return ts.mlp_pred.predict(di.instr.pc) >= self.runahead_threshold
