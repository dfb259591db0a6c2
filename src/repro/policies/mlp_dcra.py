"""MLP-aware dynamic resource partitioning (paper §7.2 future work).

Section 7.2 closes with: "An interesting avenue for future work may be to
make these explicit resource partitioning mechanisms MLP-aware."  This
module implements that suggestion on top of DCRA.

Plain DCRA gives every *slow* thread (one with an outstanding L1D miss) the
same fixed multiplicative share bonus, "irrespective of the amount of MLP".
Here the bonus instead scales with the thread's recent *predicted MLP
distance*: a thread whose misses are isolated (distance ≈ 0) receives no
bonus at all — its stalled instructions would hold entries for nothing —
while a thread whose misses cluster across most of its ROB share receives
the full ``slow_weight`` bonus, because it genuinely needs the window to
expose its MLP.

The per-thread MLP-need signal is an exponential moving average of the MLP
distance predictions made at each long-latency detection, normalized by the
per-thread LLSR length (the maximum observable distance).  Each detection
writes the thread's new weight into DCRA's ``slow_weights``, so the shares
are DCRA's own partition, which both engines apply at dispatch
(:meth:`~repro.pipeline.core.SMTCore.partition_limits`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.policies.dcra import DCRAPolicy

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.pipeline.dyninstr import DynInstr
    from repro.pipeline.thread_state import ThreadState


class MLPAwareDCRAPolicy(DCRAPolicy):
    """DCRA whose slow-thread bonus tracks predicted MLP distance."""

    __slots__ = ("ema_alpha", "_mlp_need")

    name = "mlp_dcra"

    def __init__(self, slow_weight: float = 2.0, ema_alpha: float = 0.25):
        super().__init__(slow_weight=slow_weight)
        if not 0.0 < ema_alpha <= 1.0:
            raise ValueError("ema_alpha must be in (0, 1]")
        self.ema_alpha = ema_alpha
        self._mlp_need: list[float] = []

    def attach(self, core):
        super().attach(core)
        self._mlp_need = [0.0] * core.cfg.num_threads
        self.slow_weights = [self._weight(0.0)] * core.cfg.num_threads

    def _weight(self, need: float) -> float:
        """A slow thread's weight at MLP need ``need``."""
        return 1.0 + (self.slow_weight - 1.0) * min(need, 1.0)

    def on_ll_detect(self, di: DynInstr, ts: ThreadState) -> None:
        distance = ts.mlp_pred.predict(di.instr.pc)
        need = distance / max(self.core.cfg.llsr_length - 1, 1)
        alpha = self.ema_alpha
        tid = ts.tid
        need = self._mlp_need[tid] = (
            alpha * need + (1.0 - alpha) * self._mlp_need[tid])
        # DCRA's shares read this entry, on both engines
        self.slow_weights[tid] = self._weight(need)
