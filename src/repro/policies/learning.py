"""Learning-based resource partitioning (Choi & Yeung, ISCA 2006).

The paper's introduction contrasts its MLP-aware policies against this
scheme: instead of inferring resource needs from microarchitectural events,
the partitioner *learns* them through performance feedback.  Time is sliced
into epochs; the partitioner runs a hill-climbing search over the per-thread
share vector, trialling a small perturbation in favour of each thread in
turn and permanently adopting the best-performing direction.

Because every decision waits for at least ``num_threads + 1`` epochs of
feedback, the scheme reacts slowly to phase changes — the paper's argument
for why MLP-aware fetch policies are "more responsive to dynamic workload
behavior than learning-based resource partitioning."

The shares cap each thread's occupancy of every shared buffer (ROB, LSQ,
issue queues, rename registers) at dispatch, as DCRA's do: each thread's
row of limits (``partition = "rows"``) is ``size * share``, rebuilt at
``attach`` and at each epoch.  An epoch turns in :meth:`can_dispatch`,
which the engines call before they check the rows, so its new limits
apply to the attempt that turns it.  The epoch metric is configurable:

* ``"throughput"`` — total instructions committed per cycle (their IPC-sum
  policy);
* ``"hmean"``      — harmonic mean of per-thread IPCs (their fairness-
  oriented variant).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.policies.base import FetchPolicy, buffer_sizes

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.pipeline.dyninstr import DynInstr
    from repro.pipeline.thread_state import ThreadState

_METRICS = ("throughput", "hmean")


class LearningPartitionPolicy(FetchPolicy):
    """Hill-climbing epoch-based resource partitioning."""

    __slots__ = ("epoch_cycles", "step", "metric", "min_share", "shares",
                 "epochs_run", "adopted", "_trial", "_trial_scores",
                 "_base_shares", "_epoch_start_cycle",
                 "_epoch_start_commits")

    name = "learning"
    partition = "rows"

    def __init__(self, epoch_cycles: int = 2_000, step: float = 0.05,
                 metric: str = "throughput", min_share: float = 0.10):
        super().__init__()
        if not epoch_cycles >= 10:   # negated: NaN fails too
            raise ValueError("epoch must be at least 10 cycles")
        if not 0.0 < step < 0.5:
            raise ValueError("step must be in (0, 0.5)")
        if metric not in _METRICS:
            raise ValueError(f"metric must be one of {_METRICS}")
        if not 0.0 < min_share <= 0.5:
            raise ValueError("min_share must be in (0, 0.5]")
        self.epoch_cycles = epoch_cycles
        self.step = step
        self.metric = metric
        self.min_share = min_share
        self.shares: list[float] = []
        self.epochs_run = 0
        self.adopted: list[tuple[float, ...]] = []
        # Hill-climbing trial state: which thread's boost is being trialled
        # (-1 = measuring the incumbent share vector).
        self._trial = -1
        self._trial_scores: list[float] = []
        self._base_shares: list[float] = []
        self._epoch_start_cycle = 0
        self._epoch_start_commits: list[int] = []

    # ------------------------------------------------------------------ #
    # epoch machinery
    # ------------------------------------------------------------------ #

    def attach(self, core):
        super().attach(core)
        n = core.cfg.num_threads
        self.shares = [1.0 / n] * n
        self._base_shares = list(self.shares)
        self._trial = -1
        self._trial_scores = []
        self._epoch_start_cycle = core.cycle
        self._epoch_start_commits = [ts.stats.committed
                                     for ts in core.threads]
        self._set_rows()

    def _set_rows(self) -> None:
        """Each thread's limits: its share of every buffer."""
        sizes = buffer_sizes(self.core.cfg)
        self.limit_rows = [tuple(size * share for size in sizes)
                           for share in self.shares]

    def _epoch_score(self) -> float:
        core = self.core
        cycles = max(core.cycle - self._epoch_start_cycle, 1)
        ipcs = [(ts.stats.committed - base) / cycles
                for ts, base in zip(core.threads,
                                    self._epoch_start_commits)]
        if self.metric == "throughput":
            return sum(ipcs)
        if any(ipc <= 0.0 for ipc in ipcs):
            return 0.0
        return len(ipcs) / sum(1.0 / ipc for ipc in ipcs)

    def _boosted(self, favoured: int) -> list[float]:
        """The incumbent share vector perturbed in favour of one thread."""
        n = len(self._base_shares)
        shares = list(self._base_shares)
        give = self.step
        shares[favoured] += give
        for t in range(n):
            if t != favoured:
                shares[t] -= give / (n - 1)
        # Clamp and renormalize so no thread starves outright.
        shares = [max(s, self.min_share) for s in shares]
        total = sum(shares)
        return [s / total for s in shares]

    def _advance_epoch(self) -> None:
        score = self._epoch_score()
        self._trial_scores.append(score)
        n = len(self.shares)
        if self._trial + 1 < n:
            # Next trial: boost the next thread.
            self._trial += 1
            self.shares = self._boosted(self._trial)
        else:
            # All trials measured: adopt the best direction permanently.
            best = max(range(len(self._trial_scores)),
                       key=self._trial_scores.__getitem__)
            if best > 0:  # 0 is the incumbent vector
                self._base_shares = self._boosted(best - 1)
            self.shares = list(self._base_shares)
            self.adopted.append(tuple(self._base_shares))
            self._trial = -1
            self._trial_scores = []
        self._set_rows()
        self.epochs_run += 1
        core = self.core
        self._epoch_start_cycle = core.cycle
        self._epoch_start_commits = [ts.stats.committed
                                     for ts in core.threads]

    # ------------------------------------------------------------------ #
    # enforcement
    # ------------------------------------------------------------------ #

    def can_dispatch(self, ts: ThreadState, di: DynInstr) -> bool:
        """Turn the epoch when it is due; the engine then checks the
        (new) :attr:`limit_rows`."""
        core = self.core
        if core.cycle - self._epoch_start_cycle >= self.epoch_cycles:
            self._advance_epoch()
        return True
