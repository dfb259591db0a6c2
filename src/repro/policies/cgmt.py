"""Coarse-grained multithreading switch policies (paper §7.3).

Coarse-grained multithreading (CGMT) runs one thread at a time and context
switches — in tens of cycles — when the running thread hits a long-latency
load.  Tune et al.'s *balanced multithreading* grafts this onto an SMT
pipeline; the paper observes that the MLP insight carries over: "a context
switch should not be done for all long-latency loads, but should rather be
performed at isolated long-latency loads and at the last long-latency load
in a burst," and proposes driving that decision with its MLP predictor.

Both policies below run on the SMT core with a single *active* thread that
owns the fetch stage; the others' in-flight instructions drain naturally:

* :class:`CGMTPolicy` — classic switch-on-miss: as soon as the active
  thread *detects* a long-latency load, its post-miss instructions are
  flushed and fetch moves to another thread after ``switch_penalty``
  cycles.  Independent misses behind the trigger load are serialized,
  exactly the failure mode the paper describes.
* :class:`MLPAwareCGMTPolicy` — predicts the MLP distance ``m`` at the
  first miss of a burst; an isolated miss (m = 0) switches immediately,
  otherwise the thread keeps fetching ``m`` more instructions so all the
  overlapping misses enter the window, and the switch happens *at the last
  long-latency load in the burst* — the paper's proposed mechanism.

The switch penalty is charged to the incoming thread's fetch (pipeline
refill + thread-select latency).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.policies.base import LongLatencyAwarePolicy

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.pipeline.dyninstr import DynInstr
    from repro.pipeline.thread_state import ThreadState


class CGMTPolicy(LongLatencyAwarePolicy):
    """Switch-on-miss coarse-grained multithreading."""

    __slots__ = ("switch_penalty", "flush_on_switch", "quantum", "active_tid",
                 "switches", "_last_active", "_active_since")

    name = "cgmt"

    def __init__(self, switch_penalty: int = 30, flush_on_switch: bool = True,
                 quantum: int = 2_000):
        super().__init__()
        if not switch_penalty >= 0:   # negated: NaN fails too
            raise ValueError("switch penalty cannot be negative")
        if not quantum >= 1:
            raise ValueError("quantum must be positive")
        self.switch_penalty = switch_penalty
        self.flush_on_switch = flush_on_switch
        #: Fairness timeslice: a thread that runs ``quantum`` cycles without
        #: missing is switched out anyway, so a never-missing co-runner
        #: cannot monopolize the machine (cf. switch-on-timeout in real
        #: coarse-grained designs such as the IBM RS64 series).
        self.quantum = quantum
        self.active_tid = 0
        self.switches = 0
        self._last_active: list[int] = []
        self._active_since = 0

    def attach(self, core):
        super().attach(core)
        self.active_tid = 0
        self.switches = 0
        self._last_active = [0] * core.cfg.num_threads
        self._active_since = core.cycle

    # ------------------------------------------------------------------ #
    # fetch selection: only the active thread fetches
    # ------------------------------------------------------------------ #

    def fetch_order(self, cycle: int):
        core = self.core
        ts = core.threads[self.active_tid]
        if not core.fetchable(ts, cycle):
            return []
        if not ts.policy_stalled:
            return [(ts, False)]
        if all(t.policy_stalled for t in core.threads):
            return [(ts, True)]  # COT: the active thread resumes first
        return []

    def fetch_pending(self, cycle: int) -> bool:
        return bool(self.fetch_order(cycle))

    # ------------------------------------------------------------------ #
    # switching
    # ------------------------------------------------------------------ #

    def _switch_from(self, ts: ThreadState) -> None:
        core = self.core
        threads = core.threads
        if len(threads) == 1:
            return
        cycle = core.cycle
        self._last_active[ts.tid] = cycle
        others = [t for t in threads if t.tid != ts.tid]
        ready = [t for t in others if not t.policy_stalled]
        if ready:
            # Least-recently-active ready thread (round-robin fairness).
            target = min(ready, key=lambda t: self._last_active[t.tid])
        else:
            # Everyone is miss-stalled: run whoever stalled first (COT).
            target = min(others, key=lambda t: t.stall_start)
        self.active_tid = target.tid
        self._active_since = cycle
        self.switches += 1
        penalty_end = cycle + self.switch_penalty
        if target.fetch_blocked_until < penalty_end:
            target.fetch_blocked_until = penalty_end

    def _quantum_expired(self) -> bool:
        return self.core.cycle - self._active_since >= self.quantum

    def on_ll_detect(self, di: DynInstr, ts: ThreadState) -> None:
        if ts.tid != self.active_tid or ts.ll_owners:
            return
        ts.set_owner(di, di.seq, self.core.cycle)
        if self.flush_on_switch:
            self._flush_to(ts, di.seq)
        self._switch_from(ts)

    def on_fetch(self, di: DynInstr, ts: ThreadState) -> None:
        if ts.tid == self.active_tid and self._quantum_expired():
            self._switch_from(ts)


class MLPAwareCGMTPolicy(CGMTPolicy):
    """CGMT that switches at the *last* long-latency load of a burst."""

    __slots__ = ()

    name = "mlp_cgmt"

    def on_ll_detect(self, di: DynInstr, ts: ThreadState) -> None:
        if ts.tid != self.active_tid or ts.ll_owners:
            return
        distance = ts.mlp_pred.predict(di.instr.pc)
        end = di.seq + distance
        ts.set_owner(di, end, self.core.cycle)
        if distance == 0:
            # Isolated miss: nothing to expose, switch right away.
            if self.flush_on_switch:
                self._flush_to(ts, end)
            self._switch_from(ts)

    def on_fetch(self, di: DynInstr, ts: ThreadState) -> None:
        if ts.tid != self.active_tid:
            return
        # The MLP window just filled: all overlapping misses are in flight,
        # so this is "the last long-latency load in the burst" — switch.
        if ts.policy_stalled and ts.ll_owners:
            self._switch_from(ts)
        elif self._quantum_expired():
            self._switch_from(ts)
