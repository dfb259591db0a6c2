"""Dynamically Controlled Resource Allocation (Cazorla et al., MICRO 2004).

DCRA classifies threads as *fast* or *slow* each cycle — slow means the
thread has at least one outstanding L1 data-cache miss — and gives slow
(memory-intensive) threads a multiplicatively larger share of every shared
buffer resource, on the premise that they need the extra entries to expose
memory parallelism.  A thread at its share cannot dispatch further
instructions into that resource.

The crucial contrast with the paper's MLP-aware policies (Section 6.6): the
slow-thread share is *fixed* regardless of how much MLP actually exists, so
DCRA over-allocates for isolated misses and under-allocates for long MLP
distances.

``slow_weight`` is the sharing factor C (slow threads receive C× a fast
thread's share); 2 reproduces the published behaviour well.

The weights live in one list, :attr:`DCRAPolicy.slow_weights`: one
float per thread, the weight that thread gets while it has an
outstanding miss (a fast thread's is 1.0).  ``attach`` builds it, and a
subclass changes the shares by changing its entries in place
(:class:`~repro.policies.mlp_dcra.MLPAwareDCRAPolicy` does, at each
long-latency detection).  :meth:`DCRAPolicy._limits` reads the list at
every dispatch attempt.  The compiled engine decides
:meth:`DCRAPolicy.can_dispatch` itself, in C, with ``_limits``'
arithmetic, and reads the list from its slot at every evaluation too,
so a new list assigned mid-run is followed like a changed entry.  It
does so only while ``can_dispatch`` and ``_limits`` carry the
``_share_gate`` marker set below: a subclass that overrides either is
called, as on the object engine.
"""

from __future__ import annotations

import math

from repro.isa import Op
from repro.policies.base import FetchPolicy


class DCRAPolicy(FetchPolicy):
    """Dynamically controlled resource allocation (Cazorla et al. 2004b)."""

    __slots__ = ("slow_weight", "slow_weights")

    name = "dcra"

    def __init__(self, slow_weight: float = 2.0):
        super().__init__()
        # Not finite: NaN makes every limit NaN (no gate at all), inf
        # leaves a fast thread beside a slow one no share.
        if not (math.isfinite(slow_weight) and slow_weight >= 1.0):
            raise ValueError("slow_weight must be finite and at least 1.0 "
                             "(a slow thread's share is a fast one's "
                             "or more)")
        self.slow_weight = slow_weight
        #: Per thread, its weight while it has an outstanding miss.
        self.slow_weights: list[float] = []

    def attach(self, core):
        super().attach(core)
        self.slow_weights = [self.slow_weight] * core.cfg.num_threads

    def _limits(self, ts) -> tuple[float, ...]:
        slow_weights = self.slow_weights
        # A plain left-to-right sum, as the compiled gate adds: sum()
        # compensates float rounding from CPython 3.12 on.
        total = 0.0
        for t in self.core.threads:
            total += slow_weights[t.tid] if t.outstanding_misses > 0 else 1.0
        share = (slow_weights[ts.tid] if ts.outstanding_misses > 0
                 else 1.0) / total
        cfg = self.core.cfg
        return (cfg.rob_size * share,
                cfg.lsq_size * share,
                cfg.int_iq_size * share,
                cfg.fp_iq_size * share,
                cfg.int_rename_regs * share,
                cfg.fp_rename_regs * share)

    def can_dispatch(self, ts, di):
        rob, lsq, iq, fq, int_regs, fp_regs = self._limits(ts)
        if ts.rob_count >= rob:
            return False
        if (di.is_load or di.is_store) and ts.lsq_count >= lsq:
            return False
        op = di.instr.op
        if op is Op.FALU or op is Op.FMUL:
            if ts.fq_count >= fq:
                return False
        elif ts.iq_count >= iq:
            return False
        if di.has_dest:
            if di.dest_fp:
                if ts.fp_regs >= fp_regs:
                    return False
            elif ts.int_regs >= int_regs:
                return False
        return True


# The share gate's verdict depends on these two methods alone, so the
# compiled engine decides it natively while both carry the marker (on
# the function object: an override is a different function, unmarked,
# and is called instead).
DCRAPolicy.can_dispatch._share_gate = True
DCRAPolicy._limits._share_gate = True
