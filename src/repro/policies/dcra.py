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

:meth:`DCRAPolicy.can_dispatch` runs once per dispatch attempt, so the
share tuple is kept per (thread, set of threads with outstanding
misses): the only inputs of :meth:`DCRAPolicy._limits` that change
during a run.  A subclass whose shares read other state drops the cache
(:meth:`DCRAPolicy._drop_limits`) wherever that state changes.
"""

from __future__ import annotations

from repro.isa import Op
from repro.policies.base import FetchPolicy


#: Cached share tuples kept at most; past it the cache starts over.  An
#: 8-thread run can reach 8 * 2**8 keys (an 8-thread golden cell meets
#: about 270, most of them rarely); a small bound keeps peak memory flat.
_LIMITS_CACHE_MAX = 64


class DCRAPolicy(FetchPolicy):
    """Dynamically controlled resource allocation (Cazorla et al. 2004b)."""

    __slots__ = ("slow_weight", "_limits_cache")

    name = "dcra"

    def __init__(self, slow_weight: float = 2.0):
        super().__init__()
        if slow_weight < 1.0:
            raise ValueError("slow threads cannot get less than a fast share")
        self.slow_weight = slow_weight
        self._limits_cache: dict[int, tuple[float, ...]] = {}

    def attach(self, core):
        super().attach(core)
        self._drop_limits()

    def _drop_limits(self) -> None:
        self._limits_cache.clear()

    def _cached_limits(self, ts) -> tuple[float, ...]:
        """:meth:`_limits`, kept per (tid, mask of threads with misses)."""
        threads = self.core.threads
        mask = 0
        for t in threads:
            if t.outstanding_misses > 0:
                mask |= t.tid_bit
        key = mask * len(threads) + ts.tid
        cache = self._limits_cache
        limits = cache.get(key)
        if limits is None:
            if len(cache) >= _LIMITS_CACHE_MAX:
                cache.clear()
            limits = cache[key] = self._limits(ts)
        return limits

    def _limits(self, ts) -> tuple[float, ...]:
        threads = self.core.threads
        weights = [self.slow_weight if t.outstanding_misses > 0 else 1.0
                   for t in threads]
        total = sum(weights)
        share = weights[ts.tid] / total
        cfg = self.core.cfg
        return (cfg.rob_size * share,
                cfg.lsq_size * share,
                cfg.int_iq_size * share,
                cfg.fp_iq_size * share,
                cfg.int_rename_regs * share,
                cfg.fp_rename_regs * share)

    def can_dispatch(self, ts, di):
        rob, lsq, iq, fq, int_regs, fp_regs = self._cached_limits(ts)
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
