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

The policy declares its partition as data (``partition = "weights"``):
the list :attr:`~repro.policies.base.FetchPolicy.slow_weights`, one
float per thread, the weight that thread gets while it has an
outstanding miss (a fast thread's is 1.0).  ``attach`` builds it, and a
subclass changes the shares by changing its entries in place
(:class:`~repro.policies.mlp_dcra.MLPAwareDCRAPolicy` does, at each
long-latency detection) or by assigning a new list.  Both engines read
the list at every dispatch attempt and derive the limits themselves
(:meth:`~repro.pipeline.core.SMTCore.partition_limits`; the compiled
engine in C), so the policy makes no call per attempt.
"""

from __future__ import annotations

import math

from repro.policies.base import FetchPolicy


class DCRAPolicy(FetchPolicy):
    """Dynamically controlled resource allocation (Cazorla et al. 2004b)."""

    __slots__ = ("slow_weight",)

    name = "dcra"
    partition = "weights"

    def __init__(self, slow_weight: float = 2.0):
        super().__init__()
        # Not finite: NaN makes every limit NaN (no gate at all), inf
        # leaves a fast thread beside a slow one no share.
        if not (math.isfinite(slow_weight) and slow_weight >= 1.0):
            raise ValueError("slow_weight must be finite and at least 1.0 "
                             "(a slow thread's share is a fast one's "
                             "or more)")
        self.slow_weight = slow_weight
        self.slow_weights = []

    def attach(self, core):
        super().attach(core)
        self.slow_weights = [self.slow_weight] * core.cfg.num_threads
