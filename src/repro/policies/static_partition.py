"""Static resource partitioning (Raasch & Reinhardt 2003; Pentium-4 style).

Every buffer resource (ROB, load/store queue, issue queues, rename register
files) is split 1/n per thread; a thread can never allocate beyond its
share.  The functional units remain shared.  Fetch itself follows ICOUNT.

The split is declared as data (``partition = "rows"``): ``attach`` sets
each thread's row of :attr:`~repro.policies.base.FetchPolicy.limit_rows`
to the integer floors ``size // n``, which both engines compare against
at every dispatch attempt, with no call into the policy.
"""

from __future__ import annotations

from repro.policies.base import FetchPolicy, buffer_sizes


class StaticPartitionPolicy(FetchPolicy):
    """Equal 1/n static split of every shared buffer resource."""

    __slots__ = ()

    name = "static"
    partition = "rows"

    def attach(self, core):
        super().attach(core)
        n = core.cfg.num_threads
        row = tuple(size // n for size in buffer_sizes(core.cfg))
        self.limit_rows = [row] * n
