"""Microarchitecture sweeps: Figures 15/16 (memory latency) and 17/18
(processor window size).

Both figures plot STP and ANTT *relative to ICOUNT at the same design
point*; the sweep helpers return those ratios directly.
"""

from __future__ import annotations

from repro.config import SMTConfig, with_memory_latency, with_window_size
from repro.experiments.defaults import default_commits, default_config
from repro.experiments.policy_comparison import (
    cells_from_results,
    summarize_policies,
)


def _relative_to_icount(summary: dict[str, tuple[float, float]]) \
        -> dict[str, tuple[float, float]]:
    base_stp, base_antt = summary["icount"]
    return {policy: (stp / base_stp, antt / base_antt)
            for policy, (stp, antt) in summary.items()}


def _sweep(points, make_cfg, workloads, policies, max_commits, progress,
           workers=None):
    """Submit the whole (point × workload × policy) grid as one batch.

    The grid is expressed as :class:`repro.api.RunSpec` s and executed
    as one :class:`repro.api.Session` batch.  Batching across design
    points keeps every worker busy for the whole sweep (no per-point
    barrier) and lets the engine simulate each point's single-thread
    baselines exactly once across all policies.
    """
    from repro.api import RunSpec, Session   # lazy: layering rule
    if "icount" not in policies:
        policies = ("icount", *policies)
    workloads = [tuple(w) for w in workloads]
    grid = {point: [RunSpec(workload=names, config=make_cfg(point),
                            policy=policy, max_commits=max_commits)
                    for names in workloads for policy in policies]
            for point in points}
    session = Session(workers=workers, progress=progress)
    flat = [spec for specs in grid.values() for spec in specs]
    by_spec = dict(zip(flat, session.run_many(flat)))
    results = {}
    for point, specs in grid.items():
        cells = cells_from_results(specs, [by_spec[s] for s in specs])
        summary = summarize_policies(cells, workloads, policies)
        results[point] = _relative_to_icount(summary)
    return results


def memory_latency_sweep(workloads, policies,
                         latencies=(200, 400, 600, 800),
                         cfg: SMTConfig | None = None,
                         max_commits: int | None = None,
                         progress=None, workers: int | None = None):
    """Figures 15/16: STP and ANTT vs. main-memory latency.

    Returns ``{latency: {policy: (stp_rel_icount, antt_rel_icount)}}``.
    """
    base = cfg or default_config(num_threads=len(tuple(workloads[0])))
    commits = default_commits() if max_commits is None else max_commits
    return _sweep(latencies, lambda lat: with_memory_latency(base, lat),
                  workloads, tuple(policies), commits, progress, workers)


def window_size_sweep(workloads, policies,
                      rob_sizes=(128, 256, 512, 1024),
                      cfg: SMTConfig | None = None,
                      max_commits: int | None = None,
                      progress=None, workers: int | None = None):
    """Figures 17/18: STP and ANTT vs. window size.

    The LSQ, issue queues and rename register files scale proportionally
    (Section 6.4.2).  Returns the same shape as
    :func:`memory_latency_sweep`.
    """
    base = cfg or default_config(num_threads=len(tuple(workloads[0])))
    commits = default_commits() if max_commits is None else max_commits
    return _sweep(rob_sizes, lambda rob: with_window_size(base, rob),
                  workloads, tuple(policies), commits, progress, workers)
