"""Command-line figure runner: ``python -m repro.experiments.figures <id>``.

Regenerates one of the paper's tables/figures from the terminal without
going through pytest.  Run with no arguments for the list of targets.
"""

from __future__ import annotations

import sys

from repro.experiments import (
    compare_policies,
    default_config,
    memory_latency_sweep,
    summarize_policies,
    window_size_sweep,
)
from repro.experiments.characterize import characterize, format_table
from repro.experiments.policy_comparison import format_summary
from repro.experiments.single_thread import mean_speedup, prefetcher_comparison
from repro.policies import ALTERNATIVES, MAIN_COMPARISON
from repro.workloads import TWO_THREAD_MLP, TWO_THREAD_MIXED


def _table1(budget: int) -> None:
    print(format_table(characterize(max_commits=budget)))


def _fig5(budget: int) -> None:
    rows = prefetcher_comparison(max_commits=budget)
    for r in rows:
        print(f"{r.name:<10} with={r.ipc_with:.3f} without={r.ipc_without:.3f}"
              f" speedup={r.speedup:.2f}x")
    print(f"hmean speedup: {mean_speedup(rows):.3f}x (paper 1.202x)")


def _policy_figure(workloads, policies, budget, threads=2) -> None:
    cfg = default_config(num_threads=threads)
    cells = compare_policies(workloads, policies, cfg, budget,
                             progress=print)
    print()
    print(format_summary(summarize_policies(cells, workloads, policies)))


def _fig9(budget: int) -> None:
    _policy_figure(TWO_THREAD_MLP[:6] + TWO_THREAD_MIXED[:6],
                   MAIN_COMPARISON, budget)


def _fig20(budget: int) -> None:
    _policy_figure(TWO_THREAD_MLP[:6], ALTERNATIVES, budget)


def _fig22(budget: int) -> None:
    _policy_figure(TWO_THREAD_MLP[:6],
                   ("icount", "static", "dcra", "mlp_flush"), budget)


def _fig15(budget: int) -> None:
    results = memory_latency_sweep(
        (("swim", "twolf"), ("vpr", "mcf")), ("icount", "flush", "mlp_flush"),
        max_commits=budget)
    for lat, summary in results.items():
        print(lat, {p: (round(s, 3), round(a, 3))
                    for p, (s, a) in summary.items()})


def _fig17(budget: int) -> None:
    results = window_size_sweep(
        (("swim", "twolf"), ("vpr", "mcf")), ("icount", "flush", "mlp_flush"),
        max_commits=budget)
    for rob, summary in results.items():
        print(rob, {p: (round(s, 3), round(a, 3))
                    for p, (s, a) in summary.items()})


TARGETS = {
    "table1": (_table1, "Table I / Figure 1: MLP characterization"),
    "fig5": (_fig5, "Figure 5: prefetcher on/off IPC"),
    "fig9": (_fig9, "Figures 9/10: two-thread policy comparison"),
    "fig15": (_fig15, "Figures 15/16: memory latency sweep"),
    "fig17": (_fig17, "Figures 17/18: window size sweep"),
    "fig20": (_fig20, "Figures 20/21: alternative MLP-aware policies"),
    "fig22": (_fig22, "Figures 22/23: vs static partitioning and DCRA"),
}


def _engine_footer(before: dict[str, int]) -> str | None:
    """One-line summary of what the jobs engine did for this figure,
    naming the simulator engine its unpinned runs resolved to.

    None when the target never touched the engine (table1/fig5 simulate
    directly) — printing "0 simulated" there would misreport real work.
    """
    from repro.experiments.runner import default_backend
    from repro.jobs import counters, default_store, default_workers
    done = {k: v - before[k] for k, v in counters().items()}
    if not any(done.values()):
        return None
    store = default_store()
    where = str(store.root) if store is not None else "disabled"
    return (f"[jobs] {done['executed']} simulated, "
            f"{done['cache_hits']} cache hits; "
            f"engine={default_backend()}, workers={default_workers()}, "
            f"store={where}")


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not argv or argv[0] not in TARGETS:
        print("usage: python -m repro.experiments.figures <target> [budget]")
        for name, (_, desc) in TARGETS.items():
            print(f"  {name:<8} {desc}")
        return 1
    from repro.jobs import counters
    budget = int(argv[1]) if len(argv) > 1 else 10_000
    fn, desc = TARGETS[argv[0]]
    print(f"== {desc} (budget {budget} instructions/thread) ==")
    before = counters()
    fn(budget)
    footer = _engine_footer(before)
    if footer is not None:
        print(f"\n{footer}")
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    raise SystemExit(main())
