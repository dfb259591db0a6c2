"""Ablation (beyond the paper): squash semantics for in-flight fills.

``MemoryConfig.cancel_squashed_fills`` (repro/config.py) records a key
modelling decision: when a flush squashes a load whose memory fill is
still in flight, is the fill cancelled (SMTSIM-era squash; the paper's
serialization premise) or does it complete and install (modern
hardware)?  This ablation quantifies how much of the flush-policy
behaviour rides on that choice.
"""

from dataclasses import replace

from bench_common import bench_commits, bench_config, print_header
from repro.experiments import evaluate_workload
from repro.experiments.runner import clear_baseline_cache

WORKLOADS = (("mcf", "galgel"), ("swim", "twolf"), ("lucas", "fma3d"))
POLICIES = ("flush", "mlp_flush")


def run_ablation():
    rows = []
    for cancel in (True, False):
        cfg = bench_config(2)
        cfg = replace(cfg, memory=replace(cfg.memory,
                                          cancel_squashed_fills=cancel))
        clear_baseline_cache(disk=False)
        for names in WORKLOADS:
            for policy in POLICIES:
                r = evaluate_workload(names, cfg, policy, bench_commits())
                rows.append((cancel, names, policy, r.stp, r.antt))
    clear_baseline_cache(disk=False)
    return rows


def test_ablation_squash_semantics(benchmark):
    rows = benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    print_header("Ablation — cancel squashed fills (paper-era) vs "
                 "fill-survives (modern)")
    print(f"{'fills':<10} {'workload':<16} {'policy':<10} {'STP':>7} "
          f"{'ANTT':>7}")
    for cancel, names, policy, stp, antt in rows:
        label = "cancelled" if cancel else "survive"
        print(f"{label:<10} {'-'.join(names):<16} {policy:<10} "
              f"{stp:>7.3f} {antt:>7.3f}")
    print("\nReading: with fills surviving, blind flush stops destroying "
          "MLP and closes much of the gap to the MLP-aware policy — the "
          "paper's contrast depends on era-accurate squash semantics.")
    assert rows, "ablation must produce results"
