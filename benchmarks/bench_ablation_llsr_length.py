"""Ablation: LLSR length (the MLP observation window).

The paper sizes the LLSR at ROB/threads entries and measures Figure 4 with
a 128-entry LLSR.  The length bounds the largest observable MLP distance,
so it directly caps how much window the MLP-aware policies will grant a
missing thread.  This ablation sweeps the length on two contrasting
programs: lucas (all MLP within 40 instructions) and mcf (MLP beyond 100).

Expected shape: lucas's measured distances saturate by length 64 — longer
registers change nothing — while mcf keeps finding more distant MLP up to
the full 128/256, mirroring Figure 4's spread.
"""

from dataclasses import replace

from bench_common import bench_commits, bench_config, print_header
from repro.experiments.runner import core_for, trace_for
from repro.policies import make_policy

LENGTHS = (32, 64, 128, 256)
PROGRAMS = ("lucas", "mcf")


def _measured(name, length, budget):
    cfg = bench_config(num_threads=1)
    cfg = replace(cfg, llsr_length_override=length)
    pol = make_policy("icount")
    core = core_for(pol)(cfg, [trace_for(name, cfg)], pol)
    core.run(budget)
    return [d for _, d in core.threads[0].llsr.measured]


def run_sweep():
    budget = bench_commits()
    out = {}
    for name in PROGRAMS:
        per_len = {}
        for length in LENGTHS:
            ds = _measured(name, length, budget)
            per_len[length] = {
                "n": len(ds),
                "mean": sum(ds) / len(ds) if ds else 0.0,
                "p95": sorted(ds)[int(0.95 * (len(ds) - 1))] if ds else 0,
            }
        out[name] = per_len
    return out


def test_ablation_llsr_length(benchmark):
    results = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    print_header("Ablation — LLSR length vs observable MLP distance")
    print(f"{'program':<9} {'length':>7} {'samples':>8} {'mean':>7} "
          f"{'p95':>6}")
    for name, per_len in results.items():
        for length, row in per_len.items():
            print(f"{name:<9} {length:>7} {row['n']:>8} "
                  f"{row['mean']:>7.1f} {row['p95']:>6}")
    print("\npaper (Fig 4): lucas's MLP lives below distance 40; mcf's "
          "extends past 100 — short LLSRs clip mcf but not lucas")
    for name, per_len in results.items():
        for length, row in per_len.items():
            assert row["p95"] <= length, "distance cannot exceed the LLSR"
        # Both programs miss periodically, so a longer register always
        # admits more-distant companions: p95 grows monotonically.
        p95s = [per_len[length]["p95"] for length in LENGTHS]
        assert all(a <= b for a, b in zip(p95s, p95s[1:])), \
            f"{name}: p95 distance should grow with the LLSR length"
    mcf = results["mcf"]
    assert mcf[256]["p95"] > mcf[32]["p95"], \
        "mcf's long-range MLP should keep growing with the window"
