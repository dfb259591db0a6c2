"""The 26 SPEC CPU2000 benchmark analogs, calibrated against Table I.

``TABLE_I`` records the paper's published characterization (long-latency
loads per 1K instructions, MLP, MLP impact, ILP/MLP class) for each
benchmark; the specs below are tuned so the simulated analogs land close to
those targets on the baseline processor.  The calibration evidence lives in
``benchmarks/bench_table1_fig1.py`` and EXPERIMENTS.md.

Design notes per class of benchmark:

* High-rate streaming FP codes (swim, applu, fma3d, lucas, mgrid) use more
  concurrent streams than the 8 stream buffers can track, so the prefetcher
  covers only part of the traffic — as for the real codes.
* mcf/equake/ammp derive (part of) their misses from pointer chases, which
  the stream prefetcher cannot cover and whose dependences bound MLP.
* Low-rate/high-MLP codes (art, apsi, galgel, mesa, sixtrack) use clustered
  bursts: a handful of independent random loads every N iterations.
* ILP codes touch small working sets with rare isolated misses.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.workloads.spec import BenchmarkSpec


@dataclass(frozen=True, slots=True)
class TableIRow:
    """Published Table I values for one benchmark."""

    lll_per_kilo: float
    mlp: float
    mlp_impact: float   # fraction, e.g. 0.6039 for mcf
    category: str       # "ILP" or "MLP"


TABLE_I: dict[str, TableIRow] = {
    "bzip2": TableIRow(0.14, 1.00, 0.0003, "ILP"),
    "crafty": TableIRow(0.08, 1.34, 0.0129, "ILP"),
    "eon": TableIRow(0.00, 1.83, 0.0008, "ILP"),
    "gap": TableIRow(0.36, 1.02, 0.0028, "ILP"),
    "gcc": TableIRow(0.01, 1.70, 0.0022, "ILP"),
    "gzip": TableIRow(0.08, 1.81, 0.0322, "ILP"),
    "mcf": TableIRow(17.36, 5.17, 0.6039, "MLP"),
    "parser": TableIRow(0.14, 1.24, 0.0120, "ILP"),
    "perlbmk": TableIRow(0.30, 1.00, 0.0001, "ILP"),
    "twolf": TableIRow(0.10, 1.37, 0.0105, "ILP"),
    "vortex": TableIRow(0.39, 1.06, 0.0149, "ILP"),
    "vpr": TableIRow(0.09, 1.43, 0.0135, "ILP"),
    "ammp": TableIRow(1.71, 3.94, 0.4025, "MLP"),
    "applu": TableIRow(14.24, 4.26, 0.6963, "MLP"),
    "apsi": TableIRow(0.78, 6.15, 0.3541, "MLP"),
    "art": TableIRow(0.19, 8.58, 0.0734, "ILP"),
    "equake": TableIRow(24.60, 2.69, 0.5819, "MLP"),
    "facerec": TableIRow(0.41, 1.51, 0.0756, "ILP"),
    "fma3d": TableIRow(17.67, 6.27, 0.7787, "MLP"),
    "galgel": TableIRow(0.24, 3.84, 0.1424, "MLP"),
    "lucas": TableIRow(10.63, 2.15, 0.4640, "MLP"),
    "mesa": TableIRow(0.45, 2.88, 0.1964, "MLP"),
    "mgrid": TableIRow(6.04, 1.76, 0.3584, "MLP"),
    "sixtrack": TableIRow(0.10, 2.61, 0.0492, "ILP"),
    "swim": TableIRow(15.08, 3.66, 0.6747, "MLP"),
    "wupwise": TableIRow(2.00, 2.20, 0.3681, "MLP"),
}

#: Paper classification (rightmost column of Table I).
MLP_BENCHMARKS = tuple(sorted(n for n, r in TABLE_I.items()
                              if r.category == "MLP"))
ILP_BENCHMARKS = tuple(sorted(n for n, r in TABLE_I.items()
                              if r.category == "ILP"))


BENCHMARKS: dict[str, BenchmarkSpec] = {
    # ------------------------------------------------------------------ #
    # SPEC CINT2000 analogs (ILP class).  Rare isolated (or small-burst)
    # misses over a large footprint; mostly cache-resident integer work
    # with realistic branch densities.  LLL/1K = 1000*burst/(every*body).
    # ------------------------------------------------------------------ #
    "bzip2": BenchmarkSpec(
        "bzip2", burst_loads=1, burst_every=55, hot_loads=10, stores=3,
        int_ops=108, cond_branches=6, branch_taken_prob=0.25,
        dep_chain_frac=0.5),                                  # body 130
    "crafty": BenchmarkSpec(
        "crafty", burst_loads=1, burst_every=100, hot_loads=14, stores=3,
        int_ops=95, cond_branches=10, branch_taken_prob=0.35),  # body 125
    "eon": BenchmarkSpec(
        "eon", fp_data=True, burst_loads=2, burst_every=2200, hot_loads=12,
        stores=4, int_ops=20, fp_ops=18, cond_branches=5,
        branch_taken_prob=0.15),                              # body 63
    "gap": BenchmarkSpec(
        "gap", burst_loads=1, burst_every=22, hot_loads=12, stores=3,
        int_ops=100, cond_branches=5, branch_taken_prob=0.12),  # body 123
    "gcc": BenchmarkSpec(
        "gcc", burst_loads=2, burst_every=1300, hot_loads=16, stores=5,
        int_ops=100, cond_branches=12, branch_taken_prob=0.3,
        dep_chain_frac=0.4),                                  # body 137
    "gzip": BenchmarkSpec(
        "gzip", burst_loads=2, burst_every=190, hot_loads=10, stores=3,
        int_ops=100, cond_branches=6, branch_taken_prob=0.3,
        dep_chain_frac=0.5),                                  # body 123
    "parser": BenchmarkSpec(
        "parser", burst_loads=1, burst_every=55, hot_loads=13, stores=3,
        int_ops=100, cond_branches=9, branch_taken_prob=0.3),   # body 128
    "perlbmk": BenchmarkSpec(
        "perlbmk", burst_loads=1, burst_every=26, hot_loads=12, stores=4,
        int_ops=100, cond_branches=7, branch_taken_prob=0.2),   # body 126
    "twolf": BenchmarkSpec(
        "twolf", burst_loads=1, burst_every=70, hot_loads=13, stores=3,
        int_ops=100, cond_branches=9, branch_taken_prob=0.35),  # body 128
    "vortex": BenchmarkSpec(
        "vortex", burst_loads=1, burst_every=20, hot_loads=14, stores=5,
        int_ops=100, cond_branches=6, branch_taken_prob=0.15),  # body 128
    "vpr": BenchmarkSpec(
        "vpr", burst_loads=1, burst_every=80, hot_loads=12, stores=3,
        int_ops=100, cond_branches=8, branch_taken_prob=0.3),   # body 126
    # ------------------------------------------------------------------ #
    # SPEC CFP2000 analogs.  Streaming codes miss once per line per array
    # (stride 8B over 64B lines => streams/8 misses per iteration);
    # pointer codes miss once per chain step; burst codes issue clustered
    # independent random loads every N iterations.
    # ------------------------------------------------------------------ #
    "ammp": BenchmarkSpec(
        "ammp", fp_data=True, chase_chains=4, chase_every=16,
        chase_footprint=8.0, chase_dependents=2, hot_loads=12, stores=3,
        int_ops=63, fp_ops=52, cond_branches=2, spread=0.5),  # body 146
    "applu": BenchmarkSpec(
        "applu", fp_data=True, streams=8, stream_stride=16,
        stream_stagger=0.8, hot_loads=8, stores=2, stream_stores=1,
        int_ops=68, fp_ops=42, cond_branches=1),              # body 140
    "apsi": BenchmarkSpec(
        "apsi", fp_data=True, burst_loads=7, burst_every=60, hot_loads=10,
        stores=3, int_ops=12, fp_ops=114, cond_branches=2,
        spread=0.35),                                         # body 150
    "art": BenchmarkSpec(
        "art", fp_data=True, burst_loads=10, burst_every=340, hot_loads=10,
        stores=2, int_ops=12, fp_ops=117, cond_branches=2,
        spread=0.3),                                          # body 155
    "equake": BenchmarkSpec(
        "equake", fp_data=True, chase_chains=2, chase_every=1,
        chase_footprint=8.0, chase_dependents=2, streams=6, stream_stride=8,
        stream_stagger=1.0, hot_loads=8, stores=2, int_ops=44, fp_ops=36,
        cond_branches=2),                                     # body 112
    "facerec": BenchmarkSpec(
        "facerec", fp_data=True, burst_loads=2, burst_every=40, hot_loads=10,
        stores=2, int_ops=10, fp_ops=94, cond_branches=2),    # body 122
    "fma3d": BenchmarkSpec(
        "fma3d", fp_data=True, streams=10, stream_stride=16,
        stream_stagger=0.55, hot_loads=8, stores=2, stream_stores=1,
        int_ops=68, fp_ops=38, cond_branches=2),              # body 141
    "galgel": BenchmarkSpec(
        "galgel", fp_data=True, burst_loads=4, burst_every=110, hot_loads=10,
        stores=2, int_ops=10, fp_ops=122, cond_branches=2,
        spread=0.4),                                          # body 152
    "lucas": BenchmarkSpec(
        "lucas", fp_data=True, streams=2, stream_stride=8, stream_stagger=0.0,
        hot_loads=3, stores=1, int_ops=4, fp_ops=9, cond_branches=1,
        spread=0.3),                                          # body 24
    "mesa": BenchmarkSpec(
        "mesa", fp_data=True, burst_loads=3, burst_every=55, hot_loads=10,
        stores=3, int_ops=16, fp_ops=83, cond_branches=4,
        branch_taken_prob=0.15, spread=0.4),                  # body 121
    "mgrid": BenchmarkSpec(
        "mgrid", fp_data=True, streams=6, stream_stride=8, stream_stagger=0.6,
        hot_loads=8, stores=2, stream_stores=1, int_ops=54, fp_ops=44,
        cond_branches=1),                                     # body 124
    "sixtrack": BenchmarkSpec(
        "sixtrack", fp_data=True, burst_loads=3, burst_every=200,
        hot_loads=10, stores=3, int_ops=12, fp_ops=118, cond_branches=2,
        spread=0.4),                                          # body 150
    "swim": BenchmarkSpec(
        "swim", fp_data=True, streams=8, stream_stride=16, stream_stagger=1.0,
        hot_loads=8, stores=2, stream_stores=1, int_ops=65, fp_ops=38,
        cond_branches=1),                                     # body 133
    "wupwise": BenchmarkSpec(
        "wupwise", fp_data=True, streams=2, stream_stride=8,
        stream_stagger=0.0, hot_loads=10, stores=2, int_ops=59, fp_ops=46,
        cond_branches=2, spread=0.4),                         # body 125
    "mcf": BenchmarkSpec(
        # Ten parallel pointer chases spread across a 288-instruction body:
        # misses are both numerous (Table I: 17.36/1K, MLP 5.17) and far
        # apart in the instruction stream (Figure 4: mcf's MLP distance
        # extends past 100), unlike the clustered chase bursts a narrow
        # placement would produce.
        "mcf", chase_chains=10, chase_every=2, chase_footprint=8.0,
        chase_dependents=2, hot_loads=1, stores=1, int_ops=246,
        cond_branches=8, branch_taken_prob=0.3),              # body 288
}


def benchmark(name: str) -> BenchmarkSpec:
    """Look up a benchmark analog by SPEC CPU2000 name.

    Routed through :data:`repro.registry.benchmarks` (seeded from
    :data:`BENCHMARKS`), so analogs registered at runtime resolve
    everywhere traces are built.  Raises ``KeyError`` for unknown names.
    """
    from repro import registry     # late: registry seeds itself from here
    return registry.benchmarks.get(name)
