"""Synthetic SPEC CPU2000 benchmark analogs and the paper's workload mixes.

The paper runs SPEC CPU2000 Alpha binaries on SMTSIM.  Neither is available
here, so each benchmark is replaced by a synthetic trace generator whose
dynamic miss pattern and dependence structure is calibrated to the
benchmark's Table I characterization (long-latency loads per 1K
instructions, MLP, ILP-vs-MLP class).  The fetch policies under study only
observe those properties, which is what makes the substitution sound; see
:mod:`repro.workloads.registry` (the paper's Table I targets) and
``benchmarks/bench_table1_fig1.py`` for the calibration evidence.
"""

from repro.workloads.mixes import (
    TWO_THREAD_ILP,
    TWO_THREAD_MLP,
    TWO_THREAD_MIXED,
    TWO_THREAD_WORKLOADS,
    FOUR_THREAD_WORKLOADS,
    workload_category,
)
from repro.workloads.registry import (
    BENCHMARKS,
    ILP_BENCHMARKS,
    MLP_BENCHMARKS,
    TABLE_I,
    benchmark,
)
from repro.workloads.spec import BenchmarkSpec, build_body, Slot, SlotKind
from repro.workloads.trace import SyntheticTrace

__all__ = [
    "BENCHMARKS",
    "BenchmarkSpec",
    "FOUR_THREAD_WORKLOADS",
    "ILP_BENCHMARKS",
    "MLP_BENCHMARKS",
    "Slot",
    "SlotKind",
    "SyntheticTrace",
    "TABLE_I",
    "TWO_THREAD_ILP",
    "TWO_THREAD_MLP",
    "TWO_THREAD_MIXED",
    "TWO_THREAD_WORKLOADS",
    "benchmark",
    "build_body",
    "workload_category",
]
