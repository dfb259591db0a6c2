"""Simulator-throughput tooling: scenarios, duels, profiles, golden.

``repro perf duel`` races one canonical scenario on two engine backends
(order-fair, median of N); ``repro perf profile`` runs the
prime-then-cProfile recipe on one.  The repo's end-to-end timings, and
CI's gate against the parent commit, are perfbench's: see EXPERIMENTS.md
("Timing").
"""

from repro.perf.harness import DuelResult, calibrate, duel
from repro.perf.profiling import (
    PROFILE_SORTS,
    ProfileReport,
    format_report,
    profile_scenario,
)
from repro.perf.scenarios import (
    CANONICAL_2T,
    CANONICAL_SCENARIOS,
    Scenario,
    run_scenario,
    scenario_by_name,
)

__all__ = [
    "CANONICAL_2T",
    "CANONICAL_SCENARIOS",
    "DuelResult",
    "PROFILE_SORTS",
    "ProfileReport",
    "Scenario",
    "calibrate",
    "duel",
    "format_report",
    "profile_scenario",
    "run_scenario",
    "scenario_by_name",
]
