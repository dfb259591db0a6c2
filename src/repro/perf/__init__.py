"""Simulator-throughput benchmarking: scenarios, timing, baselines.

``repro perf run`` times the canonical scenario suite; ``repro perf
compare`` gates a fresh run against the committed ``BENCH_perf.json``;
``repro perf update`` refreshes that baseline.  See EXPERIMENTS.md
("Perf baselines") for the workflow.
"""

from repro.perf.baselines import (
    BASELINE_NAME,
    DEFAULT_MAX_REGRESSION,
    SCHEMA,
    BaselineError,
    CompareReport,
    ScenarioDelta,
    baseline_path,
    compare,
    load_baseline,
    mode_name,
    suite_to_doc,
    validate_doc,
    write_baseline,
)
from repro.perf.harness import (
    DEFAULT_REPEATS,
    BenchResult,
    DuelResult,
    SuiteResult,
    calibrate,
    duel,
    run_suite,
    time_scenario,
)
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
    "BASELINE_NAME",
    "DEFAULT_REPEATS",
    "CANONICAL_2T",
    "CANONICAL_SCENARIOS",
    "DEFAULT_MAX_REGRESSION",
    "SCHEMA",
    "BaselineError",
    "BenchResult",
    "CompareReport",
    "DuelResult",
    "PROFILE_SORTS",
    "ProfileReport",
    "Scenario",
    "ScenarioDelta",
    "SuiteResult",
    "baseline_path",
    "calibrate",
    "compare",
    "duel",
    "format_report",
    "load_baseline",
    "mode_name",
    "profile_scenario",
    "run_scenario",
    "run_suite",
    "scenario_by_name",
    "suite_to_doc",
    "time_scenario",
    "validate_doc",
    "write_baseline",
]
