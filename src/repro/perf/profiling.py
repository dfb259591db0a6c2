"""One-command cProfile of a canonical scenario (``repro perf profile``).

Wraps the recipe that used to live as a heredoc in ``perf/PROFILE.md``:
prime the scenario once (imports, allocator arenas, page cache), then
profile a second full run and report the top-N frames by the chosen sort
key.  Having it as a CLI verb makes every profile table in the docs
regenerable with one command::

    python -m repro perf profile smt8_mlp_flush_stress --top 15

Interpretation note (also in ``perf/PROFILE.md``): cProfile inflates
call-heavy frames ~3-4x relative to wall time, so use these tables for
*shape* — which frames dominate, how call counts move — and perfbench
(``perfbench/run.py``) for magnitudes.
"""

from __future__ import annotations

import cProfile
import io
import pstats

from repro.perf.scenarios import Scenario, run_scenario, scenario_by_name

#: Sort keys accepted by ``repro perf profile --sort`` (a curated subset
#: of ``pstats`` keys; these are the two that make sense for the
#: simulator's flat, non-recursive hot loop).
PROFILE_SORTS = ("tottime", "cumtime")


class ProfileReport:
    """Parsed outcome of one profiled scenario run."""

    __slots__ = ("scenario", "quick", "sort", "top", "text",
                 "total_calls", "total_time", "backend")

    def __init__(self, scenario: Scenario, quick: bool, sort: str,
                 top: int, text: str, total_calls: int,
                 total_time: float, backend: str = "object"):
        self.scenario = scenario
        self.quick = quick
        self.sort = sort
        self.top = top
        self.text = text
        self.total_calls = total_calls
        self.total_time = total_time
        self.backend = backend


def profile_scenario(name: str, top: int = 15, sort: str = "tottime",
                     quick: bool = False,
                     backend: str = "object") -> ProfileReport:
    """Prime, then profile one canonical scenario; returns the report.

    Raises ``KeyError`` for an unknown scenario name (same lookup the
    rest of the perf tooling uses) and ``ValueError`` for an unsupported
    sort key.
    """
    if sort not in PROFILE_SORTS:
        raise ValueError(
            f"unsupported sort {sort!r}; choose one of "
            f"{', '.join(PROFILE_SORTS)}")
    if top < 1:
        raise ValueError("top must be at least 1")
    sc = scenario_by_name(name)
    # priming run (unprofiled)
    run_scenario(sc, quick=quick, backend=backend)
    profiler = cProfile.Profile()
    profiler.enable()
    run_scenario(sc, quick=quick, backend=backend)
    profiler.disable()
    buf = io.StringIO()
    stats = pstats.Stats(profiler, stream=buf)
    stats.sort_stats(sort).print_stats(top)
    return ProfileReport(
        scenario=sc, quick=quick, sort=sort, top=top,
        text=buf.getvalue(), total_calls=stats.total_calls,
        total_time=stats.total_tt, backend=backend)


def format_report(report: ProfileReport) -> str:
    """The report as the CLI prints it."""
    sc = report.scenario
    mode = ("quick" if report.quick else "full") + " mode"
    if report.backend != "object":
        mode += f", {report.backend} backend"
    header = (
        f"cProfile: {sc.name} ({sc.num_threads}t {sc.policy}, "
        f"{sc.budget(report.quick)} commits, {mode})\n"
        f"total: {report.total_time:.3f}s profiled, "
        f"{report.total_calls} function calls "
        f"(cProfile inflates call-heavy frames ~3-4x; measure claimed "
        f"wins with perfbench)\n")
    return header + report.text
