"""Warmup / interleaved repeat / median-of-N timing of the scenarios.

Methodology: each scenario gets one untimed priming run (OS page cache,
allocator arenas, imported-module warmup), then ``repeats`` timed rounds
in which every scenario is timed once, after a ``gc.collect()``, so a
slow stretch of the host spreads over all scenarios instead of landing
on one.  The *median* of a scenario's samples is the reported number in
every mode and on every backend, so the perf gate means the same thing
everywhere; the per-run times are kept for dispersion checks.  Simulated
cycles and committed instructions are recorded with every measurement
so throughput (simulated cycles per second) is well-defined and drift in
the *simulated* outcome is detectable when two measurements are
compared.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import gc
import statistics
import time

from repro.perf.scenarios import CANONICAL_SCENARIOS, Scenario, run_scenario

#: Iterations of the calibration spin (see :func:`calibrate`).
_CALIBRATION_ITERS = 400_000

#: Timed samples per scenario in every mode (``repro perf --repeat``).
DEFAULT_REPEATS = 5


@dataclass
class BenchResult:
    """Timing of one scenario on this machine, this code version."""

    name: str
    wall_s: float                     # median of the timed repeats
    runs: list[float]                 # every timed repeat, in order
    cycles: int                       # simulated cycles (incl. warmup)
    instructions: int                 # committed instructions (measured)
    quick: bool
    policy: str = ""
    threads: int = 0
    commits: int = 0
    backend: str = "object"           # engine core that was timed

    @property
    def cycles_per_sec(self) -> float:
        return self.cycles / self.wall_s if self.wall_s else 0.0

    @property
    def kips(self) -> float:
        """Committed kilo-instructions per wall second."""
        return self.instructions / self.wall_s / 1e3 if self.wall_s else 0.0


def calibrate(iters: int = _CALIBRATION_ITERS) -> float:
    """Time one run of a fixed pure-Python spin; a machine-speed yardstick.

    Stored alongside every baseline so that comparisons across hosts
    (laptop vs CI runner) can normalize out raw machine speed instead of
    failing on it.  :func:`run_suite` spins once per sampling round and
    records the median, so the yardstick is measured in the same
    stretch of time as the walls, with the walls' statistic.
    """
    t0 = time.perf_counter()
    acc = 0
    d = {0: 0, 1: 1}
    for i in range(iters):
        acc += d[i & 1] + (i >> 3)
    return time.perf_counter() - t0


def _prime(sc: Scenario, quick: bool, backend: str) -> BenchResult:
    """One untimed run: the simulated work, with no samples yet."""
    stats, core = run_scenario(sc, quick=quick, backend=backend)
    return BenchResult(
        name=sc.name, wall_s=0.0, runs=[], cycles=core.cycle,
        instructions=sum(t.committed for t in stats.threads), quick=quick,
        policy=sc.policy, threads=sc.num_threads, commits=sc.budget(quick),
        backend=backend)


def _sample(result: BenchResult, sc: Scenario) -> None:
    gc.collect()
    t0 = time.perf_counter()
    run_scenario(sc, quick=result.quick, backend=result.backend)
    result.runs.append(time.perf_counter() - t0)
    result.wall_s = statistics.median(result.runs)


def time_scenario(sc: Scenario, repeats: int = DEFAULT_REPEATS,
                  quick: bool = False,
                  backend: str = "object") -> BenchResult:
    """Prime once, then time ``repeats`` full simulations of ``sc``."""
    if repeats < 1:
        raise ValueError("repeats must be at least 1")
    result = _prime(sc, quick, backend)
    for _ in range(repeats):
        _sample(result, sc)
    return result


@dataclass
class DuelResult:
    """Order-fair A/B timing of one scenario on two backends.

    The methodology perf/PROFILE.md's backend comparisons established,
    promoted from hand-run heredocs: both backends are primed untimed,
    then ``rounds`` alternations are timed with the *starting* backend
    swapped each round (so neither side systematically inherits a warmer
    cache) and a ``gc.collect()`` before every sample (so no sample pays
    for the other's garbage).  Best-of-N is the headline: the run least
    disturbed by scheduler noise, same rationale as :func:`time_scenario`.
    """

    name: str
    backends: tuple[str, str]
    samples: dict[str, list[float]]   # per backend, in sampling order
    quick: bool
    rounds: int

    def best(self, backend: str) -> float:
        return min(self.samples[backend])

    @property
    def ratio(self) -> float:
        """Best-of-N wall of the first backend over the second.

        ``> 1`` means the second backend is faster (``ratio`` times).
        """
        a, b = self.backends
        best_b = self.best(b)
        return self.best(a) / best_b if best_b else float("inf")


def duel(sc: Scenario, backends: tuple[str, str], rounds: int = 5,
         quick: bool = False) -> DuelResult:
    """Interleaved order-fair best-of-``rounds`` backend comparison."""
    if rounds < 1:
        raise ValueError("rounds must be at least 1")
    a, b = backends
    if a == b:
        raise ValueError(f"duel needs two distinct backends, got {a!r}")
    for backend in (a, b):          # priming runs (untimed)
        run_scenario(sc, quick=quick, backend=backend)
    samples: dict[str, list[float]] = {a: [], b: []}
    for rnd in range(rounds):
        for backend in ((a, b) if rnd % 2 == 0 else (b, a)):
            gc.collect()
            t0 = time.perf_counter()
            run_scenario(sc, quick=quick, backend=backend)
            samples[backend].append(time.perf_counter() - t0)
    return DuelResult(name=sc.name, backends=(a, b), samples=samples,
                      quick=quick, rounds=rounds)


@dataclass
class SuiteResult:
    """One full harness pass: every scenario plus the machine yardstick."""

    results: list[BenchResult] = field(default_factory=list)
    calibration_s: float = 0.0
    quick: bool = False
    backend: str = "object"

    def by_name(self) -> dict[str, BenchResult]:
        return {r.name: r for r in self.results}


def run_suite(scenarios: tuple[Scenario, ...] = CANONICAL_SCENARIOS,
              repeats: int = DEFAULT_REPEATS, quick: bool = False,
              backend: str = "object", progress=None) -> SuiteResult:
    """Time every scenario (median of ``repeats`` interleaved samples)
    plus the calibration spin."""
    if repeats < 1:
        raise ValueError("repeats must be at least 1")
    suite = SuiteResult(quick=quick, backend=backend)
    for sc in scenarios:
        if progress is not None:
            progress(f"[perf] {sc.name}: {sc.num_threads}t {sc.policy} "
                     f"x{sc.budget(quick)} commits ({backend}) ...")
        suite.results.append(_prime(sc, quick, backend))
    spins = []
    for _ in range(repeats):
        spins.append(calibrate())
        for sc, result in zip(scenarios, suite.results):
            _sample(result, sc)
    suite.calibration_s = statistics.median(spins)
    if progress is not None:
        for result in suite.results:
            progress(f"[perf] {result.name}: {result.wall_s:.3f}s  "
                     f"{result.cycles_per_sec / 1e3:.1f} kcyc/s")
    return suite
