"""Order-fair backend duels and the host-speed spin.

:func:`duel` races one scenario on two engine backends in one process:
both are primed untimed, then timed rounds alternate which backend
starts, with a ``gc.collect()`` before every sample, and the median of
each backend's samples is its wall.  End-to-end timings of the code
itself, and their gate against the parent commit, are perfbench's
(``perfbench/run.py``); :func:`calibrate` is the spin its host context
reports.
"""

from __future__ import annotations

from dataclasses import dataclass
import gc
import statistics
import time

from repro.perf.scenarios import Scenario, run_scenario

#: Iterations of the calibration spin (see :func:`calibrate`).
_CALIBRATION_ITERS = 400_000


def calibrate(iters: int = _CALIBRATION_ITERS) -> float:
    """Time one run of a fixed pure-Python spin; a machine-speed yardstick.

    perfbench's host context reports it (``spin_s``, printed with every
    run and kept in its run log), so runs on different hosts can be
    told apart by raw interpreter speed.
    """
    t0 = time.perf_counter()
    acc = 0
    d = {0: 0, 1: 1}
    for i in range(iters):
        acc += d[i & 1] + (i >> 3)
    return time.perf_counter() - t0


@dataclass
class DuelResult:
    """Order-fair A/B timing of one scenario on two backends.

    The methodology perf/PROFILE.md's backend comparisons established,
    promoted from hand-run heredocs: both backends are primed untimed,
    then ``rounds`` alternations are timed with the *starting* backend
    swapped each round (so neither side systematically inherits a warmer
    cache) and a ``gc.collect()`` before every sample (so no sample pays
    for the other's garbage).  The median of each backend's samples is
    the headline.
    """

    name: str
    backends: tuple[str, str]
    samples: dict[str, list[float]]   # per backend, in sampling order
    quick: bool
    rounds: int

    def median(self, backend: str) -> float:
        return statistics.median(self.samples[backend])

    @property
    def ratio(self) -> float:
        """Median wall of the first backend over the second.

        ``> 1`` means the second backend is faster (``ratio`` times).
        """
        a, b = self.backends
        median_b = self.median(b)
        return self.median(a) / median_b if median_b else float("inf")


def duel(sc: Scenario, backends: tuple[str, str], rounds: int = 5,
         quick: bool = False) -> DuelResult:
    """Interleaved order-fair median-of-``rounds`` backend comparison."""
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
