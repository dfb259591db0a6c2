"""Canonical simulator-throughput scenarios.

A scenario pins everything that affects simulated work — workload mix,
fetch policy, instruction budget, warmup, machine config — so that wall
time is the only free variable.  The same scenario set backs three
consumers:

* the order-fair backend duel (``repro perf duel``),
* the cProfile recipe (``repro perf profile``), and
* the golden-stats equivalence matrix (``tests/test_golden_stats.py``),
  which pins the *architectural* outcome of each scenario so hot-loop
  optimizations can prove they are cycle-exact.

Scenario configs are built directly from :func:`repro.config.scaled_config`
rather than the env-sensitive experiment defaults: ``REPRO_COMMITS`` /
``REPRO_SCALE`` must not silently change what a perf number means.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import SMTConfig, scaled_config

#: Cache scale matching the experiment defaults (16x smaller than Table IV).
_CACHE_SCALE = 16


@dataclass(frozen=True)
class Scenario:
    """One deterministic simulation whose wall time we track."""

    name: str
    workload: tuple[str, ...]
    policy: str
    commits: int          # per-thread instruction budget (full mode)
    warmup: int           # instructions discarded before measurement
    quick_commits: int    # reduced budget for --quick / CI smoke runs

    @property
    def num_threads(self) -> int:
        return len(self.workload)

    def budget(self, quick: bool = False) -> int:
        return self.quick_commits if quick else self.commits

    def config(self) -> SMTConfig:
        return scaled_config(num_threads=self.num_threads,
                             scale=_CACHE_SCALE)

    def to_runspec(self, quick: bool = False, backend: str = "object"):
        """This scenario as a declarative :class:`repro.api.RunSpec`.

        The spec pins the same (workload, policy, budget, warmup,
        config) coordinate; a scenario is just a *named* run spec with a
        quick-mode budget attached.  ``backend`` selects the engine core
        — the architectural outcome is backend-independent by contract,
        so a scenario stays one scenario however it is executed.
        """
        from repro.api import RunSpec    # lazy: api sits above perf
        return RunSpec(workload=self.workload, config=self.config(),
                       policy=self.policy, max_commits=self.budget(quick),
                       warmup=self.warmup, backend=backend)


#: The tracked suite.  ``smt2_mlp_stall`` is the canonical 2-thread
#: scenario quoted in speedup claims; the single-thread and 4-thread
#: entries bracket it, and the policy spread (ICOUNT / stall / flush /
#: MLP-aware stall) exercises the distinct hot paths: plain fetch
#: rotation, policy fetch-gating, flush/refetch, and predictor-driven
#: gating.
CANONICAL_SCENARIOS: tuple[Scenario, ...] = (
    Scenario("st_icount", ("mcf",), "icount",
             commits=16_000, warmup=2_000, quick_commits=4_000),
    Scenario("smt2_icount", ("mcf", "swim"), "icount",
             commits=12_000, warmup=2_000, quick_commits=3_000),
    Scenario("smt2_stall", ("mcf", "swim"), "stall",
             commits=12_000, warmup=2_000, quick_commits=3_000),
    Scenario("smt2_flush", ("mcf", "swim"), "flush",
             commits=12_000, warmup=2_000, quick_commits=3_000),
    Scenario("smt2_mlp_stall", ("mcf", "swim"), "mlp_stall",
             commits=12_000, warmup=2_000, quick_commits=3_000),
    Scenario("smt4_mlp_stall", ("mgrid", "vortex", "swim", "twolf"),
             "mlp_stall",
             commits=8_000, warmup=2_000, quick_commits=2_000),
    # 8-thread stress cell: twice the paper's largest configuration, on
    # the headline flush policy, so thread-count-scaling costs (fetch
    # selection, rotation scans, flush/refetch) have nowhere to hide.
    Scenario("smt8_mlp_flush_stress",
             ("mcf", "swim", "mgrid", "vortex", "twolf", "equake",
              "art", "lucas"),
             "mlp_flush",
             commits=5_000, warmup=1_500, quick_commits=1_200),
)

#: The headline scenario for speedup claims.
CANONICAL_2T = "smt2_mlp_stall"


def scenario_by_name(name: str) -> Scenario:
    """Look up a scenario through :data:`repro.registry.scenarios`.

    Seeded from :data:`CANONICAL_SCENARIOS`; scenarios registered at
    runtime resolve here too.  Raises ``KeyError`` for unknown names.
    """
    from repro import registry     # late: registry seeds itself from here
    return registry.scenarios.get(name)


def run_scenario(sc: Scenario, quick: bool = False,
                 backend: str = "object"):
    """Simulate one scenario; returns ``(stats, core)``.

    Deterministic: traces are seeded per benchmark name, the config is
    env-independent, and the core is the one the policy (first) and the
    ``backend`` (second) require.  Driven through
    :meth:`repro.api.Session.simulate`, so the perf harness and golden
    matrix time/pin exactly what every other entry point executes.
    """
    from repro.api import Session    # lazy: api sits above perf

    return Session().simulate(sc.to_runspec(quick, backend=backend))
