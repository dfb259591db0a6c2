"""What the benchmark runs and how it checks the outputs.

Imported only in processes whose environment is already pinned (see
``run.hermetic_env``): importing :mod:`repro` reads the ``REPRO_*``
knobs.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
import hashlib
import json
from pathlib import Path

from repro.api import RunSpec, Session
from repro.experiments import default_config
from repro.experiments.paper_data import TWO_THREAD_HEADLINES
from repro.metrics import summarize_antt, summarize_stp
from repro.perf.golden import golden_matrix, snapshot_cell
from repro.perf.scenarios import Scenario
from repro.policies import MAIN_COMPARISON
from repro.workloads import TWO_THREAD_MIXED, TWO_THREAD_MLP

REFS_DIR = Path(__file__).resolve().parent / "refs"
REFS_SCHEMA = "perfbench.refs/1"

#: References are recorded for RunSpec seeds 0..N_REF_SEEDS-1; the
#: command-line seed is taken modulo this count.
N_REF_SEEDS = 16

#: Per-thread instruction budget of every fig9 cell (the default 4,000
#: instruction warmup comes first).
FIG9_BUDGET = 2_000

#: The Figure 9/10 workload classes, as ``repro figure fig9`` runs them.
FIG9_CLASSES = {"MLP": TWO_THREAD_MLP[:6], "MIX": TWO_THREAD_MIXED[:6]}

#: The backend the golden workload runs on.
GOLDEN_BACKEND = "cext"


def spec_seed(seed: int) -> int:
    """The RunSpec seed a command-line seed selects."""
    return seed % N_REF_SEEDS


# --------------------------------------------------------------------- #
# fig9
# --------------------------------------------------------------------- #

def fig9_specs(seed: int) -> list[RunSpec]:
    """The ``repro figure fig9`` grid: 12 mixes x the 6 main policies.

    Built exactly as :func:`repro.experiments.compare_policies` builds
    it, plus the seed, which ``compare_policies`` does not take.
    """
    cfg = default_config(num_threads=2)
    return [RunSpec(workload=names, config=cfg, policy=policy,
                    max_commits=FIG9_BUDGET, seed=seed)
            for cls in FIG9_CLASSES.values() for names in cls
            for policy in MAIN_COMPARISON]


def cell_key(spec: RunSpec) -> str:
    return f"{'-'.join(spec.workload)}:{spec.policy}"


def signature(result) -> list:
    """What a fig9 cell is checked on: STP, ANTT, committed, cycles."""
    return [result.stp, result.antt, list(result.committed),
            result.stats.cycles]


def fig9_signatures(specs, results) -> dict[str, list]:
    return {cell_key(s): signature(r) for s, r in zip(specs, results)}


def baseline_instructions(specs, session: Session) -> int:
    """Committed instructions of the grid's single-thread baselines.

    Read back from the store the batch filled, through the jobs API.
    """
    seen: dict[str, object] = {}
    for spec in specs:
        for base in spec.to_job().baseline_specs():
            seen.setdefault(base.cache_key(), base)
    store = session.store
    total = 0
    for base in seen.values():
        result = store.get(base) if store is not None else None
        if result is None:
            raise RuntimeError(f"baseline {base} missing from the store")
        total += sum(t.committed for t in result.stats.threads)
    return total


def paper_gap_pp(specs, results) -> float:
    """Mean |simulated - published| headline delta, in percentage points.

    The eight numbers of ``TWO_THREAD_HEADLINES`` for the MLP and MIX
    classes: dSTP and the ANTT improvement of ``mlp_flush`` over
    ``icount`` and over ``flush``.
    """
    cells = {(s.workload, s.policy): r for s, r in zip(specs, results)}
    gaps = []
    for cls, mixes in FIG9_CLASSES.items():
        def mean_stp(policy):
            return summarize_stp([cells[(w, policy)].stp for w in mixes])

        def mean_antt(policy):
            return summarize_antt([cells[(w, policy)].antt for w in mixes])

        for base in ("icount", "flush"):
            paper_stp, paper_antt = TWO_THREAD_HEADLINES[(cls, base)]
            sim_stp = mean_stp("mlp_flush") / mean_stp(base) - 1.0
            sim_antt = 1.0 - mean_antt("mlp_flush") / mean_antt(base)
            gaps.append(abs(sim_stp - paper_stp) * 100.0)
            gaps.append(abs(sim_antt - paper_antt) * 100.0)
    return sum(gaps) / len(gaps)


# --------------------------------------------------------------------- #
# golden
# --------------------------------------------------------------------- #

@dataclass(frozen=True)
class SeededScenario(Scenario):
    """A golden-matrix scenario whose run spec carries a trace seed."""

    seed: int = 0

    def to_runspec(self, quick: bool = False, backend: str = "object"):
        spec = super().to_runspec(quick, backend=backend)
        return spec.with_(seed=self.seed)


def golden_cells(seed: int) -> list[SeededScenario]:
    """The 34-cell golden matrix at ``seed`` (seed 0 = the fixture's)."""
    return [SeededScenario(**{f.name: getattr(sc, f.name)
                              for f in fields(sc)}, seed=seed)
            for sc in golden_matrix()]


def run_golden(cells, backend: str) -> dict[str, dict]:
    """Simulate every cell; returns each cell's golden snapshot."""
    return {sc.name: snapshot_cell(sc, backend=backend) for sc in cells}


def digest(snapshot: dict) -> str:
    blob = json.dumps(snapshot, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def golden_instructions(snapshots: dict[str, dict]) -> int:
    return sum(t["committed"] for snap in snapshots.values()
               for t in snap["threads"])


# --------------------------------------------------------------------- #
# references
# --------------------------------------------------------------------- #

def refs_path(seed: int) -> Path:
    return REFS_DIR / f"seed{seed:02d}.json"


def load_refs(seed: int) -> dict:
    doc = json.loads(refs_path(seed).read_text())
    if doc.get("schema") != REFS_SCHEMA or doc.get("seed") != seed \
            or doc.get("fig9_budget") != FIG9_BUDGET:
        raise ValueError(f"{refs_path(seed)} does not match this benchmark")
    return doc


def count_mismatches(found: dict, expected: dict) -> int:
    """Cells of ``expected`` that ``found`` lacks or gets wrong."""
    return sum(1 for key, want in expected.items() if found.get(key) != want)
