#!/usr/bin/env python3
"""Gate a change's perfbench timings against its parent commit.

Usage (from the root of the change's checkout)::

    python scripts/perfbench_gate.py PARENT_CHECKOUT [>> "$GITHUB_STEP_SUMMARY"]

Both checkouts are byte-compiled first (``python -m compileall -q
src``): where ``PYTHONDONTWRITEBYTECODE=1`` is set, every benchmark
process would recompile a module whose ``.pyc`` is stale, which reads
as a set-up regression that is not in the code.  Then every workload
this checkout's ``BENCHMARK.json`` declares runs ``PAIRS`` times on
each side (``perfbench/run.py``, seed ``SEED``, ``SECONDS`` per run,
one run at a time), and the side that runs first alternates from pair
to pair.  Every result must be present and correct.  A workload fails
when the median over its pairs of the ``wall_s`` ratio (change over
parent) is above ``BOUND``.  A workload the parent's ``BENCHMARK.json``
does not declare runs on the change alone and must be correct.  Last,
one traced ``TRACED`` run on the change must be correct, which checks
the layer tracer.

Standard output is a markdown report for a CI step summary: per
workload, each side's median of the four end-to-end metrics and the
median and quartiles of the ``wall_s`` ratio.  Progress and perfbench's
own output go to standard error.  Exits 1 on any failure.
"""

from __future__ import annotations

from collections.abc import Callable
import json
from pathlib import Path
import statistics
import subprocess
import sys

PAIRS = 10
SEED = 1
SECONDS = 1
BOUND = 1.15
TRACED = "fig9_warm"
METRICS = ("wall_s", "setup_s", "sim_kips", "peak_rss_mb")
SIDES = ("change", "parent")

CHANGE = Path(__file__).resolve().parents[1]

#: ``run(root, workload, trace)``: one perfbench run in the checkout at
#: ``root``; its JSON result, or None when it printed none.
Runner = Callable[[Path, str, bool], dict | None]


def result_of(text: str) -> dict | None:
    """The JSON result on the last line of one run's output, or None."""
    lines = text.strip().splitlines()
    if not lines:
        return None
    try:
        doc = json.loads(lines[-1])
    except ValueError:
        return None
    return doc if isinstance(doc, dict) and "correct" in doc else None


def perfbench(root: Path, workload: str, trace: bool) -> dict | None:
    """Run ``perfbench/run.py`` once in ``root``; its result, or None."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", str(SECONDS),
         "--trace", str(int(trace))],
        cwd=root, stdout=subprocess.PIPE, text=True)
    sys.stderr.write(proc.stdout)
    return result_of(proc.stdout)


def workloads(root: Path) -> list[str]:
    """The workloads the ``BENCHMARK.json`` at ``root`` declares."""
    doc = json.loads((root / "BENCHMARK.json").read_text())
    return [w["name"] for w in doc["workloads"]]


def problem(result: dict | None) -> str | None:
    """Why a result does not count, or None when it is correct."""
    if result is None:
        return "gave no result"
    if result["correct"] is not True:
        return (f"is not correct ({result['failed']} of "
                f"{result['attempted']} operations failed)")
    return None


def metric(result: dict, name: str) -> float:
    return result["metrics"][name]["value"]


def median_cell(results: list[dict], name: str) -> str:
    """The median of one metric over ``results``, for a table cell."""
    if not results:
        return "—"
    return f"{statistics.median(metric(r, name) for r in results):.4g}"


def compare(name: str, results: dict[str, list], failures: list[str]) -> str:
    """One workload's table row; appends its failures to ``failures``."""
    for side, side_results in results.items():
        failures += [f"`{name}`: {side} run {i + 1} {why}"
                     for i, why in enumerate(map(problem, side_results))
                     if why is not None]
    good = {side: [r for r in side_results if problem(r) is None]
            for side, side_results in results.items()}
    cells = [" / ".join(median_cell(good.get(side, []), m) for side in SIDES)
             for m in METRICS]
    if "parent" not in results:
        return f"| `{name}` | {' | '.join(cells)} | — | change only |"
    ratios = [metric(c, "wall_s") / metric(p, "wall_s")
              for c, p in zip(results["change"], results["parent"])
              if problem(c) is None and problem(p) is None]
    if not ratios:     # every pair has a failed run, listed above
        return f"| `{name}` | {' | '.join(cells)} | — | **FAIL** |"
    median = statistics.median(ratios)
    q1, _, q3 = (statistics.quantiles(ratios, n=4) if len(ratios) > 1
                 else ratios * 3)
    verdict = "ok"
    if median > BOUND:
        verdict = "**FAIL**"
        failures.append(f"`{name}`: median `wall_s` ratio {median:.3f} "
                        f"is above {BOUND}")
    return (f"| `{name}` | {' | '.join(cells)} | {median:.3f} "
            f"[{q1:.3f}, {q3:.3f}] | {verdict} |")


def gate(change: Path, parent: Path,
         run: Runner = perfbench) -> tuple[bool, str]:
    """Run the gate; returns whether it passed and its markdown report."""
    roots = {"change": change, "parent": parent}
    in_parent = set(workloads(parent))
    failures: list[str] = []
    rows = []
    for name in workloads(change):
        sides = SIDES if name in in_parent else SIDES[:1]
        results: dict[str, list] = {side: [] for side in sides}
        for pair in range(PAIRS):
            for side in (sides if pair % 2 == 0 else sides[::-1]):
                result = run(roots[side], name, False)
                results[side].append(result)
                seen = (problem(result)
                        or f"wall_s {metric(result, 'wall_s'):.4f}")
                print(f"[gate] {name} pair {pair + 1}/{PAIRS} {side}: {seen}",
                      file=sys.stderr)
        rows.append(compare(name, results, failures))
    why = problem(run(change, TRACED, True))
    if why is not None:
        failures.append(f"`{TRACED}`: the traced change run {why}")
    report = [
        "## perf: perfbench against the parent commit", "",
        f"{PAIRS} pairs per workload (seed {SEED}, {SECONDS} s runs, the "
        f"first side alternating); each cell is the change's median / "
        f"the parent's.  A workload fails when its median `wall_s` ratio "
        f"(change / parent) is above {BOUND}.", "",
        "| workload | " + " | ".join(f"`{m}`" for m in METRICS)
        + " | `wall_s` ratio, median [q1, q3] | gate |",
        "|---|" + "---:|" * (len(METRICS) + 1) + "---|",
        *rows, "",
        f"One traced `{TRACED}` run on the change: "
        f"{'correct' if why is None else why}.", ""]
    if failures:
        report += ["**FAIL**", ""] + [f"- {f}" for f in failures]
    else:
        report.append("**PASS**")
    return not failures, "\n".join(report) + "\n"


def main(argv: list[str]) -> int:
    if len(argv) != 1 or not (Path(argv[0]) / "perfbench").is_dir():
        print("usage: perfbench_gate.py PARENT_CHECKOUT", file=sys.stderr)
        return 2
    parent = Path(argv[0]).resolve()
    for root in (CHANGE, parent):
        subprocess.run([sys.executable, "-m", "compileall", "-q", "src"],
                       cwd=root)
    passed, report = gate(CHANGE, parent)
    print(report, end="")
    return 0 if passed else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
