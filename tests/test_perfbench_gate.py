"""The parent-commit perf gate (``scripts/perfbench_gate.py``).

The gate runs perfbench on a change and on its parent in alternating
pairs and fails on a median ``wall_s`` ratio above its bound, on a
missing or incorrect result, or on an incorrect traced run.  These
tests drive it with a fake runner in place of perfbench, over two
checkout directories that hold only a ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
from pathlib import Path
import sys

import pytest

_REPO = Path(__file__).resolve().parents[1]


def _load():
    sys.path.insert(0, str(_REPO / "scripts"))
    try:
        import perfbench_gate
        return perfbench_gate
    finally:
        sys.path.pop(0)


gate_mod = _load()

WORKLOADS = ("fig9_cold", "fig9_warm", "golden_cext")


def _result(wall: float = 0.4, correct: bool = True) -> dict:
    return {"correct": correct, "attempted": 72,
            "failed": 0 if correct else 3,
            "metrics": {"wall_s": {"value": wall, "unit": "s"},
                        "setup_s": {"value": 0.11, "unit": "s"},
                        "sim_kips": {"value": 600.0, "unit": "kinstr/s"},
                        "peak_rss_mb": {"value": 28.0, "unit": "MB"}}}


def _checkout(path: Path, workloads=WORKLOADS) -> Path:
    path.mkdir()
    (path / "BENCHMARK.json").write_text(json.dumps(
        {"workloads": [{"name": w} for w in workloads]}))
    return path


class FakeRunner:
    """Stands in for perfbench: records each run and returns
    ``answer(side, workload, n, trace)``, ``n`` counting that side's
    earlier runs of the workload."""

    def __init__(self, change: Path, answer=None):
        self.change = change
        self.answer = answer or (lambda side, workload, n, trace: _result())
        self.calls: list[tuple[str, str, bool]] = []

    def __call__(self, root: Path, workload: str, trace: bool):
        side = "change" if root == self.change else "parent"
        n = sum(1 for s, w, t in self.calls
                if (s, w, t) == (side, workload, trace))
        self.calls.append((side, workload, trace))
        return self.answer(side, workload, n, trace)


@pytest.fixture
def roots(tmp_path):
    return _checkout(tmp_path / "change"), _checkout(tmp_path / "parent")


def test_identical_results_pass(roots):
    change, parent = roots
    run = FakeRunner(change)
    passed, report = gate_mod.gate(change, parent, run)
    assert passed, report
    assert "**PASS**" in report
    for w in WORKLOADS:
        assert (f"| `{w}` | 0.4 / 0.4 | 0.11 / 0.11 | 600 / 600 | 28 / 28 "
                f"| 1.000 [1.000, 1.000] | ok |") in report
    assert f"One traced `{gate_mod.TRACED}` run on the change: correct." \
        in report
    # Every workload ran PAIRS times per side, plus one traced run.
    untraced = [c for c in run.calls if not c[2]]
    assert len(untraced) == 2 * gate_mod.PAIRS * len(WORKLOADS)
    assert [c for c in run.calls if c[2]] == [("change", gate_mod.TRACED,
                                               True)]


def test_a_change_20_percent_slower_fails_and_names_the_workload(roots):
    change, parent = roots

    def answer(side, workload, n, trace):
        slow = side == "change" and workload == "golden_cext"
        return _result(0.48 if slow else 0.4)

    passed, report = gate_mod.gate(change, parent, FakeRunner(change, answer))
    assert not passed
    assert "- `golden_cext`: median `wall_s` ratio 1.200 is above 1.15" \
        in report
    assert "1.200 [1.200, 1.200] | **FAIL** |" in report
    assert "`fig9_cold`: median" not in report


def test_a_slowdown_within_the_bound_passes(roots):
    change, parent = roots

    def answer(side, workload, n, trace):
        return _result(0.44 if side == "change" else 0.4)

    passed, report = gate_mod.gate(change, parent, FakeRunner(change, answer))
    assert passed, report


@pytest.mark.parametrize("side", ["change", "parent"])
@pytest.mark.parametrize("kind", ["missing", "incorrect"])
def test_a_bad_result_fails_and_names_its_side(roots, side, kind):
    change, parent = roots

    def answer(s, workload, n, trace):
        if (s, workload, n) == (side, "fig9_warm", 3):
            return None if kind == "missing" else _result(correct=False)
        return _result()

    passed, report = gate_mod.gate(change, parent, FakeRunner(change, answer))
    assert not passed
    why = ("gave no result" if kind == "missing"
           else "is not correct (3 of 72 operations failed)")
    assert f"- `fig9_warm`: {side} run 4 {why}" in report
    # The other pairs still give the workload its ratio.
    assert "| `fig9_warm` | 0.4 / 0.4 |" in report


def test_an_incorrect_traced_run_fails(roots):
    change, parent = roots

    def answer(side, workload, n, trace):
        return _result(correct=not trace)

    passed, report = gate_mod.gate(change, parent, FakeRunner(change, answer))
    assert not passed
    assert "- `fig9_warm`: the traced change run is not correct" in report


def test_the_first_side_alternates_between_pairs(roots):
    change, parent = roots
    run = FakeRunner(change)
    gate_mod.gate(change, parent, run)
    for w in WORKLOADS:
        sides = [s for s, workload, t in run.calls if workload == w and not t]
        firsts = sides[::2]
        assert firsts == ["change", "parent"] * (gate_mod.PAIRS // 2)
        # Each pair is one run of each side.
        assert all(set(sides[i:i + 2]) == {"change", "parent"}
                   for i in range(0, len(sides), 2))


def test_a_workload_absent_from_the_parent_runs_on_the_change_alone(
        tmp_path):
    change = _checkout(tmp_path / "change", WORKLOADS + ("golden_object",))
    parent = _checkout(tmp_path / "parent")
    run = FakeRunner(change)
    passed, report = gate_mod.gate(change, parent, run)
    assert passed, report
    assert [s for s, w, t in run.calls if w == "golden_object"] \
        == ["change"] * gate_mod.PAIRS
    assert "| `golden_object` | 0.4 / — |" in report
    assert "| — | change only |" in report


def test_a_change_only_workload_must_be_correct(tmp_path):
    change = _checkout(tmp_path / "change", ("golden_object",))
    parent = _checkout(tmp_path / "parent", ("fig9_warm",))

    def answer(side, workload, n, trace):
        return _result(correct=workload != "golden_object" or n != 0)

    passed, report = gate_mod.gate(change, parent, FakeRunner(change, answer))
    assert not passed
    assert "- `golden_object`: change run 1 is not correct" in report


def test_main_needs_exactly_one_parent_checkout(tmp_path, capsys):
    assert gate_mod.main([]) == 2
    assert gate_mod.main([str(tmp_path)]) == 2      # no perfbench/ there
    assert "usage" in capsys.readouterr().err
