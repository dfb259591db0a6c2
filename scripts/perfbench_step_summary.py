"""Check perfbench results and render their metrics as markdown.

Usage::

    python scripts/perfbench_step_summary.py RUN_OUTPUT...

Each ``RUN_OUTPUT`` is the captured standard output of one
``perfbench/run.py`` run, named after its workload (``fig9_cold.txt``);
the run's last line is its JSON result.  Prints one markdown table per
run, for a CI step summary, and exits 1 unless every run produced a
result that says ``"correct": true``.
"""

from __future__ import annotations

import json
from pathlib import Path
import sys


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


def render(name: str, result: dict | None) -> str:
    if result is None:
        return f"### perfbench `{name}`: no result (the run failed)\n"
    verdict = "correct" if result["correct"] is True else "**NOT CORRECT**"
    lines = [f"### perfbench `{name}`: {verdict} ({result['failed']} of "
             f"{result['attempted']} operations failed)",
             "", "| metric | value | unit |", "|---|---:|---|"]
    lines += [f"| `{metric}` | {m['value']:.6g} | {m['unit']} |"
              for metric, m in result["metrics"].items()]
    return "\n".join(lines) + "\n"


def main(paths: list[str]) -> int:
    ok = bool(paths)
    for path in map(Path, paths):
        result = result_of(path.read_text() if path.exists() else "")
        print(render(path.stem, result))
        if result is None or result["correct"] is not True:
            print(f"perfbench: {path.stem} is not correct", file=sys.stderr)
            ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
