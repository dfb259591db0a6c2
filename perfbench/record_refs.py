#!/usr/bin/env python3
"""Record the benchmark's reference outputs, one file per RunSpec seed.

    python3 perfbench/record_refs.py

For every seed it writes ``perfbench/refs/seedNN.json`` holding

* ``fig9``: STP, ANTT, per-thread committed instructions and measured
  cycles of every fig9 grid cell, simulated on the default engine into
  an empty store;
* ``golden``: a digest of every golden-matrix cell's snapshot,
  simulated on the object engine, which defines the golden fixture.

The seed-0 golden digests must equal those of the committed fixture
``tests/golden/golden_stats.json``; the script refuses to write them
otherwise.  Re-record only when an intentional change of simulated
behaviour invalidates the references.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
import sys
import tempfile

from run import ROOT, WORK, hermetic_env


def record(seed: int) -> dict:
    import workloads as wl
    from repro.api import Session
    from repro.jobs.store import ResultStore

    with tempfile.TemporaryDirectory(dir=WORK) as store_dir:
        specs = wl.fig9_specs(seed)
        results = Session(store=ResultStore(store_dir)).run_many(specs)
    golden = wl.run_golden(wl.golden_cells(seed), "object")
    return {"schema": wl.REFS_SCHEMA, "seed": seed,
            "fig9_budget": wl.FIG9_BUDGET,
            "fig9": wl.fig9_signatures(specs, results),
            "golden": {name: wl.digest(snap)
                       for name, snap in golden.items()}}


def check_fixture(doc: dict) -> None:
    import workloads as wl
    fixture = ROOT / "tests" / "golden" / "golden_stats.json"
    cells = json.loads(fixture.read_text())["cells"]
    want = {name: wl.digest(cell) for name, cell in cells.items()}
    if want != doc["golden"]:
        bad = sorted(k for k in want if want[k] != doc["golden"].get(k))
        raise SystemExit(f"seed-0 golden cells differ from {fixture}: {bad}")


def main() -> int:
    WORK.mkdir(exist_ok=True)
    env = hermetic_env(WORK / "record-store")
    os.environ.clear()
    os.environ.update(env)
    sys.path.insert(0, str(ROOT / "src"))
    import workloads as wl

    wl.REFS_DIR.mkdir(exist_ok=True)
    for seed in range(wl.N_REF_SEEDS):
        doc = record(seed)
        if seed == 0:
            check_fixture(doc)
        path: Path = wl.refs_path(seed)
        path.write_text(json.dumps(doc, sort_keys=True,
                                   separators=(",", ":")) + "\n")
        print(f"wrote {path.relative_to(ROOT)}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
