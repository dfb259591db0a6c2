#!/usr/bin/env python3
"""The repro benchmark: one workload, measured end to end or traced.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload fig9_cold --seed 0 --seconds 25 --trace 0

Workloads (see perfbench/README.md for why each exists):

* ``fig9_cold``   -- the ``repro figure fig9`` grid into an empty store;
* ``fig9_warm``   -- the same grid served again from a store it filled;
* ``golden_cext`` -- the 34-cell golden matrix on the compiled backend.

Every timed pass runs in a fresh, serial process with pinned
``REPRO_*`` settings (one client, closed loop).  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` -- the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``.  Human-readable lines, the
host context and the fail ratio come before it; each run is also
appended to ``.perfbench/runs.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
from pathlib import Path
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
#: Extension build cache, scratch stores, traces, run log (git-ignored).
WORK = ROOT / ".perfbench"

WORKLOADS = ("fig9_cold", "fig9_warm", "golden_cext")

#: Operations one pass checks: grid cells, store lookups or golden cells.
OPS_PER_PASS = {"fig9_cold": 72, "fig9_warm": 72, "golden_cext": 34}

#: Fewest timed passes per run (cold and golden passes are processes).
MIN_PASSES = {"fig9_cold": 3, "golden_cext": 5}

#: Set-up samples per untraced run: pass processes plus set-up-only ones.
SETUP_SAMPLES = 12

#: Per-process timeout; a pass that hangs is killed and counted failed.
PASS_TIMEOUT_S = 150


def hermetic_env(cache_dir: Path) -> dict[str, str]:
    """The pinned environment every benchmark process runs under.

    Every inherited ``REPRO_*`` knob is dropped (among them
    ``REPRO_SANITIZE``, ``REPRO_CEXT``, ``REPRO_CEXT_STAGES``,
    ``REPRO_COMMITS``, ``REPRO_WARMUP``, ``REPRO_SCALE`` and
    ``REPRO_FULL``), then the store is pointed at ``cache_dir`` with
    caching on and one worker.  The compiled extension is cached inside
    the checkout, so it is built once per source change.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        REPRO_CACHE_DIR=str(cache_dir), REPRO_CACHE="1", REPRO_JOBS="1",
        REPRO_CEXT_CACHE=str(WORK / "cext"),
        PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    return env


class PassFailed(RuntimeError):
    """A benchmark process exited abnormally or timed out."""


def spawn(args: dict, scratch: Path, timeout: float) -> dict:
    """Run one worker process; returns its report.

    ``setup_s`` is added: seconds from just before the process was
    started to its first timed operation (both clocks are the system
    monotonic clock), scaled by the CPU's speed over the set-up.
    """
    cache_dir = Path(tempfile.mkdtemp(prefix="store-", dir=scratch))
    cmd = [sys.executable, str(BENCH / "worker.py"), json.dumps(args)]
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=hermetic_env(cache_dir), cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise PassFailed(f"{args['mode']} timed out after {timeout:.0f}s") \
            from None
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.strip().splitlines()[-15:])
        raise PassFailed(f"{args['mode']} exited {proc.returncode}:\n{tail}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["setup_s"] = (report["t_ready"] - t_spawn) * report["setup_speed"]
    return report


class Run:
    """The passes of one benchmark run and what they reported."""

    def __init__(self, workload: str, seed: int, seconds: int, trace: bool,
                 scratch: Path):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.scratch = scratch
        self.reports: list[dict] = []
        self.setups: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def args(self, mode: str, traced: bool = False) -> dict:
        trace_out = WORK / "traces" / f"{self.workload}-seed{self.seed}.json"
        return {"mode": mode, "workload": self.workload, "seed": self.seed,
                "seconds": self.seconds, "trace": traced,
                "trace_out": str(trace_out)}

    def record(self, report: dict) -> None:
        self.reports.append(report)
        self.setups.append(report["setup_s"])
        self.attempted += report["attempted"]
        self.failed += report["failed"]

    def fail_pass(self, exc: PassFailed) -> None:
        self.attempted += OPS_PER_PASS[self.workload]
        self.failed += OPS_PER_PASS[self.workload]
        self.errors.append(str(exc))

    def execute(self) -> None:
        if self.workload == "fig9_warm":
            # One process fills the store, then times repeated passes;
            # set-up is sampled first, so the samples span the run.
            self.setup_probes(SETUP_SAMPLES - 1)
            timeout = 60 + self.seconds + PASS_TIMEOUT_S
            try:
                self.record(spawn(self.args("pass", self.trace),
                                  self.scratch, timeout))
            except PassFailed as exc:
                self.fail_pass(exc)
        else:
            self.process_passes()
            self.setup_probes(SETUP_SAMPLES)

    def process_passes(self) -> None:
        """Fresh-process passes until the next would overrun the run.

        A traced run alternates untraced and traced passes, so both
        see the same host conditions.
        """
        deadline = time.monotonic() + self.seconds
        durations: list[float] = []
        n_min = 2 if self.trace else MIN_PASSES[self.workload]
        while True:
            traced = self.trace and len(durations) % 2 == 1
            t0 = time.monotonic()
            try:
                self.record(spawn(self.args("pass", traced), self.scratch,
                                  PASS_TIMEOUT_S))
            except PassFailed as exc:
                self.fail_pass(exc)
            durations.append(time.monotonic() - t0)
            if len(durations) >= n_min and \
                    time.monotonic() + statistics.median(durations) > deadline:
                return

    def setup_probes(self, total: int) -> None:
        """Top the set-up samples up to ``total`` with set-up-only
        processes (an untraced run's ``setup_s`` is their median)."""
        if self.trace:
            return
        while len(self.setups) < total:
            try:
                self.setups.append(spawn(self.args("setup"), self.scratch,
                                         PASS_TIMEOUT_S)["setup_s"])
            except PassFailed as exc:
                self.errors.append(str(exc))
                return

    # ------------------------------------------------------------------ #
    # metrics
    # ------------------------------------------------------------------ #

    def samples(self, key: str, traced: bool) -> list:
        return [x for r in self.reports for x, t in zip(r[key], r["traced"])
                if t == traced]

    def wall(self, traced: bool) -> float:
        """Median pass time, each pass scaled by the CPU's speed over it
        (see ``worker.SpeedProbe``)."""
        return statistics.median(
            w * s for w, s in zip(self.samples("walls", traced),
                                  self.samples("speeds", traced)))

    def end_to_end(self) -> dict[str, float]:
        """One run's end-to-end metrics: medians of speed-scaled times."""
        wall = self.wall(False)
        return {
            "wall_s": wall,
            "setup_s": statistics.median(self.setups),
            "sim_kips": self.samples("instr", False)[0] / wall / 1e3,
            "peak_rss_mb": statistics.median(r["rss_mb"]
                                             for r in self.reports),
        }

    def per_layer(self) -> dict[str, float]:
        layers = self.samples("layers", True)
        out = {}
        for name in layers[0]:
            values = [layer[name] for layer in layers]
            # Counts repeat exactly from pass to pass; keep them whole.
            out[name] = (statistics.median_low(values)
                         if name.endswith((".calls", ".bytes"))
                         else statistics.median(values))
        out["trace_overhead_s"] = self.wall(True) - self.wall(False)
        out["experiments.paper_gap_pp"] = self.paper_gap()
        return out

    def paper_gap(self) -> float:
        gaps = [r["paper_gap_pp"] for r in self.reports
                if r.get("paper_gap_pp") is not None]
        return gaps[0] if gaps else 0.0

    def has_timings(self) -> bool:
        if not self.samples("walls", False):
            return False
        if self.trace:
            return bool(self.samples("layers", True))
        return bool(self.setups)


def metric_units() -> dict[str, str]:
    """Every metric's unit, as ``BENCHMARK.json`` declares it."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc["end_to_end"] + doc["per_layer"]}


def host_context(scratch: Path) -> dict:
    """Build or load the extension, then describe the host."""
    report = spawn({"mode": "host"}, scratch, 600)
    return {k: report[k] for k in ("nproc", "python", "cext", "spin_s")}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args(argv)
    if opts.seed < 0 or opts.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    # On SIGTERM, unwind like Ctrl-C: subprocess.run kills and reaps the
    # running worker, and the scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    WORK.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        host = host_context(scratch)
        run = Run(opts.workload, opts.seed, opts.seconds, bool(opts.trace),
                  scratch)
        run.execute()
    except PassFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    for error in run.errors:
        print(f"perfbench: {error}", file=sys.stderr)
    if not run.has_timings():
        print("perfbench: no pass completed; no result", file=sys.stderr)
        return 1
    metrics = run.per_layer() if run.trace else run.end_to_end()
    units = metric_units()
    result = {
        "correct": run.failed == 0 and not run.errors,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print_human(run, host, metrics, units)
    with open(WORK / "runs.jsonl", "a") as log:
        log.write(json.dumps({
            "time": time.strftime("%Y-%m-%dT%H:%M:%S"), "host": host,
            "workload": run.workload, "seed": run.seed,
            "seconds": run.seconds, "trace": run.trace,
            "walls": run.samples("walls", False),
            "speeds": run.samples("speeds", False),
            "setups": run.setups, **result}) + "\n")
    print(json.dumps(result))
    return 0


def print_human(run: Run, host: dict, metrics: dict[str, float],
                units: dict[str, str]) -> None:
    print(f"perfbench {run.workload} seed={run.seed} seconds={run.seconds} "
          f"trace={int(run.trace)}")
    print(f"host: nproc={host['nproc']} python={host['python']} "
          f"spin={host['spin_s']:.4f}s cext={host['cext']}")
    walls = run.samples("walls", False)
    print(f"samples: {len(walls)} untraced timed passes, "
          f"{len(run.samples('walls', True))} traced, "
          f"{len(run.setups)} set-ups; median unscaled pass "
          f"{statistics.median(walls):.6g} s at CPU speed "
          f"{statistics.median(run.samples('speeds', False)):.3f}")
    for name, value in metrics.items():
        print(f"  {name:<36} {value:>14.6g} {units[name]}")
    ratio = run.failed / run.attempted if run.attempted else 1.0
    print(f"  {'fail_ratio':<36} {ratio:>14.6g} "
          f"({run.failed} of {run.attempted} operations)")
    gap = run.paper_gap()
    if run.workload != "golden_cext" and "experiments.paper_gap_pp" \
            not in metrics:
        print(f"  {'paper_gap_pp':<36} {gap:>14.6g} "
              f"{units['experiments.paper_gap_pp']} "
              f"(deterministic per seed; not gated)")


if __name__ == "__main__":
    raise SystemExit(main())
