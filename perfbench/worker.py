"""One benchmark process: set up, run the timed phase, check, report.

Started by ``run.py`` with a pinned environment and one JSON argument
(``mode``, ``workload``, ``seed``, ``seconds``, ``trace``,
``trace_out``).  Prints one JSON report as its last stdout
line.  Modes:

* ``host``  -- build or load the extension and describe the host;
* ``setup`` -- set up only, report when the first timed operation
  would start;
* ``pass``  -- one timed pass of ``fig9_cold`` or ``golden_cext``, or
  the whole ``fig9_warm`` loop (fill, then timed passes for
  ``seconds``).

Set-up is the imports and the backend probe/load; it ends at
``t_ready``.  Every interval reported (set-up, each pass) comes with
the CPU's mean speed over it, from :class:`SpeedProbe`.  Checks run
after each timed pass, outside its timing.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
import resource
import sys
import threading
import time

_perf = time.perf_counter

#: The probe spin: PROBE_SPINS iterations every PROBE_PERIOD_S.
PROBE_SPINS = 3_000
PROBE_PERIOD_S = 0.02
#: Undisturbed duration of the probe spin on the reference host (a
#: 2-vCPU Xeon VM, CPython 3.11.7), where it measured 0.255 ms.
PROBE_REF_S = 250e-6
#: Shortest window a speed is averaged over; a shorter interval (a
#: ``fig9_warm`` pass takes about 40 ms) also uses the samples before it.
MIN_WINDOW_S = 0.1


class SpeedProbe:
    """Times a fixed spin every ``PROBE_PERIOD_S`` on this process's CPU.

    Other tenants of a shared host slow the CPU a process runs on, by
    up to 1.8x in stretches of seconds to minutes; process CPU time
    stretches with wall time.  The spin slows with the CPU, so
    ``PROBE_REF_S / spin time`` is the CPU's current speed relative to
    the reference host, and an interval times the mean speed over it is
    what the interval would have taken there undisturbed.  The process
    is pinned to one CPU, so the probe thread and the timed code share
    it; the spin holds the GIL, so the timed code waits while it runs
    (about 1% of the time).
    """

    def __init__(self) -> None:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        self.samples: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self) -> None:
        table = {0: 0, 1: 1}
        while not self._stop.wait(PROBE_PERIOD_S):
            t0 = _perf()
            acc = 0
            for i in range(PROBE_SPINS):
                acc += table[i & 1] + (i >> 3)
            self.samples.append((t0, _perf() - t0))

    def speed(self, t0: float, t1: float) -> float:
        """Mean speed over ``[t0, t1]`` (``perf_counter`` times)."""
        t0 = min(t0, t1 - MIN_WINDOW_S)
        spins = [dt for t, dt in list(self.samples) if t0 <= t <= t1]
        if not spins:
            raise RuntimeError("no speed probe sample in the interval")
        return sum(PROBE_REF_S / dt for dt in spins) / len(spins)

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()


def main(argv: list[str]) -> int:
    args = json.loads(argv[1])
    nproc = len(os.sched_getaffinity(0))
    probe = SpeedProbe()
    t_start = _perf()

    # ---- set-up: imports and the backend probe/load ------------------ #
    import workloads as wl
    from repro import registry
    registry.backends.names()
    t_ready = time.monotonic()
    report = {"t_ready": t_ready, "setup_speed": probe.speed(t_start, _perf())}

    mode = args["mode"]
    if mode == "host":
        from repro.perf import calibrate
        from repro.pipeline.cext import cext_status
        report.update(nproc=nproc,
                      python=sys.version.split()[0],
                      cext=cext_status(), spin_s=calibrate())
    elif mode == "pass":
        run = {"fig9_cold": fig9_cold, "fig9_warm": fig9_warm,
               "golden_cext": golden_cext}[args["workload"]]
        report.update(run(wl, wl.spec_seed(args["seed"]), args, probe))
    probe.stop()
    print(json.dumps(report))
    return 0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tracer_for(args: dict):
    if not args["trace"]:
        return None
    from tracer import Tracer
    return Tracer().install()


def traced_layers(tracer, args: dict, store_bytes: int, speed: float):
    """Per-layer metrics of the pass just timed; writes out its spans.

    Seconds are scaled by the pass's speed, as its wall time is.
    """
    if tracer is None:
        return None
    from tracer import layer_metrics
    layers = scaled(layer_metrics(tracer.aggregate()), speed)
    layers["jobs.store_put.bytes"] = store_bytes
    tracer.dump(Path(args["trace_out"]))
    tracer.uninstall()
    return layers


def scaled(layers: dict[str, float], speed: float) -> dict[str, float]:
    return {name: value * speed if name.endswith(".s") else value
            for name, value in layers.items()}


def pass_report(wall: float, speed: float, rss_mb: float, layers,
                instr: int, attempted: int, failed: int, paper_gap) -> dict:
    return {"walls": [wall], "speeds": [speed],
            "traced": [layers is not None], "instr": [instr],
            "layers": [layers], "rss_mb": rss_mb,
            "attempted": attempted, "failed": failed,
            "paper_gap_pp": paper_gap}


def fig9_cold(wl, seed: int, args: dict, probe: SpeedProbe) -> dict:
    from repro.api import Session
    from repro.jobs.store import ResultStore
    tracer = tracer_for(args)

    t0 = _perf()
    specs = wl.fig9_specs(seed)
    session = Session()
    results = session.run_many(specs)
    t1 = _perf()

    speed = probe.speed(t0, t1)
    rss = peak_rss_mb()
    layers = traced_layers(tracer, args, ResultStore().size_bytes(), speed)
    expected = wl.load_refs(seed)["fig9"]
    failed = wl.count_mismatches(wl.fig9_signatures(specs, results),
                                 expected)
    instr = sum(sum(r.committed) for r in results) \
        + wl.baseline_instructions(specs, session)
    return pass_report(t1 - t0, speed, rss, layers, instr, len(expected),
                       failed, wl.paper_gap_pp(specs, results))


def golden_cext(wl, seed: int, args: dict, probe: SpeedProbe) -> dict:
    cells = wl.golden_cells(seed)
    tracer = tracer_for(args)

    t0 = _perf()
    snapshots = wl.run_golden(cells, wl.GOLDEN_BACKEND)
    t1 = _perf()

    speed = probe.speed(t0, t1)
    rss = peak_rss_mb()
    layers = traced_layers(tracer, args, 0, speed)
    expected = wl.load_refs(seed)["golden"]
    found = {name: wl.digest(snap) for name, snap in snapshots.items()}
    return pass_report(t1 - t0, speed, rss, layers,
                       wl.golden_instructions(snapshots), len(expected),
                       wl.count_mismatches(found, expected), None)


def fig9_warm(wl, seed: int, args: dict, probe: SpeedProbe) -> dict:
    """Fill the store untimed, then serve the grid from it repeatedly.

    A traced run alternates untraced and traced passes; the wrappers
    are installed only around traced passes (no core is built then).
    """
    from repro.api import Session
    expected = wl.load_refs(seed)["fig9"]

    specs = wl.fig9_specs(seed)
    filled = Session().run_many(specs)
    cold = wl.fig9_signatures(specs, filled)
    attempted = len(expected)
    failed = wl.count_mismatches(cold, expected)
    instr = sum(sum(r.committed) for r in filled)
    gap = wl.paper_gap_pp(specs, filled)

    tracer = None
    if args["trace"]:
        from tracer import Tracer, layer_metrics
        tracer = Tracer()
    intervals, traced, layers = [], [], []
    deadline = _perf() + args["seconds"]
    while _perf() < deadline or len(intervals) < 2:
        on = tracer is not None and len(intervals) % 2 == 1
        if on:
            tracer.reset()
            tracer.install()
        t0 = _perf()
        specs = wl.fig9_specs(seed)
        results = Session().run_many(specs)
        intervals.append((t0, _perf()))
        traced.append(on)
        if on:
            tracer.uninstall()
            layers.append(layer_metrics(tracer.aggregate()))
        else:
            layers.append(None)
        attempted += len(results)
        failed += wl.count_mismatches(wl.fig9_signatures(specs, results),
                                      cold)
    if tracer is not None:
        tracer.dump(Path(args["trace_out"]))
    speeds = [probe.speed(t0, t1) for t0, t1 in intervals]
    for i, (layer, speed) in enumerate(zip(layers, speeds)):
        if layer is not None:
            layers[i] = {**scaled(layer, speed), "jobs.store_put.bytes": 0}
    return {"walls": [t1 - t0 for t0, t1 in intervals], "speeds": speeds,
            "traced": traced, "instr": [instr] * len(intervals),
            "layers": layers, "attempted": attempted, "failed": failed,
            "rss_mb": peak_rss_mb(), "paper_gap_pp": gap}


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
