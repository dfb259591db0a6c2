"""The layer tracer keeps the engines' fast paths and changes no result.

    python3 -m pytest perfbench/test_tracer.py -q
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest
import workloads as wl
from tracer import (
    IDENTITY_CHECKED,
    MARKERS,
    POLICY_HOOKS,
    Tracer,
    _class_tree,
    layer_metrics,
)

from repro import registry
from repro.api import Session
from repro.pipeline.core import SMTCore
from repro.policies.base import FetchPolicy, LongLatencyAwarePolicy

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(autouse=True)
def _hermetic(tmp_path, monkeypatch):
    for key in list(os.environ):
        if key.startswith("REPRO_"):
            monkeypatch.delenv(key)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "store"))
    monkeypatch.setenv("REPRO_CEXT_CACHE", str(ROOT / ".perfbench" / "cext"))


@pytest.fixture
def tracer():
    tr = Tracer()
    yield tr
    tr.uninstall()


def test_markers_survive_and_identity_methods_stay(tracer):
    registry.backends.names()
    registry.policies.names()
    engines = _class_tree(SMTCore)
    identity = {(cls, name): vars(cls).get(name)
                for cls in engines for name in IDENTITY_CHECKED}
    hooks = {(cls, hook): vars(cls)[hook]
             for cls in _class_tree(FetchPolicy) for hook in POLICY_HOOKS
             if hook in vars(cls)}

    tracer.install()
    for (cls, name), fn in identity.items():
        assert vars(cls).get(name) is fn, f"{cls.__name__}.{name} wrapped"
    for (cls, hook), original in hooks.items():
        wrapped = vars(cls)[hook]
        assert wrapped is not original
        assert wrapped.__wrapped__ is original
        for marker in MARKERS:
            assert getattr(wrapped, marker, None) == \
                getattr(original, marker, None)
    assert FetchPolicy.on_fetch._is_default_hook is True
    assert FetchPolicy.fetch_order._is_base_impl is True
    assert LongLatencyAwarePolicy.on_load_complete \
        ._identity_keyed_cleanup is True

    tracer.uninstall()
    for (cls, hook), original in hooks.items():
        assert vars(cls)[hook] is original


@pytest.mark.parametrize("backend", ["object", "cext"])
def test_traced_golden_cells_equal_untraced(tracer, backend):
    if backend not in registry.backends:
        pytest.skip(f"{backend} backend unavailable")
    names = {"golden_1t_icount", "golden_2t_mlp_flush", "golden_2t_dcra",
             "golden_4t_mlp_stall", "golden_2t_runahead"}
    cells = [sc for sc in wl.golden_cells(3) if sc.name in names]
    untraced = wl.run_golden(cells, backend)

    tracer.install()
    traced = wl.run_golden(cells, backend)
    metrics = layer_metrics(tracer.aggregate())
    tracer.uninstall()

    assert traced == untraced
    assert metrics["api.simulate.calls"] == len(cells)
    assert metrics["pipeline.core_init.calls"] == len(cells)
    assert metrics["memory.load.calls"] > 0
    assert metrics["policies.can_dispatch.calls"] > 0      # dcra
    assert metrics["pipeline.measure.s"] > 0


@pytest.mark.parametrize("backend", ["object", "cext"])
def test_elided_default_hooks_are_never_called(tracer, backend):
    if backend not in registry.backends:
        pytest.skip(f"{backend} backend unavailable")
    elided = ["on_fetch", "on_load_complete", "can_dispatch",
              "on_resource_stall"]
    if backend == "cext":       # only the SoA-based engines elide it
        elided.append("on_ll_detect")
    cells = [sc for sc in wl.golden_cells(0) if sc.name == "golden_2t_icount"]
    tracer.install()
    wl.run_golden(cells, backend)
    metrics = layer_metrics(tracer.aggregate())
    for hook in elided:
        assert metrics[f"policies.{hook}.calls"] == 0, hook


def test_traced_grid_equals_untraced_and_spans_share_sim_ids(tracer):
    specs = wl.fig9_specs(2)[:4]
    untraced = wl.fig9_signatures(specs, Session(store=None).run_many(specs))

    tracer.install()
    results = Session().run_many(specs)
    metrics = layer_metrics(tracer.aggregate())
    spans = {span.id: span for span in tracer._spans}
    tracer.uninstall()

    assert wl.fig9_signatures(specs, results) == untraced
    assert metrics["jobs.store_get.calls"] == 4 + 2    # cells + baselines
    assert metrics["jobs.store_hit_ratio"] == 0.0
    assert metrics["jobs.store_put.calls"] == 4 + 2
    sims = {"experiments.workload", "experiments.baseline"}
    phases = [s for s in spans.values()
              if s.name in ("pipeline.warmup", "pipeline.measure")]
    assert len(phases) == 2 * (4 + 2)
    for span in phases:
        assert spans[span.sim].name in sims
        assert spans[span.parent].id == span.sim
