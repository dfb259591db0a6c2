"""DCRA's share gate, decided in C on the compiled engine.

While ``DCRAPolicy.can_dispatch`` and ``_limits`` carry the
``_share_gate`` marker, a cext core never calls ``can_dispatch``: the
dispatch stage computes the shares from ``policy.slow_weights`` (one
weight per thread, read from its slot at every evaluation) with
``_limits``' arithmetic.  ``tests/test_differential.py`` holds that
gate to the object engine's Python one over drawn weights, MLP-need
rates, 1-8 threads, mixes and window sizes.  These tests show that an
override of either marked method is called instead, that the native
gate builds no view and makes no Python call, that a changed or
reassigned weight list is followed, and the list's checks.
"""

from __future__ import annotations

from dataclasses import asdict
import json
from pathlib import Path

import pytest

from conftest import needs_cext
from repro.config import scaled_config
from repro.experiments.runner import trace_for
from repro.perf.golden import golden_matrix, snapshot_cell
from repro.perf.scenarios import run_scenario
from repro.pipeline import cext
from repro.pipeline.core import SMTCore
from repro.pipeline.dyninstr import F_FREED, F_IS_LOAD
from repro.policies.base import FetchPolicy
from repro.policies.dcra import DCRAPolicy

_FIXTURE = Path(__file__).parent / "golden" / "golden_stats.json"


def _outcome(cls, cfg, names, policy, commits, warmup=100):
    traces = [trace_for(n, cfg, t) for t, n in enumerate(names)]
    core = cls(cfg, traces, policy)
    core.run(commits, warmup=warmup)
    out = asdict(core.stats), core.cycle
    core.detach()
    return out


class _OwnLimits(DCRAPolicy):
    """Shares that read other state: a thread with more than two misses
    in flight gets three quarters of its ROB share."""

    __slots__ = ("calls",)

    def __init__(self):
        super().__init__()
        self.calls = 0

    def _limits(self, ts):
        self.calls += 1
        rob, *rest = super()._limits(ts)
        if ts.outstanding_misses > 2:
            rob *= 0.75
        return (rob, *rest)


class _OwnGate(DCRAPolicy):
    """DCRA's gate, and no load of a thread with more than two misses
    in flight."""

    __slots__ = ("calls",)

    def __init__(self):
        super().__init__()
        self.calls = 0

    def can_dispatch(self, ts, di):
        self.calls += 1
        if di.is_load and ts.outstanding_misses > 2:
            return False
        return super().can_dispatch(ts, di)


@needs_cext
@pytest.mark.parametrize("cls", (_OwnLimits, _OwnGate))
def test_an_override_is_called_and_matches_the_object_engine(cls):
    """A subclass that overrides a marked method loses the marker: the
    compiled loop calls its ``can_dispatch`` and ends where the object
    engine does, not where plain DCRA does."""
    cfg = scaled_config(num_threads=2)
    names = ("mcf", "swim")
    want = _outcome(SMTCore, cfg, names, cls(), 1_500)
    policy = cls()
    core_cls = cext.CextCore
    got = _outcome(core_cls, cfg, names, policy, 1_500)
    assert got == want
    assert policy.calls > 1_000
    assert got != _outcome(core_cls, cfg, names, DCRAPolicy(), 1_500)


class _Borrowed(FetchPolicy):
    """Not a ``DCRAPolicy``, though its gate is DCRA's marked functions:
    the compiled loop reads ``slow_weights`` at ``DCRAPolicy``'s slot
    offset only, so it calls this gate."""

    slow_weight = 2.0
    can_dispatch = DCRAPolicy.can_dispatch
    _limits = DCRAPolicy._limits

    def attach(self, core):
        super().attach(core)
        self.slow_weights = [self.slow_weight] * core.cfg.num_threads


@needs_cext
def test_a_borrowed_gate_on_another_class_is_called():
    cfg = scaled_config(num_threads=2)
    names = ("mcf", "swim")
    want = _outcome(SMTCore, cfg, names, DCRAPolicy(), 1_500)
    assert _outcome(SMTCore, cfg, names, _Borrowed(), 1_500) == want
    assert _outcome(cext.CextCore, cfg, names, _Borrowed(), 1_500) == want


def _refuse(self, *args):
    raise AssertionError("the compiled loop called a share-gate method")


_refuse._share_gate = True


@needs_cext
def test_golden_cells_decide_the_gate_in_c(monkeypatch):
    """With ``can_dispatch`` and ``_limits`` raising (marker kept), the
    eight ``dcra``/``mlp_dcra`` golden cells still match the fixture on
    cext; no slot left in flight has a view unless it is a load that
    ``mlp_dcra``'s ``on_ll_detect`` was handed (a Python gate views
    every instruction it is asked about)."""
    monkeypatch.setattr(DCRAPolicy, "can_dispatch", _refuse)
    monkeypatch.setattr(DCRAPolicy, "_limits", _refuse)
    fixture = json.loads(_FIXTURE.read_text())["cells"]
    cells = [sc for sc in golden_matrix() if sc.policy.endswith("dcra")]
    assert len(cells) == 8
    for sc in cells:
        assert snapshot_cell(sc, backend="cext") == fixture[sc.name]
        _, core = run_scenario(sc, backend="cext")
        views, flags = core._arena["views"], core._arena["flags"]
        viewed = [s for s, v in enumerate(views) if v is not None]
        if sc.policy == "dcra":
            assert viewed == []
        assert all(flags[s] & F_IS_LOAD for s in viewed)
        assert any(not f & F_FREED for f in flags)   # some in flight
        core.detach()


class _Shifting(DCRAPolicy):
    """Rewrites the completing thread's weight in place."""

    __slots__ = ()

    def on_load_complete(self, di, ts):
        self.slow_weights[ts.tid] = 1.0 + self.core.cycle % 7


class _Rebinding(DCRAPolicy):
    """Assigns a new list with the completing thread's weight changed."""

    __slots__ = ()

    def on_load_complete(self, di, ts):
        weights = list(self.slow_weights)
        weights[ts.tid] = 1.0 + self.core.cycle % 7
        self.slow_weights = weights


@needs_cext
@pytest.mark.parametrize("cls", (_Shifting, _Rebinding))
def test_a_weight_written_in_place_is_followed(cls):
    """A hook that rewrites an entry of ``slow_weights`` mid-run, or
    assigns a new list, changes the shares on both engines alike; an
    entry that is not a number fails the compiled run with a
    ``TypeError``."""
    cfg = scaled_config(num_threads=2, rob_size=64)
    names = ("mcf", "art")
    want = _outcome(SMTCore, cfg, names, cls(), 1_500)
    assert _outcome(cext.CextCore, cfg, names, cls(), 1_500) == want
    assert want != _outcome(SMTCore, cfg, names, DCRAPolicy(), 1_500)

    policy = DCRAPolicy()
    core = cext.CextCore(cfg, [trace_for(n, cfg, t)
                               for t, n in enumerate(names)], policy)
    policy.slow_weights[0] = "heavy"
    with pytest.raises(TypeError, match=r"slow_weights\[0\] must be an int"):
        core.run(1_500, warmup=100)
    core.detach()


@needs_cext
@pytest.mark.parametrize("weights", ([2.0], (2.0, 2.0), None),
                         ids=("short", "tuple", "none"))
def test_the_weight_list_must_have_one_entry_per_thread(weights):
    cfg = scaled_config(num_threads=2)
    policy = DCRAPolicy()
    core = cext.CextCore(cfg, [trace_for(n, cfg, t)
                               for t, n in enumerate(("mcf", "gzip"))],
                         policy)
    policy.slow_weights = weights
    with pytest.raises(TypeError, match="one weight per thread"):
        core.run(200)
    core.detach()
