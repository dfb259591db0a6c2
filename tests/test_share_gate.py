"""Dispatch partitions, declared as data and applied by each engine.

``static`` and ``learning`` declare rows of six limits per thread
(``policy.limit_rows``), ``dcra`` and ``mlp_dcra`` DCRA's weights
(``policy.slow_weights``).  At every dispatch attempt that passes the
shared-resource checks, each engine calls the policy's ``can_dispatch``
if it is overridden, then reads the data from its slot and compares
with ``SMTCore.partition_limits``' arithmetic; the compiled engine does
both in C, with no Python call or view.
``tests/test_differential.py`` holds the compiled comparator to the
object engine's over drawn weights, ``learning`` epochs, 1-8 threads,
mixes and window sizes.  These tests show that an override's verdict
and the partition must both pass, that the compiled engine never runs
the Python arithmetic and builds no view for it, that a changed or
reassigned weight list or row is followed, the data's checks, and that
a partition, like any dispatch cap, never arms the dispatch stall
latch.
"""

from __future__ import annotations

from dataclasses import asdict
import json
from pathlib import Path

import pytest

from conftest import needs_cext
from repro.config import SMTConfig, scaled_config, scaled_memory
from repro.experiments.runner import trace_for
from repro.perf.golden import golden_matrix, snapshot_cell
from repro.perf.scenarios import run_scenario
from repro.pipeline import cext
from repro.pipeline.core import SMTCore
from repro.pipeline.dyninstr import F_FREED, F_IS_LOAD
from repro.policies import make_policy
from repro.policies.base import FetchPolicy, buffer_sizes
from repro.policies.dcra import DCRAPolicy
from repro.policies.static_partition import StaticPartitionPolicy

_FIXTURE = Path(__file__).parent / "golden" / "golden_stats.json"


def _outcome(cls, cfg, names, policy, commits, warmup=100):
    traces = [trace_for(n, cfg, t) for t, n in enumerate(names)]
    core = cls(cfg, traces, policy)
    core.run(commits, warmup=warmup)
    out = asdict(core.stats), core.cycle
    core.detach()
    return out


def _refuse(self, *args):
    raise AssertionError("the compiled loop ran the Python limits")


def _no_load_past_two_misses(self, ts, di):
    self.calls += 1
    return not (di.is_load and ts.outstanding_misses > 2)


class _OwnGate(DCRAPolicy):
    """DCRA's partition, and no load of a thread with more than two
    misses in flight."""

    __slots__ = ("calls",)

    def __init__(self):
        super().__init__()
        self.calls = 0

    can_dispatch = _no_load_past_two_misses


class _GateAlone(FetchPolicy):
    """The same gate without a partition."""

    __slots__ = ("calls",)

    def __init__(self):
        super().__init__()
        self.calls = 0

    can_dispatch = _no_load_past_two_misses


@needs_cext
@pytest.mark.parametrize("cls", (_OwnGate,))
def test_an_override_is_called_and_matches_the_object_engine(cls):
    """A subclass's ``can_dispatch`` is called, and DCRA's limits still
    apply after it (both must pass): the compiled loop ends where the
    object engine does, and not where plain DCRA or the gate alone
    do."""
    cfg = scaled_config(num_threads=2)
    names = ("mcf", "swim")
    want = _outcome(SMTCore, cfg, names, cls(), 1_500)
    policy = cls()
    got = _outcome(cext.CextCore, cfg, names, policy, 1_500)
    assert got == want
    assert policy.calls > 1_000
    assert got != _outcome(cext.CextCore, cfg, names, DCRAPolicy(), 1_500)
    assert got != _outcome(cext.CextCore, cfg, names, _GateAlone(), 1_500)


@needs_cext
def test_golden_cells_decide_the_gate_in_c(monkeypatch):
    """With ``SMTCore.partition_limits`` raising, the eight
    ``dcra``/``mlp_dcra`` golden cells still match the fixture on cext;
    no slot left in flight has a view unless it is a load that
    ``mlp_dcra``'s ``on_ll_detect`` was handed (a Python gate views
    every instruction it is asked about)."""
    monkeypatch.setattr(SMTCore, "partition_limits", _refuse)
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


#: Three threads under buffer sizes three does not divide (the ROB's
#: must divide): ``static``'s integer floors cap each thread below a
#: third of every other buffer.
_UNEVEN = dict(num_threads=3, rob_size=240, lsq_size=32, int_iq_size=40,
               fp_iq_size=20, int_rename_regs=50, fp_rename_regs=40)


@needs_cext
def test_a_static_cell_builds_no_view(monkeypatch):
    """``static`` has no hook at all on cext: with the Python limits
    raising it ends where the object engine does, and no slot in
    flight has a view."""
    cfg = SMTConfig(memory=scaled_memory(), **_UNEVEN)
    names = ("mcf", "swim", "gzip")
    want = _outcome(SMTCore, cfg, names, StaticPartitionPolicy(), 2_000)
    monkeypatch.setattr(SMTCore, "partition_limits", _refuse)
    core = cext.CextCore(cfg, [trace_for(n, cfg, t)
                               for t, n in enumerate(names)],
                         StaticPartitionPolicy())
    core.run(2_000, warmup=100)
    assert (asdict(core.stats), core.cycle) == want
    assert core.policy.limit_rows == [(80, 10, 13, 6, 16, 13)] * 3
    flags = core._arena["flags"]
    assert any(not f & F_FREED for f in flags)   # some in flight
    assert all(v is None for v in core._arena["views"])
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


def _scaled_row(policy):
    """The 1/n floors times two to six quarters, by cycle."""
    n, quarters = len(policy.limit_rows), 2 + policy.core.cycle % 5
    return tuple(size // n * quarters // 4
                 for size in buffer_sizes(policy.core.cfg))


class _ShiftingRows(StaticPartitionPolicy):
    """Replaces the completing thread's row in the list."""

    __slots__ = ()

    def on_load_complete(self, di, ts):
        self.limit_rows[ts.tid] = _scaled_row(self)


class _RebindingRows(StaticPartitionPolicy):
    """Assigns a new list of rows, as lists, the completing thread's
    changed."""

    __slots__ = ()

    def on_load_complete(self, di, ts):
        rows = [list(row) for row in self.limit_rows]
        rows[ts.tid] = list(_scaled_row(self))
        self.limit_rows = rows


@needs_cext
@pytest.mark.parametrize("cls", (_Shifting, _Rebinding, _ShiftingRows,
                                 _RebindingRows))
def test_a_weight_written_in_place_is_followed(cls):
    """A hook that rewrites an entry of ``slow_weights`` or
    ``limit_rows`` mid-run, or assigns a new list, changes the limits
    on both engines alike."""
    cfg = scaled_config(num_threads=2, rob_size=64)
    names = ("mcf", "art")
    want = _outcome(SMTCore, cfg, names, cls(), 1_500)
    assert _outcome(cext.CextCore, cfg, names, cls(), 1_500) == want
    base = cls.__mro__[1]
    assert want != _outcome(SMTCore, cfg, names, base(), 1_500)


def _attached(policy, names=("mcf", "gzip"), core_cls=None):
    cfg = scaled_config(num_threads=len(names))
    return (core_cls or cext.CextCore)(
        cfg, [trace_for(n, cfg, t) for t, n in enumerate(names)], policy)


@needs_cext
@pytest.mark.parametrize("policy, write, match", (
    ("dcra", lambda p: p.slow_weights.__setitem__(0, "heavy"),
     r"slow_weights\[0\] must be an int or a float"),
    ("static", lambda p: p.limit_rows.__setitem__(
        1, (8, 8, None, 8, 8, 8)),
     r"limit_rows\[1\] must be a tuple of six ints or floats"),
), ids=("weight", "limit"))
def test_a_value_that_is_not_a_number_fails(policy, write, match):
    core = _attached(make_policy(policy))
    write(core.policy)
    with pytest.raises(TypeError, match=match):
        core.run(1_500, warmup=100)
    core.detach()


@needs_cext
@pytest.mark.parametrize("weights", ([2.0], (2.0, 2.0), None),
                         ids=("short", "tuple", "none"))
def test_the_weight_list_must_have_one_entry_per_thread(weights):
    core = _attached(DCRAPolicy())
    core.policy.slow_weights = weights
    with pytest.raises(TypeError, match="one weight per thread"):
        core.run(200)
    core.detach()


_ROW = (8, 8, 8, 8, 8, 8)


@needs_cext
@pytest.mark.parametrize("rows, match", (
    ([_ROW], "one row per thread"),
    ((_ROW, _ROW), "one row per thread"),
    (None, "one row per thread"),
    ([_ROW, _ROW[:5]], r"limit_rows\[1\] must be a tuple of six"),
    ([_ROW, set(_ROW)], r"limit_rows\[1\] must be a tuple of six"),
), ids=("short", "tuple", "none", "five", "set"))
def test_the_limit_rows_must_be_one_row_of_six_per_thread(rows, match):
    core = _attached(StaticPartitionPolicy())
    core.policy.limit_rows = rows
    with pytest.raises(TypeError, match=match):
        core.run(200)
    core.detach()


@pytest.mark.parametrize("backend", ("object", "cext"))
@pytest.mark.parametrize("policy", ("dcra", "mlp_dcra", "static",
                                    "learning"))
def test_a_partition_never_arms_the_stall_latch(backend, policy):
    """The stall-verdict latch replays "every ready head is blocked by a
    full shared resource" while no resource is released, which holds
    only without a dispatch cap: a partition's verdict changes with any
    co-runner's state.  ``icount`` on the same run arms it."""
    if backend == "cext" and cext.load_cext_core() is None:
        pytest.skip("cext backend not buildable here")
    cls = SMTCore if backend == "object" else cext.CextCore
    cfg = scaled_config(num_threads=4, rob_size=240, lsq_size=8)
    names = ("galgel", "mgrid", "galgel", "equake")
    for name, armed in ((policy, False), ("icount", True)):
        core = cls(cfg, [trace_for(n, cfg, t) for t, n in enumerate(names)],
                   make_policy(name))
        core.run(1_500)
        assert (core._stall_latch_epoch != -1) == armed, name
        core.detach()


class _Bogus(FetchPolicy):
    __slots__ = ()
    partition = "columns"


class _Duck:
    """Declares a partition without being a ``FetchPolicy``, whose slots
    hold a partition's data: the object engine reads its attribute, the
    compiled loop refuses it."""

    name = "duck"
    partition = "rows"
    on_fetch_loads_only = False
    core_class = None
    fetch_order = FetchPolicy.fetch_order
    fetch_pending = FetchPolicy.fetch_pending
    on_fetch = FetchPolicy.on_fetch
    on_ll_detect = FetchPolicy.on_ll_detect
    on_load_complete = FetchPolicy.on_load_complete
    can_dispatch = FetchPolicy.can_dispatch
    on_resource_stall = FetchPolicy.on_resource_stall

    def attach(self, core):
        self.core = core
        self.limit_rows = [(40, 8, 8, 8, 16, 16)] * core.cfg.num_threads


def test_an_unknown_partition_form_is_refused():
    with pytest.raises(ValueError, match="unknown partition 'columns'"):
        _attached(_Bogus(), core_cls=SMTCore)


@needs_cext
def test_a_partition_outside_a_fetch_policy_fails_on_cext():
    core = _attached(_Duck(), core_cls=SMTCore)
    core.run(300)
    assert max(ts.rob_count for ts in core.threads) <= 40
    core.detach()
    core = _attached(_Duck())
    with pytest.raises(TypeError, match="must be a FetchPolicy"):
        core.run(300)
    core.detach()
