"""The compiled engine's native front end, against its Python classes.

A ``CextCore``'s gshare, BTB and per-thread long-latency load,
MLP-distance and binary-MLP predictors are the engine's native types
(``_cext_engine.GShare``, ``BTB``, ``MissPatternPredictor``,
``LastValuePredictor``, ``TwoBitMissPredictor``,
``MLPDistancePredictor`` and ``BinaryMLPPredictor``): the Python
classes' constructors, methods, defaults, counters and results over
int64 tables in C memory, for every kind and size.  Golden snapshots
record stats, never predictor counters, so the differential here
drives each native type next to its Python class call for call and
compares every result, every counter and the table (``state()``) after
each step (the native ``LLSR`` has its own in ``test_cext_paths.py``).
The whole-run tests check that a cext core builds no Python part, LLSR
included, for every load predictor kind and for sizes past the old
16-bit tables, and that its run makes no Python predictor, LLSR,
MLP-training or fetch-order call; that a Python hierarchy, gshare, BTB,
thread LLSR or predictor (or a subclass) put on a cext core is
refused; and that a policy with its own fetch order still runs through
its Python method with the object engine's results.  The profile
behind Figures 4 and 6-8 is checked across engines and seeds.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import asdict, replace
import hashlib
import json
from pathlib import Path
import re

from hypothesis import example, given, settings
from hypothesis import strategies as st
import pytest

from repro.branch import BTB, GShare
from repro.config import PredictorConfig, scaled_config
from repro.experiments import profile as profile_module
from repro.experiments.defaults import characterization_config
from repro.experiments.profile import clear_profile_cache, profile_benchmark
from repro.experiments.runner import trace_for
from repro.memory.hierarchy import MemoryHierarchy
from repro.perf.golden import golden_matrix, snapshot_cell
from repro.pipeline import cext
from repro.pipeline.core import SMTCore
from repro.pipeline.thread_state import ThreadState
from repro.policies import make_policy
from repro.policies.base import FetchPolicy
from repro.predictors import (
    LLL_PREDICTORS,
    LLSR,
    BinaryMLPPredictor,
    LastValuePredictor,
    MissPatternPredictor,
    MLPDistancePredictor,
    TwoBitMissPredictor,
)

from conftest import StubTrace, alu, branch, needs_cext

pytestmark = needs_cext

_FIXTURE = Path(__file__).parent / "golden" / "golden_stats.json"

#: PCs near the traces' code base (2**20) and around zero, negatives
#: too, mostly from a small pool so that the small tables see repeats.
_PCS = st.one_of(
    st.sampled_from((0, 1, 5, 17, -1, -6, 2**20, 2**20 + 3, 2**20 + 16,
                     2**63 - 1, -2**63)),
    st.integers(-40, 40), st.integers(2**20 - 40, 2**20 + 40),
    st.integers(-2**63, 2**63 - 1))


def _engine():
    return cext._engine()


# ---------------------------------------------------------------------- #
# each native type against its Python class
# ---------------------------------------------------------------------- #

def _load_state(p) -> dict:
    """A Python load predictor's table without the entries that act as
    untrained ones (the native ``state()`` leaves those out): a miss
    pattern entry at (-1, 0), a False last value, a zero counter."""
    if isinstance(p, MissPatternPredictor):
        return {i: (e.period, e.since) for i, e in p._table.items()
                if (e.period, e.since) != (-1, 0)}
    return {i: v for i, v in p._table.items() if v}


#: Counter widths: the small ones saturate within a test, the rest (up
#: to past int64) hold every count.
_COUNTER_BITS = st.one_of(st.integers(0, 7), st.integers(8, 80))


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(sorted(LLL_PREDICTORS)),
       entries=st.integers(1, 16), bits=_COUNTER_BITS,
       ops=st.lists(st.tuples(st.booleans(), _PCS, st.booleans()),
                    max_size=80))
# A saturated period (the run of hits outgrew the counter) predicts no
# miss, even when the hits since match it again.
@example(kind="miss_pattern", entries=1, bits=1,
         ops=[(False, 3, False), (False, 3, True), (False, 3, False),
              (True, 3, False)])
# Three misses in a row: the two-bit counter saturates at 3, so one hit
# still leaves it predicting a miss.
@example(kind="two_bit", entries=1, bits=2,
         ops=[(False, 3, True)] * 3 + [(False, 3, False), (True, 3, False)])
# A period of 2**16 hits between misses, past a 16-bit table.
@example(kind="miss_pattern", entries=1, bits=64,
         ops=[(False, 3, True)] + [(False, 3, False)] * 2**16
         + [(False, 3, True)] + [(False, 3, False)] * 2**16
         + [(True, 3, False)])
def test_miss_pattern_matches_python(kind, entries, bits, ops):
    """The miss pattern and the two alternatives of Section 4.1, with
    the load-predictor kind drawn as an input."""
    cls = LLL_PREDICTORS[kind]
    ref = cls(entries, bits)
    nat = getattr(_engine(), cls.__name__)(entries, counter_bits=bits)
    for is_predict, pc, outcome in ops:
        if is_predict:
            assert nat.predict(pc) is ref.predict(pc)
        else:
            assert nat.train(pc, outcome) is ref.train(pc, outcome)
        assert (nat.lookups, nat.predicted_ll) == (ref.lookups,
                                                   ref.predicted_ll)
        assert nat.state() == _load_state(ref)


#: MLP distances: small ones, ones around the old 16-bit table's bounds,
#: and any int64.
_DISTANCES = st.one_of(
    st.integers(-5, 60), st.integers(32_760, 32_775),
    st.integers(-32_775, -32_760), st.integers(-2**63, 2**63 - 1))


@settings(max_examples=300, deadline=None)
@given(entries=st.integers(1, 16),
       max_distance=st.one_of(st.integers(1, 40),
                              st.integers(32_760, 32_775),
                              st.integers(1, 2**63 - 1)),
       ops=st.lists(st.tuples(st.sampled_from(("predict", "default",
                                               "train")),
                              _PCS, _DISTANCES),
                    max_size=80))
@example(entries=1, max_distance=2**63 - 1,
         ops=[("train", 3, -2**63), ("predict", 3, 0),
              ("train", 3, 2**63 - 1), ("default", 3, 0),
              ("train", 4, 40_000)])
def test_mlp_distance_matches_python(entries, max_distance, ops):
    ref = MLPDistancePredictor(entries, max_distance)
    nat = _engine().MLPDistancePredictor(entries, max_distance=max_distance)
    missing = object()
    names = ("true_pos", "true_neg", "false_pos", "false_neg", "far_enough",
             "too_short", "lookups", "updates", "binary_accuracy",
             "distance_accuracy")
    for op, pc, distance in ops:
        if op == "predict":
            assert nat.predict(pc) == ref.predict(pc)
        elif op == "default":
            got = nat.predict(pc, default=missing)
            want = ref.predict(pc, missing)
            assert got is want if want is missing else got == want
        else:
            assert nat.train(pc, distance) is ref.train(pc, distance)
        for name in names:
            assert getattr(nat, name) == getattr(ref, name), name
        assert (nat.classification_fractions()
                == ref.classification_fractions())
        assert nat.state() == ref._table


@settings(max_examples=150, deadline=None)
@given(entries=st.integers(1, 16),
       ops=st.lists(st.tuples(st.booleans(), _PCS, st.integers(-3, 3)),
                    max_size=60))
def test_binary_mlp_matches_python(entries, ops):
    ref = BinaryMLPPredictor(entries)
    nat = _engine().BinaryMLPPredictor(entries=entries)
    for is_predict, pc, distance in ops:
        if is_predict:
            assert nat.predict(pc) is ref.predict(pc)
        else:
            assert nat.train(pc, distance) is ref.train(pc, distance)
        assert nat.lookups == ref.lookups
        assert nat.state() == ref._table


@settings(max_examples=200, deadline=None)
@given(log2=st.integers(0, 6), threads=st.integers(1, 4),
       ops=st.lists(st.tuples(st.booleans(), _PCS,
                              st.one_of(st.booleans(), st.integers(0, 2)),
                              st.one_of(st.none(), st.integers(-4, 3))),
                    max_size=80))
def test_gshare_matches_python(log2, threads, ops):
    ref = GShare(1 << log2, threads)
    nat = _engine().GShare(1 << log2, num_threads=threads)
    for is_update, pc, taken, thread in ops:
        if thread is not None and not -threads <= thread < threads:
            for g in (ref, nat):
                with pytest.raises(IndexError):
                    g.predict(pc, thread)
            continue
        kw = {} if thread is None else {"thread": thread}
        if is_update:
            assert nat.update(pc, taken, **kw) is ref.update(pc, taken, **kw)
        else:
            assert nat.predict(pc, **kw) is ref.predict(pc, **kw)
        assert (nat.predictions, nat.mispredictions, nat.accuracy) \
            == (ref.predictions, ref.mispredictions, ref.accuracy)
        assert nat.state() == {"table": ref._table,
                               "history": ref._history}


@settings(max_examples=200, deadline=None)
@given(sets=st.integers(1, 8), assoc=st.integers(1, 4),
       ops=st.lists(st.tuples(st.booleans(), _PCS), max_size=80))
def test_btb_matches_python(sets, assoc, ops):
    ref = BTB(sets * assoc, assoc)
    nat = _engine().BTB(sets * assoc, assoc=assoc)
    for is_lookup, pc in ops:
        if is_lookup:
            assert nat.lookup(pc) is ref.lookup(pc)
        else:
            assert nat.insert(pc) is ref.insert(pc)
        assert (nat.hits, nat.misses) == (ref.hits, ref.misses)
        assert nat.state() == [list(s) for s in ref._sets]


def test_defaults_and_keywords_match_python():
    """Default sizes (2,048-entry tables, a 256-entry 4-way BTB) and
    default and keyword arguments as on the Python classes."""
    engine = _engine()
    mp, nmp = MissPatternPredictor(), engine.MissPatternPredictor()
    for p in (mp, nmp):
        p.train(pc=2048 + 7, long_latency=True)
    assert nmp.predict(pc=7) is mp.predict(7) is True
    assert nmp.state() == _load_state(mp) == {7: (0, 0)}
    for cls in (LastValuePredictor, TwoBitMissPredictor):
        # both classes ignore counter_bits
        ref, nat = (c(counter_bits="unused")
                    for c in (cls, getattr(engine, cls.__name__)))
        for p in (ref, nat):
            p.train(pc=2048 + 7, long_latency=True)
            p.train(2048 + 7, True)
        assert nat.predict(pc=7) is ref.predict(7) is True
        assert nat.state() == _load_state(ref)
    md, nmd = MLPDistancePredictor(), engine.MLPDistancePredictor()
    assert nmd.predict(3) == md.predict(3) == 0
    assert nmd.predict(3, default=None) is md.predict(3, None) is None
    bm, nbm = BinaryMLPPredictor(), engine.BinaryMLPPredictor()
    for p in (bm, nbm):
        p.train(2048 + 1, distance=0)
    assert nbm.predict(pc=1) is bm.predict(1) is False
    g, ng = GShare(), engine.GShare()
    assert ng.update(5, taken=True) is g.update(5, True)
    assert ng.predict(5, thread=0) is g.predict(5)
    assert (ng.predictions, ng.accuracy) == (g.predictions, g.accuracy)
    b, nb = BTB(), engine.BTB()
    b.insert(9)
    nb.insert(pc=9)
    assert nb.lookup(9 + 64) is b.lookup(9 + 64) is False
    assert nb.state()[9] == [list(s) for s in b._sets][9] == [9]
    with pytest.raises(TypeError):
        nmp.predict(1, pc=1)
    with pytest.raises(TypeError):
        nmd.train(1)
    with pytest.raises(TypeError):
        ng.update(1, True, 0, 0)


def test_counters_read_and_assign():
    engine = _engine()
    nat = engine.MLPDistancePredictor(8)
    nat.true_pos = 3
    nat.false_neg = 1
    assert (nat.updates, nat.binary_accuracy) == (4, 0.75)
    for obj, name in ((engine.MissPatternPredictor(), "lookups"),
                      (engine.LastValuePredictor(), "predicted_ll"),
                      (engine.TwoBitMissPredictor(), "lookups"),
                      (engine.GShare(), "mispredictions"),
                      (engine.BTB(), "hits"),
                      (engine.BinaryMLPPredictor(), "lookups")):
        setattr(obj, name, 2**40)
        assert getattr(obj, name) == 2**40
        with pytest.raises(AttributeError):
            delattr(obj, name)
        with pytest.raises(OverflowError):
            setattr(obj, name, 2**64)


@pytest.mark.parametrize("cls, args, exc", [
    ("MissPatternPredictor", (0,), ValueError),
    ("MissPatternPredictor", (-3,), ValueError),
    ("MissPatternPredictor", (8, -1), ValueError),
    ("MLPDistancePredictor", (0,), ValueError),
    ("MLPDistancePredictor", (8, 0), ValueError),
    ("BinaryMLPPredictor", (0,), ValueError),
    ("GShare", (0,), ValueError),
    ("GShare", (24,), ValueError),
    ("GShare", (16, 0), ValueError),
    ("BTB", (10, 4), ValueError),
    ("BTB", (256, 0), ZeroDivisionError),
    ("LastValuePredictor", (0,), ValueError),
    ("TwoBitMissPredictor", (-1, 2), ValueError),
])
def test_constructor_errors_match_python(cls, args, exc):
    python = {"MissPatternPredictor": MissPatternPredictor,
              "LastValuePredictor": LastValuePredictor,
              "TwoBitMissPredictor": TwoBitMissPredictor,
              "MLPDistancePredictor": MLPDistancePredictor,
              "BinaryMLPPredictor": BinaryMLPPredictor,
              "GShare": GShare, "BTB": BTB}[cls]
    with pytest.raises(exc) as want:
        python(*args)
    with pytest.raises(exc) as got:
        getattr(_engine(), cls)(*args)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("cls, args, exc", [
    ("MissPatternPredictor", (8, 2**63), OverflowError),  # past int64
    ("MissPatternPredictor", (2**64,), OverflowError),
    ("MLPDistancePredictor", (8, 2**63), OverflowError),
    ("GShare", (2**70,), OverflowError),
    ("BTB", (0, 4), ValueError),                         # no set
])
def test_sizes_the_native_tables_cannot_hold(cls, args, exc):
    with pytest.raises(exc):
        getattr(_engine(), cls)(*args)


def test_values_outside_int64_raise():
    engine = _engine()
    for call in (lambda: engine.MissPatternPredictor().predict(2**63),
                 lambda: engine.TwoBitMissPredictor().train(-2**63 - 1, 1),
                 lambda: engine.GShare().update(-2**64, True),
                 lambda: engine.BTB().insert(2**70),
                 lambda: engine.MLPDistancePredictor().train(1, 2**63)):
        with pytest.raises(OverflowError):
            call()


# ---------------------------------------------------------------------- #
# what a CextCore installs
# ---------------------------------------------------------------------- #

def _core(cfg, names=("mcf", "gzip"), policy="icount"):
    traces = [trace_for(n, cfg, t) for t, n in enumerate(names)]
    return cext.CextCore(cfg, traces, make_policy(policy))


def test_cext_core_installs_the_native_types():
    engine = _engine()
    core = _core(scaled_config(num_threads=2))
    assert type(core.gshare) is engine.GShare
    assert type(core.btb) is engine.BTB
    for ts in core.threads:
        assert type(ts.lll_pred) is engine.MissPatternPredictor
        assert type(ts.mlp_pred) is engine.MLPDistancePredictor
        assert type(ts.binary_mlp) is engine.BinaryMLPPredictor
        assert type(ts.llsr) is engine.LLSR
        assert (ts.llsr.length, ts.llsr.exclude_dependent) \
            == (core.cfg.llsr_length, False)
    core.detach()


def _fixture_cells() -> list:
    """The 32 non-runahead golden cells and the fixture's snapshots."""
    fixture = json.loads(_FIXTURE.read_text())["cells"]
    cells = [sc for sc in golden_matrix() if "runahead" not in sc.policy]
    assert len(cells) == 32
    return [(sc, fixture[sc.name]) for sc in cells]


#: Every load predictor kind, counters past 16 bits, and an LLSR (so
#: MLP distances) past 32,767 entries.
_KINDS_AND_SIZES = [
    *(scaled_config(num_threads=2, predictors=PredictorConfig(lll_kind=k))
      for k in sorted(LLL_PREDICTORS)),
    scaled_config(num_threads=2,
                  predictors=PredictorConfig(lll_counter_bits=16)),
    scaled_config(num_threads=2, llsr_length_override=40_000),
]


def test_cext_core_builds_no_python_part(monkeypatch):
    """With the Python parts' constructors refusing, the 32 non-runahead
    golden cells still match the fixture on cext, and every load
    predictor kind and the sizes past the old 16-bit tables run as on
    the object engine: a CextCore builds every part native from the
    config, never a Python one."""
    want = [_run(SMTCore, cfg, make_policy("mlp_flush"), commits=800)
            for cfg in _KINDS_AND_SIZES]

    def refuse(self, *args, **kwargs):
        raise AssertionError(f"a Python {type(self).__name__} on cext")

    for cls in (MemoryHierarchy, GShare, BTB, MissPatternPredictor,
                LastValuePredictor, TwoBitMissPredictor,
                MLPDistancePredictor, BinaryMLPPredictor, LLSR):
        monkeypatch.setattr(cls, "__init__", refuse)
    for sc, snapshot in _fixture_cells():
        assert snapshot_cell(sc, backend="cext") == snapshot
    for cfg, outcome in zip(_KINDS_AND_SIZES, want, strict=True):
        assert _run(cext.CextCore, cfg, make_policy("mlp_flush"),
                    commits=800) == outcome


class _MissPatternSubclass(MissPatternPredictor):
    __slots__ = ()


@pytest.mark.parametrize("part", ("hierarchy", "gshare", "btb", "llsr",
                                  "lll_pred", "lll_pred-subclass",
                                  "mlp_pred", "binary_mlp"))
def test_cext_core_refuses_python_parts(part):
    """The loop runs only the native parts: another object there (a
    thread's part on the second thread) fails the run, and a flush on
    a Python hierarchy, with a TypeError that points at the object
    engine."""
    cfg = scaled_config(num_threads=2)
    core = _core(cfg)
    python = {
        "hierarchy": lambda: MemoryHierarchy(cfg.memory),
        "gshare": lambda: GShare(cfg.gshare_entries, cfg.num_threads),
        "btb": lambda: BTB(cfg.btb_entries, cfg.btb_assoc),
        "llsr": lambda: LLSR(cfg.llsr_length, core.threads[1]._train_mlp),
        "lll_pred": TwoBitMissPredictor,
        "lll_pred-subclass": _MissPatternSubclass,
        "mlp_pred": MLPDistancePredictor,
        "binary_mlp": BinaryMLPPredictor}[part]()
    part = part.removesuffix("-subclass")
    if hasattr(core, part):
        setattr(core, part, python)
    else:
        setattr(core.threads[1], part, python)
        part = f"threads[1].{part}"
    refused = (rf"core\.{re.escape(part)} must be the cext engine's .* run "
               "other models on backend 'object'")
    with pytest.raises(TypeError, match=refused):
        core.run(500)
    if part == "hierarchy":
        with pytest.raises(TypeError, match=refused):
            core.flush_thread(core.threads[0], -1)
    core.detach()


# ---------------------------------------------------------------------- #
# whole runs
# ---------------------------------------------------------------------- #

def test_int_taken_runs_alike_on_both_engines():
    """Branches whose ``taken`` is the int 1 or 0: Instr stores
    ``bool(taken)``, so both engines predict, look up and stall on the
    same branches."""
    cfg = scaled_config(num_threads=1)
    body = [branch(pc, int(pc % 16 != 7)) if pc % 4 == 3
            else alu(pc, dest=4 + pc % 8, srcs=(4 + (pc + 3) % 8,))
            for pc in range(64)]
    outcomes = []
    for cls in (SMTCore, cext.CextCore):
        core = cls(cfg, [StubTrace(body)], make_policy("icount"))
        core.run(3_000)
        outcomes.append((asdict(core.stats), core.cycle, core.btb.hits,
                         core.btb.misses))
        core.detach()
    assert outcomes[1] == outcomes[0]
    assert outcomes[0][2] > 0            # the taken branches hit the BTB


def test_native_run_makes_no_python_front_end_call(monkeypatch):
    """With every Python predictor, LLSR.commit, ThreadState._train_mlp
    and FetchPolicy.fetch_order refusing, the 32 non-runahead golden
    cells still match the fixture on cext: none of them runs."""
    def refuse(*args, **kwargs):
        raise AssertionError("a Python front-end call on the native path")

    def refuse_order(self, cycle):
        raise AssertionError("a Python fetch_order call on the base order")

    refuse_order._is_base_impl = True       # the base order's marker
    for cls, names in ((MissPatternPredictor, ("predict", "train")),
                       (MLPDistancePredictor, ("predict", "train")),
                       (BinaryMLPPredictor, ("predict", "train")),
                       (GShare, ("predict", "update")),
                       (BTB, ("lookup", "insert")),
                       (LLSR, ("commit", "commit_zeros")),
                       (ThreadState, ("_train_mlp",))):
        for name in names:
            monkeypatch.setattr(cls, name, refuse)
    monkeypatch.setattr(FetchPolicy, "fetch_order", refuse_order)
    for sc, want in _fixture_cells():
        assert snapshot_cell(sc, backend="cext") == want


class _ReversedTidOrder(FetchPolicy):
    """ICOUNT over the fetchable unstalled threads, ties to the higher
    tid: its own fetch order, so it runs through the Python call."""

    __slots__ = ()
    name = "reversed_tid"

    def fetch_order(self, cycle):
        core = self.core
        ready = [ts for ts in reversed(core.threads)
                 if core.fetchable(ts, cycle) and not ts.policy_stalled]
        ready.sort(key=lambda ts: ts.icount)
        return [(ts, False) for ts in ready]

    def fetch_pending(self, cycle):
        return bool(self.fetch_order(cycle))


def _run(cls, cfg, policy, setup=None, names=("mcf", "gzip"),
         commits=1_500):
    traces = [trace_for(n, cfg, t) for t, n in enumerate(names)]
    core = cls(cfg, traces, policy)
    if setup is not None:
        setup(core)
    core.run(commits, warmup=300)
    out = asdict(core.stats), core.cycle
    core.detach()
    return out


@pytest.mark.parametrize("case", ("own_fetch_order",))
def test_python_front_ends_on_cext_match_object(case):
    cfg = scaled_config(num_threads=2)
    want = _run(SMTCore, cfg, _ReversedTidOrder())
    assert _run(cext.CextCore, cfg, _ReversedTidOrder()) == want


@pytest.mark.parametrize("name", ("mcf", "swim"))
def test_profile_is_identical_on_object_and_cext(name, request):
    """Figures 6-8 read the predictors' counters; golden never does."""
    clear_profile_cache()
    on_cext = profile_benchmark(name, max_commits=2_000)
    assert on_cext.mlp_fractions != {"true_pos": 0.0, "true_neg": 0.0,
                                     "false_pos": 0.0, "false_neg": 0.0}
    request.getfixturevalue("without_cext")
    clear_profile_cache()
    assert profile_benchmark(name, max_commits=2_000) == on_cext
    clear_profile_cache()


#: The profiles before ``profile_benchmark`` took a seed: distances
#: measured, their sum, their digest, measured cycles, Figure 7's and
#: Figure 8's accuracies.
_SEED0_PROFILES = {
    "mcf": (35, 3098, "e60cee97a1f96997", 6396, 0.8407079646017699,
            0.8761061946902655),
    "swim": (32, 2964, "722587e6a6ffb2da", 2704, 0.8650793650793651,
             0.8095238095238095),
}


def _profile_digest(profile) -> tuple:
    d = profile.mlp_distances
    return (len(d), sum(d),
            hashlib.sha256(json.dumps(d).encode()).hexdigest()[:16],
            profile.stats.cycles, profile.mlp_binary_accuracy,
            profile.mlp_distance_accuracy)


@pytest.mark.parametrize("name", ("mcf", "swim"))
def test_profile_seed(name, request):
    """Seed 0 is the profile from before the seed existed; another seed
    profiles another trace of the benchmark, alike on both engines.
    (It moves the run's timing; the measured distances stay the same,
    since which loads miss is fixed by the benchmark's body.)"""
    clear_profile_cache()
    seed0 = profile_benchmark(name, max_commits=2_000)
    assert _profile_digest(seed0) == _SEED0_PROFILES[name]
    assert profile_benchmark(name, max_commits=2_000, seed=0) is seed0
    on_cext = profile_benchmark(name, max_commits=2_000, seed=5)
    assert on_cext.stats.cycles != seed0.stats.cycles
    request.getfixturevalue("without_cext")
    clear_profile_cache()
    assert profile_benchmark(name, max_commits=2_000, seed=5) == on_cext
    assert _profile_digest(profile_benchmark(name, max_commits=2_000)) \
        == _SEED0_PROFILES[name]
    clear_profile_cache()


def test_profile_cache_keys_by_content(monkeypatch):
    """``mem_latency`` 350 and 350.0 compare equal but are different
    configs: the second is profiled under its own key, not served the
    first one's result."""
    clear_profile_cache()
    cfg = characterization_config()
    as_float = replace(cfg, memory=replace(cfg.memory, mem_latency=350.0))
    assert as_float == cfg and as_float.cache_key() != cfg.cache_key()
    first = profile_benchmark("swim", cfg, max_commits=1_000)

    class Simulated(Exception):
        pass

    def simulate(policy):
        raise Simulated

    monkeypatch.setattr(profile_module, "core_for", simulate)
    assert profile_benchmark("swim", cfg, max_commits=1_000) is first
    with pytest.raises(Simulated):
        profile_benchmark("swim", as_float, max_commits=1_000)
    clear_profile_cache()


# ---------------------------------------------------------------------- #
# fetch-order pairs the way the object engine unpacks them
# ---------------------------------------------------------------------- #

_Pair = namedtuple("_Pair", "ts ignore_stall")


class _NamedPairs(FetchPolicy):
    """The base order as namedtuple pairs (a tuple subclass)."""

    __slots__ = ()

    def fetch_order(self, cycle):
        order = super().fetch_order(cycle)
        return [_Pair(*pair) for pair in order]


class _TriplePairs(FetchPolicy):
    __slots__ = ()

    def fetch_order(self, cycle):
        order = super().fetch_order(cycle)
        return [(*pair, None) for pair in order]


class _SinglePairs(FetchPolicy):
    __slots__ = ()

    def fetch_order(self, cycle):
        return [pair[:1] for pair in super().fetch_order(cycle)]


def test_namedtuple_pairs_match_object():
    cfg = scaled_config(num_threads=2)
    want = _run(SMTCore, cfg, _NamedPairs(), commits=1_000)
    assert _run(cext.CextCore, cfg, _NamedPairs(), commits=1_000) == want


@pytest.mark.parametrize("cls", (SMTCore, cext.CextCore))
@pytest.mark.parametrize("policy, message", [
    (_TriplePairs, r"too many values to unpack \(expected 2\)"),
    (_SinglePairs, r"not enough values to unpack \(expected 2, got 1\)"),
])
def test_pairs_of_another_length_raise(cls, policy, message):
    with pytest.raises(ValueError, match=message):
        _run(cls, scaled_config(num_threads=2), policy(), commits=1_000)
