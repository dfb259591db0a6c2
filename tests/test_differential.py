"""Differential test: every registered engine against the object engine.

The golden matrix pins 34 fixed cells: the default config, seed 0, one
budget.  This test draws random cells instead — any registered policy
without a core of its own (``dcra``, ``mlp_dcra`` and ``learning`` with
drawn kwargs, the others with their defaults), 1-4 threads, a trace
seed, a 200-800 instruction budget and a perturbed
:class:`~repro.config.SMTConfig` — and asserts that every registered
backend ends in the same :class:`~repro.pipeline.CoreStats` and cycle
as the object engine.  A second test draws only the policies that
declare a dispatch partition (``static``, ``learning``, ``dcra`` and
``mlp_dcra``), of 1-8 threads: the compiled engine applies their
limits in C, from the policy's ``limit_rows`` or ``slow_weights``.

The perturbations reach knobs the golden matrix never sets but Table I
and the ablations do: ``memory.serialize_long_latency``,
``memory.cancel_squashed_fills``, ``predictors.dependence_aware`` and
``llsr_length_override``, plus the window sizes and rename registers,
widths, write buffer, prefetcher and ``fast_forward``, ``dcra``'s
``slow_weight`` (an int too), ``mlp_dcra``'s ``ema_alpha`` and
``learning``'s epoch length, metric and step, and the
front end: the long-latency load predictor's kind, table and counter
sizes (up to 64-bit counters), the MLP tables, gshare and the BTB's
size and ways.  A
failure shrinks to one cell, printed as a ``repro.runspec/2`` document
that ``python -m repro run`` replays.

The deep variant draws the same cells at 5,000-8,000 commits, long
enough for the dependent long-latency loads that ``dependence_aware``
acts on to show up beyond mcf and equake.  It is marked ``deep`` and
left out of tier-1; the nightly ``reproduce`` workflow runs it with
``python -m pytest -m deep tests/test_differential.py``.

Table I is checked on its own: its profile reads the LLSR's measured
MLP distances and the predictors' accuracies, which neither
``CoreStats`` nor the golden snapshot holds.

Runahead (``runahead`` and ``mlp_runahead``) is not drawn: its
policies name a ``core_class``, :class:`~repro.runahead.RunaheadCore`,
an object-engine subclass that ``core_for`` picks ahead of the
backend, so a cell of it would compare a run with itself.  Runahead is
object-only until it runs on the compiled engine too; golden's two
runahead cells and ``tests/test_runahead.py`` cover it.
"""

from __future__ import annotations

from dataclasses import asdict, replace

from hypothesis import example, given, note, settings
from hypothesis import strategies as st
import pytest

from repro import registry
from repro.api import RunSpec, Session
from repro.config import (
    PredictorConfig,
    PrefetcherConfig,
    SMTConfig,
    scaled_config,
    scaled_memory,
)
from repro.experiments.characterize import characterize
from repro.experiments.profile import clear_profile_cache, profile_benchmark
from repro.experiments.runner import default_backend
from repro.predictors import LLL_PREDICTORS

#: Every ROB size here splits evenly across 1, 2, 3 or 4 threads; a
#: cell of more threads rounds it down to a multiple of their number.
_ROB_SIZES = (48, 96, 192, 240)

_SLOW_WEIGHTS = st.sampled_from((1.0, 1.5, 2, 3.7))

#: The kwargs drawn for a policy; any other runs with its defaults.
_POLICY_KWARGS = {
    "dcra": st.fixed_dictionaries({"slow_weight": _SLOW_WEIGHTS}),
    "mlp_dcra": st.fixed_dictionaries({
        "slow_weight": _SLOW_WEIGHTS,
        "ema_alpha": st.sampled_from((0.05, 0.25, 0.6, 1.0))}),
    "learning": st.fixed_dictionaries({
        "epoch_cycles": st.sampled_from((10, 50, 500)),
        "metric": st.sampled_from(("throughput", "hmean")),
        "step": st.sampled_from((0.05, 0.2, 0.45))}),
}

#: The policies that declare a dispatch partition.
_PARTITIONED = ("static", "learning", "dcra", "mlp_dcra")


#: The registered policies that run on every engine: those without a
#: ``core_class`` of their own.
_ENGINE_POLICIES = tuple(name for name, cls in registry.policies.items()
                         if cls.core_class is None)


@st.composite
def cells(draw, commits=st.integers(200, 800),
          thread_counts=st.integers(1, 4),
          policies: tuple[str, ...] | None = None) -> RunSpec:
    threads = draw(thread_counts)
    rob_size = draw(st.sampled_from(_ROB_SIZES))
    workload = tuple(draw(st.lists(
        st.sampled_from(registry.benchmarks.names()),
        min_size=threads, max_size=threads)))
    memory = replace(
        scaled_memory(),
        prefetcher=PrefetcherConfig(enabled=draw(st.booleans())),
        serialize_long_latency=draw(st.booleans()),
        cancel_squashed_fills=draw(st.booleans()))
    config = SMTConfig(
        num_threads=threads,
        rob_size=rob_size - rob_size % threads,
        lsq_size=draw(st.sampled_from((16, 48, 128))),
        int_iq_size=draw(st.sampled_from((8, 24, 64))),
        fp_iq_size=draw(st.sampled_from((8, 24, 64))),
        int_rename_regs=draw(st.sampled_from((16, 48, 100))),
        fp_rename_regs=draw(st.sampled_from((16, 48, 100))),
        fetch_max_threads=draw(st.integers(1, 4)),
        fetch_width=draw(st.sampled_from((2, 4, 8))),
        decode_width=draw(st.sampled_from((2, 4))),
        issue_width=draw(st.sampled_from((2, 4, 6))),
        commit_width=draw(st.sampled_from((2, 4))),
        write_buffer_entries=draw(st.sampled_from((1, 2, 8))),
        llsr_length_override=draw(st.sampled_from((None, 8, 32, 128))),
        fast_forward=draw(st.booleans()),
        gshare_entries=draw(st.sampled_from((64, 2_048, 16_384))),
        btb_entries=draw(st.sampled_from((32, 256, 1_024))),
        btb_assoc=draw(st.sampled_from((1, 4, 8))),
        memory=memory,
        predictors=PredictorConfig(
            lll_kind=draw(st.sampled_from(sorted(LLL_PREDICTORS))),
            lll_counter_bits=draw(st.sampled_from((2, 6, 16, 64))),
            lll_entries=draw(st.sampled_from((64, 2_048))),
            mlp_entries=draw(st.sampled_from((64, 2_048))),
            dependence_aware=draw(st.booleans())))
    policy = draw(st.sampled_from(policies or _ENGINE_POLICIES))
    return RunSpec(workload=workload, config=config, policy=policy,
                   policy_kwargs=draw(_POLICY_KWARGS.get(policy, st.just({}))),
                   max_commits=draw(commits),
                   warmup=draw(st.sampled_from((0, 100, 300))),
                   seed=draw(st.sampled_from((0, 3, 17))))


def _single(name: str, policy: str, **config) -> RunSpec:
    return RunSpec((name,), replace(scaled_config(num_threads=1), **config),
                   policy, max_commits=800, warmup=300)


def _mix(names: tuple[str, ...], policy: str, policy_kwargs=None,
         **config) -> RunSpec:
    return RunSpec(names, SMTConfig(num_threads=len(names),
                                    memory=scaled_memory(), **config),
                   policy, policy_kwargs=policy_kwargs or {},
                   max_commits=800, warmup=100)


def _outcome(spec: RunSpec) -> tuple[dict, int]:
    stats, core = Session(store=None).simulate(spec)
    return asdict(stats), core.cycle


@settings(max_examples=45, deadline=None)
@given(spec=cells())
# Random draws this short rarely meet a long-latency load that depends
# on another, which is all ``dependence_aware`` acts on; mcf has them.
@example(spec=_single("mcf", "mlp_flush",
                      predictors=PredictorConfig(dependence_aware=True)))
# The Section 4.1 two-bit load predictor, whose counters saturate at 3.
@example(spec=_single("mcf", "mlp_flush",
                      predictors=PredictorConfig(lll_kind="two_bit")))
# The Table I serialized run, with the Figure 4 LLSR.
@example(spec=_single("swim", "icount", llsr_length_override=128,
                      memory=replace(scaled_memory(),
                                     serialize_long_latency=True)))
def test_every_backend_matches_the_object_engine(spec):
    _assert_backends_agree(spec)


@settings(max_examples=40, deadline=None)
@given(spec=cells(thread_counts=st.integers(1, 8), policies=_PARTITIONED))
# Floors, not thirds: LSQ, issue queue and register sizes that three
# threads do not divide.
@example(spec=_mix(("mcf", "swim", "art"), "static", rob_size=96,
                   lsq_size=16, int_iq_size=8, fp_iq_size=8,
                   int_rename_regs=16, fp_rename_regs=16))
# An epoch every ten cycles: its attempt applies the epoch's new limits.
@example(spec=_mix(("mcf", "gzip"), "learning", {"epoch_cycles": 10},
                   rob_size=96, lsq_size=16))
def test_dcra_gates_match_the_object_engine(spec):
    _assert_backends_agree(spec)


@pytest.mark.deep
@settings(max_examples=100, deadline=None)
@given(spec=cells(commits=st.integers(5_000, 8_000)))
def test_every_backend_matches_the_object_engine_deep(spec):
    _assert_backends_agree(spec)


def _assert_backends_agree(spec: RunSpec) -> None:
    note(spec.to_json())
    expected = _outcome(spec.with_(backend="object"))
    for backend in registry.backends.names():
        if backend != "object":
            assert _outcome(spec.with_(backend=backend)) == expected, \
                f"{backend} diverges from object"


_TABLE1_NAMES = ("mcf", "swim", "lucas")


def _table1() -> tuple[list, list]:
    clear_profile_cache()
    rows = characterize(list(_TABLE1_NAMES), max_commits=1_000)
    profiles = [profile_benchmark(name, max_commits=1_000)
                for name in _TABLE1_NAMES]
    clear_profile_cache()
    return rows, profiles


@pytest.mark.skipif("cext" not in registry.backends,
                    reason="cext backend not buildable here")
def test_table1_is_identical_on_the_default_engine(request):
    assert default_backend() == "cext"
    on_default = _table1()
    request.getfixturevalue("without_cext")
    assert default_backend() == "object"
    assert _table1() == on_default
