"""Differential test: every registered engine against the object engine.

The golden matrix pins 34 fixed cells: the default config, seed 0, one
budget.  This test draws random cells instead — any registered policy
with its default kwargs, 1-4 threads, a trace seed, a 200-800
instruction budget and a perturbed :class:`~repro.config.SMTConfig` —
and asserts that every registered backend ends in the same
:class:`~repro.pipeline.CoreStats` and cycle as the object engine.

The perturbations reach knobs the golden matrix never sets but Table I
and the ablations do: ``memory.serialize_long_latency``,
``memory.cancel_squashed_fills``, ``predictors.dependence_aware`` and
``llsr_length_override``, plus the window sizes, widths, write buffer,
prefetcher and ``fast_forward``.  A failure shrinks to one cell,
printed as a ``repro.runspec/2`` document that ``python -m repro run``
replays.

The deep variant draws the same cells at 5,000-8,000 commits, long
enough for the dependent long-latency loads that ``dependence_aware``
acts on to show up beyond mcf and equake.  It is marked ``deep`` and
left out of tier-1; the nightly ``reproduce`` workflow runs it with
``python -m pytest -m deep tests/test_differential.py``.

Table I is checked on its own: its profile reads the LLSR's measured
MLP distances and the predictors' accuracies, which neither
``CoreStats`` nor the golden snapshot holds.
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

#: Every ROB size here splits evenly across 1, 2, 3 or 4 threads.
_ROB_SIZES = (48, 96, 192, 240)


@st.composite
def cells(draw, commits=st.integers(200, 800)) -> RunSpec:
    threads = draw(st.integers(1, 4))
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
        rob_size=draw(st.sampled_from(_ROB_SIZES)),
        lsq_size=draw(st.sampled_from((16, 48, 128))),
        int_iq_size=draw(st.sampled_from((8, 24, 64))),
        fp_iq_size=draw(st.sampled_from((8, 24, 64))),
        fetch_max_threads=draw(st.integers(1, 4)),
        fetch_width=draw(st.sampled_from((2, 4, 8))),
        decode_width=draw(st.sampled_from((2, 4))),
        issue_width=draw(st.sampled_from((2, 4, 6))),
        commit_width=draw(st.sampled_from((2, 4))),
        write_buffer_entries=draw(st.sampled_from((1, 2, 8))),
        llsr_length_override=draw(st.sampled_from((None, 8, 32, 128))),
        fast_forward=draw(st.booleans()),
        memory=memory,
        predictors=PredictorConfig(dependence_aware=draw(st.booleans())))
    return RunSpec(workload=workload, config=config,
                   policy=draw(st.sampled_from(registry.policies.names())),
                   max_commits=draw(commits),
                   warmup=draw(st.sampled_from((0, 100, 300))),
                   seed=draw(st.sampled_from((0, 3, 17))))


def _single(name: str, policy: str, **config) -> RunSpec:
    return RunSpec((name,), replace(scaled_config(num_threads=1), **config),
                   policy, max_commits=800, warmup=300)


def _outcome(spec: RunSpec) -> tuple[dict, int]:
    stats, core = Session(store=None).simulate(spec)
    return asdict(stats), core.cycle


@settings(max_examples=45, deadline=None)
@given(spec=cells())
# Random draws this short rarely meet a long-latency load that depends
# on another, which is all ``dependence_aware`` acts on; mcf has them.
@example(spec=_single("mcf", "mlp_flush",
                      predictors=PredictorConfig(dependence_aware=True)))
# The Table I serialized run, with the Figure 4 LLSR.
@example(spec=_single("swim", "icount", llsr_length_override=128,
                      memory=replace(scaled_memory(),
                                     serialize_long_latency=True)))
def test_every_backend_matches_the_object_engine(spec):
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
