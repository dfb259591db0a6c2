"""Tests for the declarative run-spec layer (repro.api).

Covers construction-time validation (including unknown policy kwargs),
JSON round-tripping across the full policy × thread-count grid, hash
compatibility with the legacy JobSpec keys (the warm-cache guarantee),
Session execution equivalence with the golden matrix, and the
interval-streaming driver.
"""

from __future__ import annotations

import json

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro.api import (
    IntervalSnapshot,
    RunSpec,
    Session,
    SpecError,
    policy_kwarg_names,
    validate_policy_kwargs,
)
from repro.config import config_from_dict, config_to_dict, scaled_config
from repro.jobs import JobSpec, ResultStore
from repro.perf.golden import GOLDEN_POLICIES
from repro.perf.scenarios import scenario_by_name

CFG2 = scaled_config(num_threads=2, scale=16)
COMMITS = 1500
WARMUP = 300

#: Workload pool sliced per thread count for grid tests.
_POOL = ("mcf", "swim", "mgrid", "vortex", "twolf", "equake", "art", "lucas")
_THREAD_COUNTS = (1, 2, 4, 8)


def _spec(policy="icount", threads=2, **kw):
    kw.setdefault("max_commits", COMMITS)
    kw.setdefault("warmup", WARMUP)
    return RunSpec(workload=_POOL[:threads],
                   config=scaled_config(num_threads=threads, scale=16),
                   policy=policy, **kw)


class TestValidation:
    def test_unknown_benchmark(self):
        with pytest.raises(SpecError, match="unknown benchmark"):
            RunSpec(("mcf", "notabench"), CFG2)

    def test_unknown_policy(self):
        with pytest.raises(SpecError, match="unknown policy"):
            RunSpec(("mcf", "swim"), CFG2, "not_a_policy")

    def test_thread_count_mismatch(self):
        with pytest.raises(SpecError, match="2-thread config"):
            RunSpec(("mcf", "swim"),
                    scaled_config(num_threads=4, scale=16))

    def test_unknown_policy_kwarg_names_policy_and_key(self):
        with pytest.raises(SpecError) as exc:
            RunSpec(("mcf", "swim"), CFG2, "dcra",
                    policy_kwargs={"slow_weight": 2.0, "bogus": 1})
        assert "dcra" in str(exc.value)
        assert "bogus" in str(exc.value)
        assert "slow_weight" in str(exc.value)   # the accepted-kwargs hint

    def test_known_policy_kwarg_accepted(self):
        spec = RunSpec(("mcf", "swim"), CFG2, "dcra",
                       policy_kwargs={"slow_weight": 3.0})
        assert spec.policy_kwargs == (("slow_weight", 3.0),)

    def test_kwargless_policy_rejects_everything(self):
        with pytest.raises(SpecError, match="accepts no kwargs"):
            RunSpec(("mcf", "swim"), CFG2, "icount",
                    policy_kwargs={"anything": 1})

    def test_unserializable_kwarg_rejected_at_construction(self):
        with pytest.raises(SpecError, match="no canonical form"):
            RunSpec(("mcf", "swim"), CFG2, "dcra",
                    policy_kwargs={"slow_weight": object()})

    def test_bad_budgets(self):
        with pytest.raises(SpecError, match="max_commits"):
            _spec(max_commits=0)
        with pytest.raises(SpecError, match="warmup"):
            _spec(warmup=-1)
        with pytest.raises(SpecError, match="seed"):
            _spec(seed=-1)

    def test_wrong_typed_fields_raise_spec_error_not_typeerror(self):
        # A hand-edited JSON document is the realistic source of these.
        doc = _spec().to_doc()
        doc["max_commits"] = "1000"
        with pytest.raises(SpecError, match="max_commits must be an"):
            RunSpec.from_doc(doc)
        doc = _spec().to_doc()
        doc["warmup"] = 1.5
        with pytest.raises(SpecError, match="warmup must be an"):
            RunSpec.from_doc(doc)
        with pytest.raises(SpecError, match="seed"):
            _spec(seed=True)

    def test_policy_kwarg_names(self):
        assert policy_kwarg_names("icount") == frozenset()
        assert "slow_weight" in policy_kwarg_names("dcra")
        with pytest.raises(SpecError):
            policy_kwarg_names("nope")
        validate_policy_kwargs("dcra", {"slow_weight": 2.0})
        with pytest.raises(SpecError):
            validate_policy_kwargs("dcra", {"typo": 1})

    def test_warmup_none_resolves_to_default(self):
        a = RunSpec(("mcf", "swim"), CFG2, max_commits=COMMITS)
        assert isinstance(a.warmup, int) and a.warmup >= 0

    def test_kwarg_container_spellings_normalize(self):
        a = _spec("dcra", policy_kwargs={"slow_weight": 2.0})
        b = _spec("dcra", policy_kwargs=(("slow_weight", 2.0),))
        assert a == b
        assert a.content_hash() == b.content_hash()


class TestRoundTrip:
    @pytest.mark.parametrize("policy", GOLDEN_POLICIES)
    @pytest.mark.parametrize("threads", _THREAD_COUNTS)
    def test_json_roundtrip_grid(self, policy, threads):
        spec = _spec(policy, threads=threads)
        back = RunSpec.from_json(spec.to_json())
        assert back == spec
        assert back.content_hash() == spec.content_hash()

    def test_roundtrip_preserves_kwargs_and_seed(self):
        spec = _spec("dcra", policy_kwargs={"slow_weight": 2.5}, seed=7)
        back = RunSpec.from_json(spec.to_json())
        assert back == spec
        assert back.seed == 7
        assert back.content_hash() == spec.content_hash()

    def test_config_roundtrips_through_dict(self):
        for cfg in (CFG2, scaled_config(num_threads=4, scale=8),
                    scaled_config(num_threads=1, scale=16,
                                  rob_size=128, lsq_size=64)):
            back = config_from_dict(config_to_dict(cfg))
            assert back == cfg
            assert back.cache_key() == cfg.cache_key()

    def test_config_rejects_unknown_keys(self):
        tree = config_to_dict(CFG2)
        tree["bogus_knob"] = 1
        with pytest.raises(TypeError):
            config_from_dict(tree)

    def test_config_rejects_missing_keys(self):
        # A truncated tree must never alias onto the defaults.
        tree = config_to_dict(CFG2)
        del tree["rob_size"]
        with pytest.raises(TypeError, match="rob_size"):
            config_from_dict(tree)
        tree = config_to_dict(CFG2)
        del tree["memory"]["l3"]
        with pytest.raises(TypeError, match="l3"):
            config_from_dict(tree)
        with pytest.raises(TypeError, match="missing"):
            config_from_dict({})

    def test_bad_schema_refused(self):
        doc = _spec().to_doc()
        doc["schema"] = "repro.runspec/999"
        with pytest.raises(SpecError, match="schema"):
            RunSpec.from_doc(doc)
        with pytest.raises(SpecError, match="valid JSON"):
            RunSpec.from_json("{not json")

    def test_unknown_document_field_refused(self):
        doc = _spec().to_doc()
        doc["surprise"] = True
        with pytest.raises(SpecError, match="surprise"):
            RunSpec.from_doc(doc)

    @settings(max_examples=60, deadline=None)
    @given(
        policy_a=st.sampled_from(GOLDEN_POLICIES),
        policy_b=st.sampled_from(GOLDEN_POLICIES),
        threads_a=st.sampled_from((1, 2, 4)),
        threads_b=st.sampled_from((1, 2, 4)),
        commits_a=st.sampled_from((1000, 1500)),
        commits_b=st.sampled_from((1000, 1500)),
        warmup_a=st.sampled_from((0, 300)),
        warmup_b=st.sampled_from((0, 300)),
        seed_a=st.sampled_from((0, 1)),
        seed_b=st.sampled_from((0, 1)),
        backend_a=st.sampled_from((None, "object")),
        backend_b=st.sampled_from((None, "object")),
    )
    def test_hash_equality_implies_spec_equality(
            self, policy_a, policy_b, threads_a, threads_b, commits_a,
            commits_b, warmup_a, warmup_b, seed_a, seed_b, backend_a,
            backend_b):
        a = _spec(policy_a, threads=threads_a, max_commits=commits_a,
                  warmup=warmup_a, seed=seed_a, backend=backend_a)
        b = _spec(policy_b, threads=threads_b, max_commits=commits_b,
                  warmup=warmup_b, seed=seed_b, backend=backend_b)
        if a.content_hash() == b.content_hash():
            assert a == b
            assert hash(a) == hash(b)
        # The converse always holds for a content hash:
        if a == b:
            assert a.content_hash() == b.content_hash()
        # The backend is execution-only: it never splits an identity.
        assert a == a.with_(backend=backend_b)
        # And a round-tripped copy never changes identity:
        again = RunSpec.from_json(a.to_json())
        assert again.content_hash() == a.content_hash()
        assert again.backend == a.backend


class TestJobSpecCompatibility:
    def test_content_hash_matches_jobspec_cache_key(self):
        spec = _spec("mlp_flush")
        job = JobSpec.workload(("mcf", "swim"), CFG2, "mlp_flush",
                               COMMITS, warmup=WARMUP)
        assert spec.content_hash() == job.cache_key()
        assert spec.to_job() == job

    def test_kwargs_and_seed_flow_into_the_job(self):
        spec = _spec("dcra", policy_kwargs={"slow_weight": 2.5}, seed=3)
        job = spec.to_job()
        assert job.policy_kwargs == (("slow_weight", 2.5),)
        assert job.seed == 3
        assert all(b.seed == 3 for b in job.baseline_specs())
        assert job.cache_key() == spec.content_hash()

    def test_seed_participates_in_the_hash(self):
        assert _spec().content_hash() != _spec(seed=1).content_hash()
        # seed=0 keys are unchanged from the pre-seed era layout:
        legacy = JobSpec.workload(("mcf", "swim"), CFG2, "icount",
                                  COMMITS, warmup=WARMUP)
        assert _spec().content_hash() == legacy.cache_key()


class TestSession:
    def test_serialized_spec_hits_the_warm_cache(self, tmp_path):
        """Acceptance: serialize -> reload -> execute is zero-simulation."""
        store = ResultStore(tmp_path)
        spec = _spec("flush")
        first = Session(store=store).run(spec)
        path = tmp_path / "spec.json"
        path.write_text(spec.to_json())
        reloaded = RunSpec.from_json(path.read_text())
        session = Session(store=store)
        again = session.run(reloaded)
        assert session.last_report.executed == 0
        assert session.last_report.cache_hits == 1
        assert again.stp == first.stp and again.antt == first.antt

    def test_old_jobs_path_primes_cache_for_new_api(self, tmp_path):
        """Hash stability across the old and new submission paths."""
        from repro.jobs import run_jobs
        store = ResultStore(tmp_path)
        job = JobSpec.workload(("mcf", "swim"), CFG2, "icount", COMMITS,
                               warmup=WARMUP)
        run_jobs([job], workers=1, store=store)
        session = Session(store=store)
        session.run(_spec("icount"))
        assert session.last_report.executed == 0
        assert session.last_report.cache_hits == 1

    def test_run_many_orders_and_dedups(self, tmp_path):
        specs = [_spec("icount"), _spec("flush"), _spec("icount")]
        session = Session(store=ResultStore(tmp_path))
        results = session.run_many(specs)
        assert len(results) == 3
        assert results[0].stp == results[2].stp
        assert session.last_report.unique == 2

    def test_session_matches_evaluate_workload(self, tmp_path):
        from repro.experiments import clear_baseline_cache, evaluate_workload
        result = Session(store=ResultStore(tmp_path)).run(_spec("flush"))
        clear_baseline_cache(disk=False)
        direct = evaluate_workload(("mcf", "swim"), CFG2, "flush",
                                   COMMITS, warmup=WARMUP)
        assert result.stp == direct.stp
        assert result.antt == direct.antt

    def test_simulate_matches_scenario_runner(self):
        """Session.simulate is the path the golden matrix runs on."""
        from repro.perf.golden import snapshot_cell
        from repro.perf.scenarios import Scenario
        sc = Scenario("api_equiv", ("mcf", "swim"), "mlp_stall",
                      commits=1200, warmup=300, quick_commits=1200)
        direct = snapshot_cell(sc)
        stats, core = Session().simulate(sc.to_runspec())
        assert stats.cycles == direct["cycles"]
        assert core.cycle == direct["total_cycles"]
        assert [t.committed for t in stats.threads] \
            == [t["committed"] for t in direct["threads"]]

    def test_seed_changes_the_trace_instance(self):
        from repro.experiments.runner import stable_seed, trace_for
        cfg1 = scaled_config(num_threads=1, scale=16)
        canonical = trace_for("mcf", cfg1)
        seeds = {trace_for("mcf", cfg1, seed=s).seed for s in range(1, 6)}
        # Five distinct deterministic instances, none the canonical one
        # (cycle *counts* may still coincide at tiny budgets — identity
        # lives in the trace seed, which drives every address/branch).
        assert len(seeds) == 5
        assert canonical.seed not in seeds
        # Salted seeds are domain-separated from every canonical stream:
        # no benchmark name's canonical seed can equal a salted one.
        from repro.workloads.registry import BENCHMARKS
        all_canonical = {stable_seed(n) for n in BENCHMARKS}
        assert not (seeds & all_canonical)

    def test_seeded_runs_are_deterministic_and_distinct_in_the_store(
            self, tmp_path):
        store = ResultStore(tmp_path)
        base = Session(store=store).run(_spec("icount"))
        seeded = Session(store=store).run(_spec("icount", seed=12))
        # seed=12 visibly perturbs this cell; both entries coexist in the
        # store under distinct content keys.
        assert seeded.stats.cycles != base.stats.cycles
        assert len(store) == 6    # 2 workloads + 2 baselines each
        again = Session(store=store)
        rerun = again.run(_spec("icount", seed=12))
        assert again.last_report.executed == 0
        assert rerun.stats.cycles == seeded.stats.cycles

    def test_canonical_scenario_expressed_as_runspec(self):
        sc = scenario_by_name("smt2_mlp_stall")
        spec = sc.to_runspec()
        assert spec.workload == sc.workload
        assert spec.policy == sc.policy
        assert spec.max_commits == sc.commits
        assert sc.to_runspec(quick=True).max_commits == sc.quick_commits


class TestIterIntervals:
    def test_streaming_matches_one_shot_run(self):
        spec = _spec("mlp_stall", max_commits=1200, warmup=300)
        snapshots = list(Session().iter_intervals(spec, every=250))
        assert len(snapshots) >= 2
        assert snapshots[-1].done
        assert all(not s.done for s in snapshots[:-1])
        # Monotone progress, 0-based contiguous indices.
        assert [s.index for s in snapshots] == list(range(len(snapshots)))
        for a, b in zip(snapshots, snapshots[1:]):
            assert b.cycles > a.cycles
            assert b.total_committed >= a.total_committed
        # The final snapshot is bit-identical to an uninterrupted run.
        stats, _core = Session().simulate(spec)
        final = snapshots[-1]
        assert final.cycles == stats.cycles
        assert final.committed == tuple(t.committed for t in stats.threads)
        assert final.ipcs == tuple(
            stats.ipc(i) for i in range(len(stats.threads)))
        assert final.total_ipc == stats.total_ipc

    def test_interval_boundaries_respect_every(self):
        spec = _spec("icount", max_commits=1000, warmup=0)
        snaps = list(Session().iter_intervals(spec, every=300))
        for i, snap in enumerate(snaps[:-1]):
            # The leading thread has crossed this interval's boundary but
            # not yet the next one (commit bursts may overshoot a little).
            assert max(snap.committed) >= (i + 1) * 300
        assert max(snaps[-1].committed) >= 1000

    def test_every_must_be_positive(self):
        with pytest.raises(ValueError):
            next(Session().iter_intervals(_spec(), every=0))

    def test_snapshot_is_a_value(self):
        snap = IntervalSnapshot(0, 10, (5, 5), (0.5, 0.5), 1.0, True)
        assert snap.total_committed == 10
        assert json.dumps(snap.committed) == "[5, 5]"
