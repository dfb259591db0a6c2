"""Tests for the repro.jobs subsystem: spec hashing, the persistent
result store, and the parallel batch executor."""

from __future__ import annotations

from dataclasses import asdict, replace
import errno
import hashlib
import json
import os
from pathlib import Path
import pickle
import shutil
import subprocess
import sys

import pytest

import repro
from repro.api import RunSpec
import repro.api.spec as api_spec
import repro.config as config_module
import repro.jobs.store as store_module
from repro.config import (
    SMTConfig,
    paper_baseline,
    scaled_config,
    single_thread_variant,
    with_memory_latency,
    with_window_size,
)
from repro.experiments import (
    clear_baseline_cache,
    default_config,
    evaluate_workload,
    single_thread_baseline,
)
from repro.experiments.policy_comparison import compare_policies
from repro.jobs import (
    SCHEMA_VERSION,
    JobSpec,
    ResultStore,
    UncacheableJobError,
    run_jobs,
)
from repro.jobs.executor import counters, default_workers
from repro.jobs.store import (
    code_fingerprint,
    default_store,
    source_fingerprint,
)
from repro.policies import MAIN_COMPARISON
from repro.workloads import TWO_THREAD_MIXED, TWO_THREAD_MLP

CFG = scaled_config(num_threads=2, scale=16)
COMMITS = 1500
WARMUP = 300


def _specs(policies=("icount", "flush"), workloads=(("mcf", "twolf"),)):
    return [JobSpec.workload(names, CFG, policy, COMMITS, warmup=WARMUP)
            for names in workloads for policy in policies]


class TestJobSpec:
    def test_key_is_stable(self):
        a = JobSpec.workload(("mcf", "twolf"), CFG, "flush", COMMITS,
                             warmup=WARMUP)
        b = JobSpec.workload(("mcf", "twolf"), CFG, "flush", COMMITS,
                             warmup=WARMUP)
        assert a == b
        assert a.cache_key() == b.cache_key()

    @pytest.mark.parametrize("other", [
        JobSpec.workload(("mcf", "twolf"), CFG, "icount", COMMITS,
                         warmup=WARMUP),
        JobSpec.workload(("twolf", "mcf"), CFG, "flush", COMMITS,
                         warmup=WARMUP),
        JobSpec.workload(("mcf", "twolf"), CFG, "flush", COMMITS + 1,
                         warmup=WARMUP),
        JobSpec.workload(("mcf", "twolf"), CFG, "flush", COMMITS,
                         warmup=WARMUP + 1),
        JobSpec.workload(("mcf", "twolf"),
                         scaled_config(num_threads=2, scale=8),
                         "flush", COMMITS, warmup=WARMUP),
        JobSpec.workload(("mcf", "twolf"), CFG, "flush", COMMITS,
                         warmup=WARMUP, threshold=3),
    ])
    def test_key_sees_every_field(self, other):
        base = JobSpec.workload(("mcf", "twolf"), CFG, "flush", COMMITS,
                                warmup=WARMUP)
        assert base.cache_key() != other.cache_key()

    def test_thread_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            JobSpec.workload(("mcf",), CFG, "icount", COMMITS)

    @pytest.mark.parametrize("max_commits", [0, -5])
    def test_budgets_below_one_rejected(self, max_commits):
        # RunSpec refuses them too; a zero-commit job used to simulate
        # and then fail computing CPI from an empty commit log.
        with pytest.raises(ValueError, match="max_commits must be >= 1"):
            JobSpec.workload(("mcf", "twolf"), CFG, "icount", max_commits)
        with pytest.raises(ValueError, match="max_commits must be >= 1"):
            JobSpec.baseline("mcf", CFG, max_commits)

    def test_baseline_specs_follow_workload_order(self):
        spec = JobSpec.workload(("swim", "mcf"), CFG, "flush", COMMITS,
                                warmup=WARMUP)
        bases = spec.baseline_specs()
        assert [b.names[0] for b in bases] == ["swim", "mcf"]
        assert all(b.config.num_threads == 1 for b in bases)
        assert all(b.policy == "icount" for b in bases)

    def test_unserializable_kwargs_are_uncacheable(self):
        spec = JobSpec.workload(("mcf", "twolf"), CFG, "flush", COMMITS,
                                warmup=WARMUP, hook=object())
        with pytest.raises(UncacheableJobError):
            spec.cache_key()

    def test_config_cache_key_is_content_based(self):
        assert CFG.cache_key() == scaled_config(num_threads=2,
                                                scale=16).cache_key()
        assert CFG.cache_key() != scaled_config(num_threads=4,
                                                scale=16).cache_key()


def _fresh_config_key(cfg: SMTConfig) -> str:
    """The config key computed from scratch, as the parent code did."""
    blob = json.dumps(asdict(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("ascii")).hexdigest()


class TestKeyMemo:
    """Each instance computes its key once; the key itself never moves."""

    @pytest.mark.parametrize("make", [
        lambda: paper_baseline(),
        lambda: paper_baseline(num_threads=4, rob_size=128),
        lambda: scaled_config(num_threads=2),
        lambda: with_window_size(scaled_config(num_threads=2), 128),
        lambda: with_memory_latency(scaled_config(num_threads=2), 500),
    ], ids=["paper_baseline", "paper_baseline_4t", "scaled_config",
            "with_window_size", "with_memory_latency"])
    def test_config_memo_equals_a_fresh_computation(self, make):
        cfg = make()
        key = cfg.cache_key()
        assert key == _fresh_config_key(cfg)
        assert cfg.cache_key() is key          # the memo, not a rehash
        assert make().cache_key() == key       # a new instance agrees

    def test_memo_stays_out_of_identity(self):
        cfg = scaled_config(num_threads=2)
        fresh = scaled_config(num_threads=2)
        cfg.cache_key()
        assert cfg == fresh and hash(cfg) == hash(fresh)
        assert repr(cfg) == repr(fresh)
        assert config_module.config_to_dict(cfg) == asdict(fresh)
        spec = RunSpec(("mcf", "twolf"), cfg, "flush", max_commits=COMMITS,
                       warmup=WARMUP)
        doc = spec.to_doc()
        spec.content_hash()
        assert spec.to_doc() == doc

    def test_replace_never_returns_the_old_key(self):
        cfg = scaled_config(num_threads=2)
        key = cfg.cache_key()
        for changed in (replace(cfg, rob_size=128),
                        with_window_size(cfg, 128),
                        with_memory_latency(cfg, 500),
                        single_thread_variant(cfg)):
            assert changed.cache_key() != key
            assert changed.cache_key() == _fresh_config_key(changed)
        assert replace(cfg).cache_key() == key

    def test_with_never_returns_the_old_hash(self):
        spec = RunSpec(("mcf", "twolf"), CFG, "flush", max_commits=COMMITS,
                       warmup=WARMUP)
        content = spec.content_hash()
        for changed in (spec.with_(policy="icount"), spec.with_(seed=1),
                        spec.with_(max_commits=COMMITS + 1),
                        spec.with_(config=with_window_size(CFG, 128))):
            assert changed.content_hash() != content
            assert changed.content_hash() == changed.to_job().cache_key()
        # The backend is not part of the key; a round trip restores it.
        assert spec.with_(backend="object").content_hash() == content
        assert spec.with_(seed=1).with_(seed=0).content_hash() == content

    def test_equal_configs_with_distinct_keys_stay_distinct(self):
        # These compare and hash equal, yet their keys differ: a memo
        # keyed by equality would serve one key for all three.
        base = SMTConfig()
        as_float = replace(base, memory=replace(base.memory,
                                                mem_latency=350.0))
        as_int = replace(base, fast_forward=1)
        assert base == as_float == as_int
        assert hash(base) == hash(as_float) == hash(as_int)
        for order in ((base, as_float, as_int), (as_int, as_float, base)):
            fresh = [replace(cfg) for cfg in order]
            keys = [cfg.cache_key() for cfg in fresh]
            assert len(set(keys)) == 3
            assert keys == [_fresh_config_key(cfg) for cfg in fresh]
        jobs = [JobSpec.workload(("mcf", "twolf"), replace(cfg),
                                 "icount", COMMITS, warmup=WARMUP)
                for cfg in (base, as_float, as_int)]
        assert len({job.cache_key() for job in jobs}) == 3
        assert len({job.baseline_specs()[0].cache_key()
                     for job in jobs}) == 3

    def test_pickle_round_trip_keeps_the_key(self):
        cfg = scaled_config(num_threads=2)
        job = JobSpec.workload(("mcf", "twolf"), cfg, "flush", COMMITS,
                               warmup=WARMUP)
        spec = RunSpec(("mcf", "twolf"), cfg, "flush", max_commits=COMMITS,
                       warmup=WARMUP)
        keys = (cfg.cache_key(), job.cache_key(), spec.content_hash())
        cfg2, job2, spec2 = pickle.loads(pickle.dumps((cfg, job, spec)))
        assert (cfg2, job2, spec2) == (cfg, job, spec)
        assert (cfg2.cache_key(), job2.cache_key(),
                spec2.content_hash()) == keys
        assert cfg2.cache_key() == _fresh_config_key(cfg2)

    def test_baselines_share_one_single_thread_config(self):
        jobs = _specs(policies=("icount", "flush", "mlp_flush"),
                      workloads=(("mcf", "twolf"), ("swim", "art")))
        assert jobs[0].baseline_specs() is jobs[0].baseline_specs()
        configs = {id(base.config) for job in jobs
                   for base in job.baseline_specs()}
        assert len(configs) == 1
        assert single_thread_variant(CFG) is single_thread_variant(CFG)

    def test_policy_signature_read_once_per_class(self, monkeypatch):
        api_spec._constructor_kwargs.cache_clear()
        reads = []
        real = api_spec.inspect.signature

        def counting(fn, *args, **kwargs):
            reads.append(fn)
            return real(fn, *args, **kwargs)

        monkeypatch.setattr(api_spec.inspect, "signature", counting)
        for seed in range(5):
            for policy in ("flush", "mlp_flush"):
                RunSpec(("mcf", "twolf"), CFG, policy, seed=seed,
                        max_commits=COMMITS, warmup=WARMUP)
        assert len(reads) == 2

    def test_fig9_grid_hashes_each_config_once(self, tmp_path,
                                               monkeypatch):
        # Count the config walks: SMTConfig.cache_key is the only caller
        # of the asdict that repro.config uses while a batch runs.
        walks = []
        real = config_module.asdict

        def counting(obj, *args, **kwargs):
            walks.append(type(obj).__name__)
            return real(obj, *args, **kwargs)

        monkeypatch.setattr(config_module, "asdict", counting)

        def grid():
            cfg = default_config(num_threads=2)
            return [JobSpec.workload(names, cfg, policy, 300, warmup=100)
                    for names in TWO_THREAD_MLP[:6] + TWO_THREAD_MIXED[:6]
                    for policy in MAIN_COMPARISON]

        store = ResultStore(tmp_path)
        cold = run_jobs(grid(), workers=1, store=store)
        assert cold.report.unique == 72 and cold.report.cache_hits == 0
        assert len(walks) <= 2          # one per machine; 831 before
        walks.clear()
        warm = run_jobs(grid(), workers=1, store=store)
        assert warm.report.cache_hits == 72 and warm.report.executed == 0
        assert len(walks) == 1          # 288 before


class TestCodeFingerprint:
    """The store never serves a result that other simulator code made."""

    def test_entry_from_other_code_is_a_miss_and_is_rewritten(self,
                                                              tmp_path):
        store = ResultStore(tmp_path)
        spec = JobSpec.baseline("gap", CFG, COMMITS, warmup=WARMUP)
        result = run_jobs([spec], workers=1, store=None)[spec]
        store.put(spec, result)
        path = store.path_for(spec)
        entry = json.loads(path.read_text())
        assert entry["code"] == code_fingerprint()
        for stale in ("0" * 64, None):
            if stale is None:
                del entry["code"]
            else:
                entry["code"] = stale
            path.write_text(json.dumps(entry))
            assert store.get(spec) is None
            assert path.exists()            # stale, not corrupt
            batch = run_jobs([spec], workers=1, store=store)
            assert batch.report.executed == 1
            assert batch[spec].commit_cycles == result.commit_cycles
            assert json.loads(path.read_text())["code"] == \
                code_fingerprint()
            assert store.get(spec) is not None

    def test_fingerprint_follows_the_simulator_sources(self, tmp_path):
        root = tmp_path / "repro"
        shutil.copytree(Path(repro.__file__).resolve().parent, root,
                        ignore=shutil.ignore_patterns("__pycache__"))
        base = source_fingerprint(root)
        assert base == code_fingerprint()

        def edit(rel: str) -> str:
            path = root / rel
            path.write_text(path.read_text() + "\n# edited\n")
            return source_fingerprint(root)

        # Outside the simulator: the CLI, the jobs layer, the reports.
        assert edit("cli.py") == base
        assert edit("jobs/executor.py") == base
        assert edit("report/tables.py") == base
        # Inside: a policy, the C engine, the runner, the config.
        seen = {base}
        for rel in ("policies/mlp_flush.py", "pipeline/_cext_engine.c",
                    "experiments/runner.py", "config.py"):
            fingerprint = edit(rel)
            assert fingerprint not in seen
            seen.add(fingerprint)
        (root / "memory" / "extra.py").write_text("X = 1\n")
        assert source_fingerprint(root) not in seen


class TestResultStore:
    def test_workload_roundtrip(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = _specs()[0]
        result = run_jobs([spec], workers=1, store=None)[spec]
        assert store.put(spec, result)
        back = store.get(spec)
        assert back is not result
        assert back.names == result.names
        assert back.stp == result.stp and back.antt == result.antt
        assert back.st_cpis == result.st_cpis
        assert back.stats.cycles == result.stats.cycles
        assert back.stats.threads == result.stats.threads
        assert back.stats.ll_intervals == result.stats.ll_intervals

    def test_baseline_roundtrip(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = JobSpec.baseline("gap", CFG, COMMITS, warmup=WARMUP)
        result = run_jobs([spec], workers=1, store=None)[spec]
        store.put(spec, result)
        back = store.get(spec)
        assert back.commit_cycles == result.commit_cycles
        assert back.cpi_at(1000) == result.cpi_at(1000)

    def test_corrupt_entry_reads_as_miss_and_is_removed(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = JobSpec.baseline("gap", CFG, COMMITS, warmup=WARMUP)
        result = run_jobs([spec], workers=1, store=None)[spec]
        store.put(spec, result)
        store.path_for(spec).write_text("{not json")
        assert store.get(spec) is None
        assert not store.path_for(spec).exists()
        # The store still works after the bad entry is discarded.
        store.put(spec, result)
        assert store.get(spec) is not None

    def test_stale_schema_reads_as_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = JobSpec.baseline("gap", CFG, COMMITS, warmup=WARMUP)
        result = run_jobs([spec], workers=1, store=None)[spec]
        store.put(spec, result)
        entry = json.loads(store.path_for(spec).read_text())
        entry["schema"] = SCHEMA_VERSION + 1
        store.path_for(spec).write_text(json.dumps(entry))
        assert store.get(spec) is None

    def test_missing_dir_is_empty_store(self, tmp_path):
        store = ResultStore(tmp_path / "never-created")
        assert len(store) == 0
        assert store.clear() == 0
        assert store.get(_specs()[0]) is None

    def test_failed_put_leaves_no_temp_file(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path)
        spec = JobSpec.baseline("gap", CFG, COMMITS, warmup=WARMUP)
        result = run_jobs([spec], workers=1, store=None)[spec]

        def full_disk(*args, **kwargs):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(store_module.json, "dumps", full_disk)
        assert store.put(spec, result) is False
        assert list(tmp_path.iterdir()) == []

    def test_entry_bytes_are_compact_json(self, tmp_path):
        """An entry file holds exactly ``json.dumps`` of its entry with
        compact separators (what the C encoder writes)."""
        store = ResultStore(tmp_path)
        spec = JobSpec.baseline("gap", CFG, COMMITS, warmup=WARMUP)
        store.put(spec, run_jobs([spec], workers=1, store=None)[spec])
        raw = store.path_for(spec).read_bytes()
        entry = json.loads(raw)
        assert entry["payload"]
        assert raw == json.dumps(entry, separators=(",", ":")).encode()

    def test_clear_removes_leftover_temp_files(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = JobSpec.baseline("gap", CFG, COMMITS, warmup=WARMUP)
        store.put(spec, run_jobs([spec], workers=1, store=None)[spec])
        (tmp_path / "tmpabc123.tmp").write_text("{half an entr")
        assert store.clear() == 1        # the entry; the temp file is no entry
        assert list(tmp_path.iterdir()) == []


class TestExecutor:
    def test_second_batch_simulates_nothing(self, tmp_path):
        store = ResultStore(tmp_path)
        specs = _specs(policies=("icount", "flush"),
                       workloads=(("mcf", "twolf"), ("swim", "mcf")))
        first = run_jobs(specs, workers=1, store=store)
        assert first.report.executed > 0
        second = run_jobs(specs, workers=1, store=store)
        assert second.report.executed == 0
        assert second.report.cache_hits == len(specs)
        for spec in specs:
            assert second[spec].stp == first[spec].stp
            assert second[spec].antt == first[spec].antt

    def test_shared_baselines_simulate_once_per_batch(self, tmp_path):
        # Three workloads over only three distinct benchmarks: the batch
        # must run exactly three baseline simulations, not six.
        specs = _specs(policies=("icount",),
                       workloads=(("mcf", "twolf"), ("mcf", "swim"),
                                  ("swim", "twolf")))
        batch = run_jobs(specs, workers=1, store=ResultStore(tmp_path))
        assert batch.report.baselines_executed == 3

    def test_parallel_is_bit_identical_to_serial(self):
        specs = _specs(policies=("icount", "flush", "mlp_flush"))
        serial = run_jobs(specs, workers=1, store=None)
        parallel = run_jobs(specs, workers=4, store=None)
        assert parallel.report.workers == 4
        for spec in specs:
            assert parallel[spec].stp == serial[spec].stp
            assert parallel[spec].antt == serial[spec].antt
            assert parallel[spec].committed == serial[spec].committed
            assert parallel[spec].st_cpis == serial[spec].st_cpis

    def test_engine_matches_evaluate_workload(self, tmp_path):
        spec = _specs(policies=("flush",))[0]
        engine = run_jobs([spec], workers=2, store=None)[spec]
        clear_baseline_cache()
        direct = evaluate_workload(("mcf", "twolf"), CFG, "flush", COMMITS,
                                   warmup=WARMUP)
        assert engine.stp == direct.stp
        assert engine.antt == direct.antt

    def test_progress_reports_every_job(self, tmp_path):
        lines = []
        specs = _specs(policies=("icount", "flush"))
        store = ResultStore(tmp_path)
        run_jobs(specs, workers=1, store=store, progress=lines.append)
        assert sum("[baseline]" in line for line in lines) == 2
        assert sum("STP=" in line for line in lines) == 2
        lines.clear()
        run_jobs(specs, workers=1, store=store, progress=lines.append)
        assert all(line.startswith("[cached]") for line in lines)

    def test_duplicate_submissions_collapse(self, tmp_path):
        spec = _specs(policies=("icount",))[0]
        batch = run_jobs([spec, spec, spec], workers=1,
                         store=ResultStore(tmp_path))
        assert batch.report.submitted == 3
        assert batch.report.unique == 1

    def test_store_resolved_baselines_count_as_hits(self, tmp_path):
        store = ResultStore(tmp_path)
        run_jobs(_specs(policies=("icount",)), workers=1, store=store)
        # New policy, same workload: the workload cell misses but both
        # baselines come from the store — that must show in the report.
        batch = run_jobs(_specs(policies=("flush",)), workers=1,
                         store=store)
        assert batch.report.cache_hits == 0
        assert batch.report.baselines_cached == 2
        assert batch.report.baselines_executed == 0
        assert batch.report.executed == 1

    def test_list_kwargs_are_hashable_and_cacheable(self, tmp_path):
        # JSON-able container kwargs must flow through the batch
        # machinery (specs are bookkept by content key, not object hash).
        store = ResultStore(tmp_path)
        plain = _specs(policies=("icount",))[0]
        result = run_jobs([plain], workers=1, store=None)[plain]
        spec = JobSpec.workload(("mcf", "twolf"), CFG, "icount", COMMITS,
                                warmup=WARMUP, weights=[1, 2])
        twin = JobSpec.workload(("mcf", "twolf"), CFG, "icount", COMMITS,
                                warmup=WARMUP, weights=[1, 2])
        assert spec.cache_key() == twin.cache_key()
        store.put(spec, result)
        batch = run_jobs([spec, twin], workers=1, store=store)
        assert batch.report.unique == 1
        assert batch.report.executed == 0
        assert batch[twin].stp == result.stp

    def test_unpicklable_kwargs_do_not_poison_the_pool(self):
        # An uncacheable spec runs in-process even with a pool active, so
        # the failure surfaced is the policy's own TypeError for the bad
        # kwarg — not a PicklingError that kills the whole batch.
        good = _specs(policies=("icount",))[0]
        bad = JobSpec.workload(("mcf", "twolf"), CFG, "icount", COMMITS,
                               warmup=WARMUP, hook=lambda: None)
        with pytest.raises(TypeError):
            run_jobs([good, bad], workers=4, store=None)

    def test_unhashable_kwargs_do_not_crash_dedup(self):
        from repro.jobs.executor import _key
        a = JobSpec.workload(("mcf", "twolf"), CFG, "icount", COMMITS,
                             warmup=WARMUP, hook=object())
        b = JobSpec.workload(("mcf", "twolf"), CFG, "icount", COMMITS,
                             warmup=WARMUP, hook=object())
        # Uncacheable specs degrade to identity keys: distinct, stable,
        # and never colliding with real content keys.
        assert _key(a) != _key(b)
        assert _key(a) == _key(a)
        assert _key(a).startswith("uncacheable:")

    def test_default_workers_reads_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert default_workers() == 1
        monkeypatch.setenv("REPRO_JOBS", "6")
        assert default_workers() == 6
        monkeypatch.setenv("REPRO_JOBS", "not-a-number")
        assert default_workers() == 1


class TestCrossProcessReuse:
    def test_results_persist_across_processes(self, tmp_path):
        env = dict(os.environ)
        env["REPRO_CACHE_DIR"] = str(tmp_path)
        src = Path(__file__).resolve().parents[1] / "src"
        env["PYTHONPATH"] = f"{src}{os.pathsep}" + env.get("PYTHONPATH", "")
        script = (
            "from repro.config import scaled_config\n"
            "from repro.jobs import JobSpec, run_jobs\n"
            "cfg = scaled_config(num_threads=2, scale=16)\n"
            "spec = JobSpec.workload(('mcf', 'twolf'), cfg, 'icount', "
            f"{COMMITS}, warmup={WARMUP})\n"
            "batch = run_jobs([spec], workers=1)\n"
            "print(batch.report.executed)\n")
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "3"   # 1 workload + 2 baselines
        # This process now resolves the same job purely from disk.
        spec = JobSpec.workload(("mcf", "twolf"), CFG, "icount", COMMITS,
                                warmup=WARMUP)
        batch = run_jobs([spec], workers=1, store=ResultStore(tmp_path))
        assert batch.report.executed == 0
        assert batch.report.cache_hits == 1


class TestExperimentLayerIntegration:
    def test_policy_comparison_second_run_is_pure_cache(self, monkeypatch,
                                                        tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        clear_baseline_cache(disk=False)
        cfg = default_config(num_threads=2)
        workloads = [("mcf", "twolf"), ("swim", "mcf")]
        policies = ("icount", "flush")
        first = compare_policies(workloads, policies, cfg, COMMITS)
        executed_after_first = counters()["executed"]
        clear_baseline_cache(disk=False)   # drop in-process cache only
        second = compare_policies(workloads, policies, cfg, COMMITS)
        assert counters()["executed"] == executed_after_first
        for key, cell in first.items():
            assert second[key].stp == cell.stp
            assert second[key].antt == cell.antt

    def test_repro_jobs_env_is_bit_identical(self, monkeypatch, tmp_path):
        cfg = default_config(num_threads=2)
        workloads = [("mcf", "twolf")]
        policies = ("icount", "mlp_flush")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "serial"))
        clear_baseline_cache(disk=False)
        serial = compare_policies(workloads, policies, cfg, COMMITS)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "parallel"))
        monkeypatch.setenv("REPRO_JOBS", "4")
        clear_baseline_cache(disk=False)
        parallel = compare_policies(workloads, policies, cfg, COMMITS)
        for key, cell in serial.items():
            assert parallel[key].stp == cell.stp
            assert parallel[key].antt == cell.antt
            assert parallel[key].ipcs == cell.ipcs

    def test_clear_baseline_cache_clears_disk_store(self, monkeypatch,
                                                    tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        single_thread_baseline("gap", CFG, COMMITS, warmup=WARMUP)
        store = default_store()
        assert store is not None and len(store) == 1
        clear_baseline_cache()
        assert len(store) == 0

    def test_clear_disk_false_keeps_store(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        single_thread_baseline("gap", CFG, COMMITS, warmup=WARMUP)
        clear_baseline_cache(disk=False)
        store = default_store()
        assert store is not None and len(store) == 1

    def test_cache_disabled_by_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "0")
        assert default_store() is None
