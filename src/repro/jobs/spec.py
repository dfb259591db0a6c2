"""Canonical job descriptions for the experiment-execution engine.

A :class:`JobSpec` captures everything that determines a simulation's
outcome — benchmark names, fetch policy and its kwargs, the
:class:`~repro.config.SMTConfig`, the commit budget, and the warmup — and
hashes it into a stable content key.  Two specs with the same key are the
same experiment: the key is what the persistent result store
(:mod:`repro.jobs.store`) and the batch executor
(:mod:`repro.jobs.executor`) deduplicate on, across processes and runs.

Keys are built from canonical JSON (sorted keys, no whitespace) over the
spec's field tree plus the store schema version and the ``repro`` package
version, never from dataclass ``repr`` — so they survive formatting
changes and are identical in every worker process.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import hashlib
import json
from typing import Any

from repro import __version__
from repro.config import SMTConfig, single_thread_variant
from repro.experiments.defaults import default_warmup

#: Bumped whenever the on-disk entry layout or the result payload encoding
#: changes; entries written under another schema are treated as misses.
SCHEMA_VERSION = 1

KIND_WORKLOAD = "workload"
KIND_BASELINE = "baseline"


class UncacheableJobError(ValueError):
    """A job's policy kwargs cannot be canonically serialized."""


def canonical_kwargs(value: Any) -> Any:
    """Reduce ``value`` to a JSON-stable tree, or raise.

    Policy kwargs are usually numbers or strings; anything fancier (open
    files, live predictor objects, ...) has no stable content identity and
    must not silently alias distinct experiments onto one key.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (tuple, list)):
        return [canonical_kwargs(v) for v in value]
    if isinstance(value, dict):
        return {str(k): canonical_kwargs(v) for k, v in sorted(value.items())}
    raise UncacheableJobError(
        f"policy kwarg of type {type(value).__name__} has no canonical form")


def content_key(kind: str, names, config: SMTConfig, max_commits: int,
                warmup: int, policy: str, policy_kwargs,
                seed: int = 0) -> str:
    """The stable hex content key over one simulation's field tree.

    The single hashing authority for the whole repo: :class:`JobSpec`
    and :class:`repro.api.RunSpec` both key through here, which is what
    makes a spec serialized by the new API hit cache entries written by
    the old jobs path (and vice versa).  ``seed=0`` — the canonical
    per-benchmark trace seeds — is omitted from the payload so that keys
    predating the seed field are unchanged.

    The engine backend is not an input.  It says how a run executes,
    not what it computes: every registered engine is bit-identical, which
    the golden matrix and the cross-engine differential test guard, so a
    run on any engine shares one store entry.  Keys are byte-identical to
    those minted before the backend axis existed, and warm stores keep
    hitting.
    """
    payload = {
        "schema": SCHEMA_VERSION,
        "repro": __version__,
        "kind": kind,
        "names": list(names),
        "config": config.cache_key(),
        "max_commits": max_commits,
        "warmup": warmup,
        "policy": policy,
        "policy_kwargs": [[k, canonical_kwargs(v)]
                          for k, v in policy_kwargs],
    }
    if seed:
        payload["seed"] = seed
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("ascii")).hexdigest()


def _check_budget(max_commits: int) -> None:
    """Refuse a budget no run can meet (the bound ``RunSpec`` enforces)."""
    if max_commits < 1:
        raise ValueError(f"max_commits must be >= 1, got {max_commits}")


@dataclass(frozen=True)
class JobSpec:
    """One simulation request with a stable content identity.

    Use the :meth:`workload` / :meth:`baseline` constructors rather than
    building instances directly — they normalize the config (baselines are
    always single-threaded ICOUNT runs) and resolve ``warmup=None`` to the
    environment default, so equal experiments always compare equal.
    """

    kind: str                       # KIND_WORKLOAD | KIND_BASELINE
    names: tuple[str, ...]
    config: SMTConfig
    max_commits: int
    warmup: int
    policy: str = "icount"
    policy_kwargs: tuple[tuple[str, Any], ...] = ()
    seed: int = 0                   # 0 = canonical per-benchmark seeds
    #: Engine core (a ``backends`` registry name); ``None`` runs on the
    #: fastest registered one.  How the job executes, not what it
    #: computes: left out of equality, hashing and the content key.
    backend: str | None = field(default=None, compare=False)

    @classmethod
    def workload(cls, names, config: SMTConfig, policy: str = "icount",
                 max_commits: int = 20_000, warmup: int | None = None,
                 seed: int = 0, backend: str | None = None,
                 **policy_kwargs) -> JobSpec:
        """A multiprogram run evaluated with STP/ANTT."""
        _check_budget(max_commits)
        names = tuple(names)
        if len(names) != config.num_threads:
            raise ValueError(
                f"workload {names} needs a {len(names)}-thread config, "
                f"got num_threads={config.num_threads}")
        return cls(kind=KIND_WORKLOAD, names=names, config=config,
                   max_commits=max_commits,
                   warmup=default_warmup() if warmup is None else warmup,
                   policy=policy,
                   policy_kwargs=tuple(sorted(policy_kwargs.items())),
                   seed=seed, backend=backend)

    @classmethod
    def baseline(cls, name: str, config: SMTConfig, max_commits: int,
                 warmup: int | None = None, seed: int = 0,
                 backend: str | None = None) -> JobSpec:
        """The single-threaded ICOUNT run that supplies CPI_ST for ``name``."""
        _check_budget(max_commits)
        return cls(kind=KIND_BASELINE, names=(name,),
                   config=single_thread_variant(config),
                   max_commits=max_commits,
                   warmup=default_warmup() if warmup is None else warmup,
                   policy="icount", seed=seed, backend=backend)

    @classmethod
    def from_runspec(cls, spec) -> JobSpec:
        """Adapt a :class:`repro.api.RunSpec` into its workload job.

        ``JobSpec`` is the execution/cache-key shape of a declarative
        ``RunSpec``: same fields, same content key (both route through
        :func:`content_key`), plus the workload/baseline ``kind`` axis
        the executor needs.
        """
        return cls(kind=KIND_WORKLOAD, names=tuple(spec.workload),
                   config=spec.config, max_commits=spec.max_commits,
                   warmup=spec.warmup, policy=spec.policy,
                   policy_kwargs=tuple(spec.policy_kwargs), seed=spec.seed,
                   backend=spec.backend)

    def baseline_specs(self) -> tuple[JobSpec, ...]:
        """The per-program baseline jobs this workload job depends on.

        One spec per program *in workload order* (duplicates included, so
        the caller can zip them against per-thread commit counts).
        Baselines always use the environment-default warmup, matching
        :func:`repro.experiments.runner.single_thread_baseline`, and run
        on this job's engine, so a grid's CPI_ST comes from the engine
        that ran its cells.  The backend is not in the key, so one cached
        baseline serves every engine.
        """
        if self.kind != KIND_WORKLOAD:
            return ()
        specs = self.__dict__.get("_baseline_specs")
        if specs is None:
            specs = tuple(
                JobSpec.baseline(name, self.config, self.max_commits,
                                 seed=self.seed, backend=self.backend)
                for name in self.names)
            object.__setattr__(self, "_baseline_specs", specs)
        return specs

    def cache_key(self) -> str:
        """Stable hex content key (raises for unserializable kwargs).

        Computed on the first call and kept on this instance, outside
        the dataclass fields, so the executor's repeat calls are one
        attribute read.  The memo is per instance, never by equality
        (equal specs can carry configs with different keys, such as
        ``350`` and ``350.0``).  An uncacheable spec raises on every
        call.
        """
        key = self.__dict__.get("_cache_key")
        if key is None:
            key = content_key(self.kind, self.names, self.config,
                              self.max_commits, self.warmup, self.policy,
                              self.policy_kwargs, seed=self.seed)
            object.__setattr__(self, "_cache_key", key)
        return key

    def __str__(self) -> str:
        mix = "-".join(self.names)
        return f"{self.kind}:{mix}:{self.policy}@{self.max_commits}"
