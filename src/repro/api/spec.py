"""The declarative run specification: one frozen, hashable value per run.

A :class:`RunSpec` captures the full coordinate of one cell in the
paper's evaluation grid — workload mix, machine config, fetch policy
(with kwargs), commit budget, warmup, and trace seed — and nothing
about *how* it executes (workers, caching, streaming all live on
:class:`repro.api.Session`; an optional ``backend`` pins the engine but
is not part of the spec's identity).  Everything is validated at
construction: a ``RunSpec`` that exists names real benchmarks, a real
policy, and only kwargs that policy accepts.

Specs round-trip through JSON (:meth:`RunSpec.to_json` /
:meth:`RunSpec.from_json`) under the ``repro.runspec/2`` schema
(documents stamped ``repro.runspec/1`` — the layout before the engine
``backend`` field existed — still load), and
:meth:`RunSpec.content_hash` is byte-compatible with the
:class:`repro.jobs.JobSpec` cache keys, so a reloaded spec resolves
against results the jobs engine already persisted.  An unpinned spec
(``backend=None``) writes no ``backend`` field, and no spec hashes its
backend, so content hashes are byte-identical to pre-backend ones.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field, replace
import inspect
import json
from typing import Any

from repro import registry
from repro.config import SMTConfig, config_from_dict, config_to_dict
from repro.experiments.defaults import default_warmup
from repro.jobs.spec import (
    KIND_WORKLOAD,
    JobSpec,
    UncacheableJobError,
    canonical_kwargs,
    content_key,
)

#: Stamped into every serialized spec; bump on any layout change.
SPEC_SCHEMA = "repro.runspec/2"

#: The pre-backend layout; still readable (as an unpinned spec), never
#: written.
_SPEC_SCHEMA_V1 = "repro.runspec/1"

_DOC_FIELDS_V1 = frozenset({"schema", "workload", "policy",
                            "policy_kwargs", "max_commits", "warmup",
                            "seed", "config"})
_DOC_FIELDS = _DOC_FIELDS_V1 | {"backend"}


class SpecError(ValueError):
    """A run specification is invalid (bad name, kwarg, or document)."""


def policy_kwarg_names(policy: str) -> frozenset[str] | None:
    """Keyword parameters the named policy's constructor accepts.

    ``None`` means the constructor takes ``**kwargs`` and no static
    validation is possible.  Raises :class:`SpecError` for an unknown
    policy name.
    """
    try:
        cls = registry.policies.get(policy)
    except registry.RegistryError as exc:
        raise SpecError(str(exc)) from None
    params = [p for name, p in
              inspect.signature(cls.__init__).parameters.items()
              if name != "self"]
    if any(p.kind is inspect.Parameter.VAR_KEYWORD for p in params):
        return None
    return frozenset(
        p.name for p in params
        if p.kind in (inspect.Parameter.POSITIONAL_OR_KEYWORD,
                      inspect.Parameter.KEYWORD_ONLY))


def validate_policy_kwargs(policy: str, kwargs: Mapping[str, Any]) -> None:
    """Reject kwargs the policy constructor would not accept.

    This is the construction-time guard the blind ``make_policy(name,
    **kwargs)`` forwarding never had: the error names the policy and the
    offending key(s) instead of surfacing as a ``TypeError`` deep inside
    a worker process.
    """
    accepted = policy_kwarg_names(policy)
    if accepted is None:
        return
    unknown = sorted(set(kwargs) - accepted)
    if unknown:
        hint = (f"; accepted: {', '.join(sorted(accepted))}"
                if accepted else "; it accepts no kwargs")
        raise SpecError(
            f"policy {policy!r} does not accept kwarg(s) "
            f"{', '.join(repr(k) for k in unknown)}{hint}")


def _normalize_kwarg(value: Any) -> Any:
    """Collapse equivalent container spellings to one canonical form.

    The content hash already treats tuples and lists alike (both encode
    as JSON arrays); normalizing the *stored* value too keeps the
    invariant that equal hashes mean equal specs.
    """
    if isinstance(value, (tuple, list)):
        return tuple(_normalize_kwarg(v) for v in value)
    if isinstance(value, dict):
        return {str(k): _normalize_kwarg(v)
                for k, v in sorted(value.items())}
    return value


@dataclass(frozen=True)
class RunSpec:
    """One simulation request, fully validated and content-hashable.

    ``policy_kwargs`` may be passed as a dict (normalized to a sorted
    tuple of pairs) and ``warmup=None`` resolves to the environment
    default, so equal experiments always compare — and hash — equal.
    ``seed=0`` selects the canonical per-benchmark trace streams that
    every published number uses; other seeds derive independent
    deterministic instances of the same programs.  ``backend`` pins the
    engine core that executes the run (``repro list backends``);
    ``None``, the default, runs on the fastest registered engine
    (:func:`repro.experiments.runner.default_backend`).  The engines are
    architecturally bit-identical, so the backend changes wall time,
    never results: it takes no part in equality, hashing or
    :meth:`content_hash` (see :func:`repro.jobs.spec.content_key`).
    """

    workload: tuple[str, ...]
    config: SMTConfig
    policy: str = "icount"
    policy_kwargs: tuple[tuple[str, Any], ...] = ()
    max_commits: int = 20_000
    warmup: int | None = None
    seed: int = 0
    backend: str | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        norm = object.__setattr__
        norm(self, "workload", tuple(self.workload))
        kwargs = self.policy_kwargs
        items = kwargs.items() if isinstance(kwargs, Mapping) else kwargs
        norm(self, "policy_kwargs",
             tuple(sorted((str(k), _normalize_kwarg(v)) for k, v in items)))
        if self.warmup is None:
            norm(self, "warmup", default_warmup())
        self._validate()

    def _validate(self) -> None:
        if not self.workload:
            raise SpecError("workload must name at least one benchmark")
        for name in self.workload:
            if name not in registry.benchmarks:
                known = ", ".join(registry.benchmarks.names())
                raise SpecError(
                    f"unknown benchmark {name!r}; known: {known}")
        if not isinstance(self.config, SMTConfig):
            raise SpecError(
                f"config must be an SMTConfig, got "
                f"{type(self.config).__name__}")
        if len(self.workload) != self.config.num_threads:
            raise SpecError(
                f"workload {self.workload} needs a "
                f"{len(self.workload)}-thread config, got "
                f"num_threads={self.config.num_threads}")
        validate_policy_kwargs(self.policy, dict(self.policy_kwargs))
        try:
            canonical_kwargs(dict(self.policy_kwargs))
        except UncacheableJobError as exc:
            raise SpecError(
                f"policy {self.policy!r}: {exc} (RunSpecs must be "
                f"serializable; pass plain numbers/strings/containers)"
            ) from None
        for name, minimum in (("max_commits", 1), ("warmup", 0),
                              ("seed", 0)):
            value = getattr(self, name)
            # bool is an int subclass but never a sane budget/seed.
            if not isinstance(value, int) or isinstance(value, bool):
                raise SpecError(
                    f"{name} must be an integer, got "
                    f"{type(value).__name__}")
            if value < minimum:
                raise SpecError(
                    f"{name} must be >= {minimum}, got {value}")
        if self.backend is not None and not isinstance(self.backend, str):
            raise SpecError(
                f"backend must be a string or None, got "
                f"{type(self.backend).__name__}")
        if self.backend is not None and \
                self.backend not in registry.backends:
            known = ", ".join(registry.backends.names())
            raise SpecError(
                f"unknown backend {self.backend!r}; known: {known}")

    # ------------------------------------------------------------------ #
    # identity
    # ------------------------------------------------------------------ #

    @property
    def num_threads(self) -> int:
        return len(self.workload)

    def content_hash(self) -> str:
        """Stable hex content key, identical to the equivalent
        :meth:`repro.jobs.JobSpec.cache_key` — the property that lets a
        serialized-and-reloaded spec hit the warm jobs cache."""
        return content_key(KIND_WORKLOAD, self.workload, self.config,
                           self.max_commits, self.warmup, self.policy,
                           self.policy_kwargs, seed=self.seed)

    def to_job(self) -> JobSpec:
        """The executable :class:`~repro.jobs.JobSpec` for this spec."""
        return JobSpec.from_runspec(self)

    def with_(self, **changes: Any) -> RunSpec:
        """A copy with ``changes`` applied (re-validated)."""
        return replace(self, **changes)

    # ------------------------------------------------------------------ #
    # (de)serialization
    # ------------------------------------------------------------------ #

    def to_doc(self) -> dict:
        """The canonical JSON-serializable document for this spec.

        ``backend`` is written only when pinned, so unpinned documents
        are byte-identical to the pre-backend ``repro.runspec/1`` layout
        apart from the schema stamp.
        """
        doc = {
            "schema": SPEC_SCHEMA,
            "workload": list(self.workload),
            "policy": self.policy,
            "policy_kwargs": {k: canonical_kwargs(v)
                              for k, v in self.policy_kwargs},
            "max_commits": self.max_commits,
            "warmup": self.warmup,
            "seed": self.seed,
            "config": config_to_dict(self.config),
        }
        if self.backend is not None:
            doc["backend"] = self.backend
        return doc

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_doc(), indent=indent, sort_keys=True)

    @classmethod
    def from_doc(cls, doc: Mapping[str, Any]) -> RunSpec:
        """Parse a document produced by :meth:`to_doc`.

        A missing or unexpected ``schema`` stamp is refused outright —
        guessing at the layout of an unknown schema could silently run
        the wrong experiment.
        """
        if not isinstance(doc, Mapping):
            raise SpecError(
                f"run spec must be a JSON object, got "
                f"{type(doc).__name__}")
        found = doc.get("schema")
        if found not in (SPEC_SCHEMA, _SPEC_SCHEMA_V1):
            raise SpecError(
                f"unsupported run-spec schema {found!r} "
                f"(this version reads {SPEC_SCHEMA!r} and "
                f"{_SPEC_SCHEMA_V1!r})")
        # v1 predates the backend field; a v1 document carrying one is
        # mis-stamped, not merely old, and is refused like any other
        # unknown field.
        allowed = _DOC_FIELDS if found == SPEC_SCHEMA else _DOC_FIELDS_V1
        unknown = set(doc) - allowed
        if unknown:
            raise SpecError(
                f"unknown run-spec field(s): {', '.join(sorted(unknown))}")
        try:
            config = config_from_dict(doc["config"])
        except KeyError:
            raise SpecError("run spec is missing 'config'") from None
        except (TypeError, ValueError) as exc:
            raise SpecError(f"bad config tree: {exc}") from None
        kwargs = doc.get("policy_kwargs", {})
        if not isinstance(kwargs, Mapping):
            raise SpecError("policy_kwargs must be a JSON object")
        try:
            return cls(
                workload=tuple(doc["workload"]),
                config=config,
                policy=doc.get("policy", "icount"),
                policy_kwargs=kwargs,
                max_commits=doc["max_commits"],
                warmup=doc.get("warmup"),
                seed=doc.get("seed", 0),
                backend=doc.get("backend"),
            )
        except KeyError as exc:
            raise SpecError(f"run spec is missing {exc.args[0]!r}") from None

    @classmethod
    def from_json(cls, text: str) -> RunSpec:
        try:
            doc = json.loads(text)
        except ValueError as exc:
            raise SpecError(f"run spec is not valid JSON: {exc}") from None
        return cls.from_doc(doc)

    def __str__(self) -> str:
        mix = "-".join(self.workload)
        base = f"{mix}:{self.policy}@{self.max_commits}"
        if self.backend is not None:
            base += f"+{self.backend}"
        return base
