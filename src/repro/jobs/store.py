"""Persistent on-disk result store for simulation jobs.

Memoizes :class:`~repro.experiments.runner.WorkloadResult` and
:class:`~repro.experiments.runner.SingleThreadResult` payloads across
processes and runs.  Entries live as one JSON file per job under
``$REPRO_CACHE_DIR`` (default ``~/.cache/repro``), named by the job's
content key, with the layout::

    {"schema": 1, "repro": "<package version>", "code": "<sha256>",
     "kind": "...", "payload": {...}}

Robustness rules:

* A corrupt, truncated, or unreadable entry is a *miss*, never an error;
  the stale file is removed when possible.
* An entry written under a different schema or package version is stale
  and also reads as a miss (the package version participates in the
  content key too, so version bumps simply re-key the cache).
* So is an entry written by other simulator code: ``code`` is
  :func:`code_fingerprint`, a sha256 over the sources that decide
  results (:data:`CODE_SOURCES`).  Editing the engine, a policy or the
  runner turns every entry into a miss, which the next ``put``
  overwrites; editing the CLI, the reports or the jobs layer does not.
  The fingerprint is checked in the entry rather than hashed into the
  key, so keys (and users' saved hashes) stay unchanged.  The cost: two
  code versions sharing one store overwrite each other's entries.
* Writes are atomic (temp file + ``os.replace``), so parallel workers can
  race on the same entry without tearing it.

Set ``REPRO_CACHE=0`` to disable the store entirely.

Import-cycle note: result types are imported lazily inside the codec —
:mod:`repro.experiments` modules are allowed to import this module at call
time only, while this module may not pull them in at load time.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
from dataclasses import asdict
from pathlib import Path
import tempfile
from typing import Any

import repro
from repro import __version__
from repro.jobs.spec import SCHEMA_VERSION, JobSpec, UncacheableJobError
from repro.pipeline.stats import CoreStats, ThreadStats


def cache_enabled() -> bool:
    """The REPRO_CACHE knob (default on)."""
    return os.environ.get("REPRO_CACHE", "1") not in ("0", "", "false")


def cache_root() -> Path:
    """The store directory: ``REPRO_CACHE_DIR`` or ``~/.cache/repro``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro"


# --------------------------------------------------------------------- #
# code fingerprint
# --------------------------------------------------------------------- #

#: The sources that decide a simulation's results, relative to the
#: ``repro`` package: every ``.py`` and ``.c`` file under a directory,
#: or the named file.
CODE_SOURCES = ("pipeline", "memory", "policies", "predictors", "branch",
                "workloads", "runahead", "isa", "config.py",
                "experiments/runner.py")


def source_fingerprint(root: Path) -> str:
    """sha256 over :data:`CODE_SOURCES` under the package dir ``root``.

    Each file contributes its path relative to ``root`` and its bytes,
    in sorted order, so a rename, an edit, an added or a deleted file
    all change it.  A comment-only edit changes it too.
    """
    digest = hashlib.sha256()
    for name in CODE_SOURCES:
        path = root / name
        files = ([path] if path.is_file() else
                 sorted(p for p in path.rglob("*")
                        if p.suffix in (".py", ".c")))
        for file in files:
            digest.update(file.relative_to(root).as_posix().encode())
            digest.update(b"\0")
            digest.update(file.read_bytes())
            digest.update(b"\0")
    return digest.hexdigest()


@functools.cache
def code_fingerprint() -> str:
    """:func:`source_fingerprint` of the running ``repro`` package.

    Computed on first use (2–3 ms for some 50 files), never at
    import, and then kept for the life of the process.
    """
    return source_fingerprint(Path(repro.__file__).resolve().parent)


# --------------------------------------------------------------------- #
# payload codec
# --------------------------------------------------------------------- #

def _encode_stats(stats: CoreStats) -> dict[str, Any]:
    return {
        "cycles": stats.cycles,
        "resource_stall_cycles": stats.resource_stall_cycles,
        "ll_intervals": [list(iv) for iv in stats.ll_intervals],
        "threads": [asdict(t) for t in stats.threads],
        "commit_cycle_trace": stats.commit_cycle_trace,
    }


def _decode_stats(data: dict[str, Any]) -> CoreStats:
    return CoreStats(
        cycles=data["cycles"],
        threads=[ThreadStats(**t) for t in data["threads"]],
        resource_stall_cycles=data["resource_stall_cycles"],
        ll_intervals=[tuple(iv) for iv in data["ll_intervals"]],
        commit_cycle_trace=data.get("commit_cycle_trace"),
    )


def encode_result(result) -> dict[str, Any]:
    """Encode a SingleThreadResult or WorkloadResult to a JSON tree."""
    from repro.experiments.runner import SingleThreadResult, WorkloadResult
    if isinstance(result, SingleThreadResult):
        return {"name": result.name,
                "stats": _encode_stats(result.stats),
                "commit_cycles": list(result.commit_cycles)}
    if isinstance(result, WorkloadResult):
        return {"names": list(result.names),
                "policy": result.policy,
                "stats": _encode_stats(result.stats),
                "committed": list(result.committed),
                "st_cpis": list(result.st_cpis),
                "mt_cpis": list(result.mt_cpis),
                "stp": result.stp,
                "antt": result.antt,
                "ipcs": list(result.ipcs)}
    raise TypeError(f"cannot encode {type(result).__name__}")


def decode_result(kind: str, payload: dict[str, Any]):
    """Rebuild the result object a payload was encoded from."""
    from repro.experiments.runner import SingleThreadResult, WorkloadResult
    if kind == "baseline":
        return SingleThreadResult(
            name=payload["name"],
            stats=_decode_stats(payload["stats"]),
            commit_cycles=list(payload["commit_cycles"]))
    if kind == "workload":
        return WorkloadResult(
            names=tuple(payload["names"]),
            policy=payload["policy"],
            stats=_decode_stats(payload["stats"]),
            committed=tuple(payload["committed"]),
            st_cpis=tuple(payload["st_cpis"]),
            mt_cpis=tuple(payload["mt_cpis"]),
            stp=payload["stp"],
            antt=payload["antt"],
            ipcs=tuple(payload["ipcs"]))
    raise ValueError(f"unknown result kind {kind!r}")


# --------------------------------------------------------------------- #
# the store
# --------------------------------------------------------------------- #

class ResultStore:
    """One directory of memoized job results."""

    def __init__(self, root: Path | str | None = None):
        self.root = Path(root) if root is not None else cache_root()

    def path_for(self, spec: JobSpec) -> Path:
        return self.root / f"{spec.cache_key()}.json"

    def get(self, spec: JobSpec):
        """The memoized result for ``spec``, or None on any kind of miss."""
        try:
            path = self.path_for(spec)
        except UncacheableJobError:
            return None
        try:
            text = path.read_text()
        except OSError:          # plain miss (or unreadable) — nothing
            return None          # on disk worth discarding
        try:
            entry = json.loads(text)
        except ValueError:
            self._discard(path)
            return None
        try:
            if (entry["schema"] != SCHEMA_VERSION
                    or entry["repro"] != __version__
                    or entry.get("code") != code_fingerprint()
                    or entry["kind"] != spec.kind):
                return None
            return decode_result(entry["kind"], entry["payload"])
        except (KeyError, TypeError, ValueError):
            self._discard(path)
            return None

    def put(self, spec: JobSpec, result) -> bool:
        """Persist ``result``; False if the spec is uncacheable or the
        filesystem refuses (the engine treats both as cache-off)."""
        try:
            path = self.path_for(spec)
        except UncacheableJobError:
            return False
        entry = {"schema": SCHEMA_VERSION, "repro": __version__,
                 "code": code_fingerprint(), "kind": spec.kind,
                 "payload": encode_result(result)}
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        except OSError:
            return False
        # A failed write or replace leaves no temp file behind.
        try:
            # json.dumps runs the C encoder; json.dump the chunked
            # pure-Python one, for the same bytes.
            with os.fdopen(fd, "w") as fh:
                fh.write(json.dumps(entry, separators=(",", ":")))
            os.replace(tmp, path)
        except OSError:
            self._discard(Path(tmp))
            return False
        except BaseException:
            self._discard(Path(tmp))
            raise
        return True

    def entries(self) -> list[Path]:
        try:
            return sorted(self.root.glob("*.json"))
        except OSError:
            return []

    def __len__(self) -> int:
        return len(self.entries())

    def size_bytes(self) -> int:
        total = 0
        for path in self.entries():
            try:
                total += path.stat().st_size
            except OSError:
                pass
        return total

    def clear(self) -> int:
        """Remove every entry; returns how many were deleted.

        Temp files a failed write left behind are removed too, but are
        not entries and do not count.
        """
        removed = 0
        for path in self.entries():
            if self._discard(path):
                removed += 1
        try:
            leftovers = list(self.root.glob("*.tmp"))
        except OSError:
            leftovers = []
        for path in leftovers:
            self._discard(path)
        return removed

    @staticmethod
    def _discard(path: Path) -> bool:
        try:
            path.unlink()
            return True
        except OSError:
            return False


def default_store() -> ResultStore | None:
    """The environment-configured store, or None when caching is off."""
    if not cache_enabled():
        return None
    return ResultStore()
