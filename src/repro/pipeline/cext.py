"""Compiled C-extension engine backend (``cext``).

PR 7's struct-of-arrays pass concluded that on CPython the representation
change alone is not enough — the SoA columns are "the right substrate for
a C extension", which is the only remaining path to multiples rather than
percents (perf/PROFILE.md).  This module is that extension's driver:

* ``_cext_engine.c`` (checked in next to this file) implements the five
  hot stage bodies — the fused ``_run_until`` loop, fetch, dispatch,
  issue, commit and the event-wheel drains — directly against the SoA
  columns of :class:`~repro.pipeline.soa.SoACore`, crossing back into
  Python only at policy-hook points.  The existing ``_is_default_hook``
  elision applies unchanged: hook-free configurations never leave C.
* :class:`CextCore` is a thin :class:`SoACore` subclass whose only
  override is ``_run_until``; all state lives in the ordinary Python
  objects (columns, wheels, heaps, ``ThreadState``), so every
  introspection path — stats, golden fixtures, sanitizers, policies —
  sees exactly what the pure-Python engines see.  Architectural behavior
  is bit-identical; the golden matrix pins it.

The extension is built lazily from the checked-in C source with the
host's own compiler (``cc``/``gcc``/``clang`` — no Cython, no mypyc) and
cached by source hash, so the first use on a machine pays one compile
and later uses load the cached shared object.  Wherever it loads, it is
the engine every unpinned run executes on (see
:func:`repro.experiments.runner.default_backend`).  When no toolchain
exists the probe fails quietly: :func:`load_cext_core` returns ``None``,
the ``backends`` registry simply omits ``cext``, and unpinned runs fall
back to the object engine with bit-identical results.

Environment knobs:

* ``REPRO_CEXT=0`` disables the backend entirely (probe reports it), so
  unpinned runs use the object engine.
* ``REPRO_CEXT_CACHE`` overrides the build-cache directory.
* ``REPRO_CEXT_STAGES`` (an integer mask of ``ST_*`` bits) selectively
  re-routes individual stages through their Python fallbacks — a
  debugging aid for bisecting a divergence to one stage.
* ``REPRO_SANITIZE=1`` runs the checked engine instead — see
  :mod:`repro.pipeline.sanitize`; the C loop is bypassed, not silently
  unchecked.
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path
from types import ModuleType
from typing import TYPE_CHECKING, Any

from repro.memory.hierarchy import AccessResult, MemoryHierarchy, ServiceLevel
from repro.pipeline.core import SimulationLimitExceeded
from repro.pipeline.dyninstr import (
    F_COMPLETED,
    F_DEST_FP,
    F_FREED,
    F_HAS_DEST,
    F_IN_DETECTS,
    F_IN_IQ,
    F_INV,
    F_IQ_FP,
    F_IS_BRANCH,
    F_IS_LL,
    F_IS_LOAD,
    F_IS_STORE,
    F_ISSUED,
    F_LL_DEP,
    F_RETIRED,
    F_SQUASHED,
    SLOT_SHIFT,
    SoAView,
)
from repro.pipeline.soa import SoACore
from repro.pipeline.stats import CoreStats, ThreadStats
from repro.pipeline.thread_state import ThreadState

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.config import SMTConfig
    from repro.isa.instruction import Instr
    from repro.policies.base import FetchPolicy
    from repro.workloads.trace import SyntheticTrace

__all__ = [
    "CextCore",
    "cext_status",
    "load_cext_core",
]

_SOURCE = Path(__file__).with_name("_cext_engine.c")

# Probe/build outcome, memoized for the life of the process:
# (engine module | None, human-readable status string).
_state: tuple[ModuleType | None, str] | None = None


def _find_compiler() -> str | None:
    """The first usable C compiler, honoring ``CC``; ``None`` if none."""
    for cand in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if cand and shutil.which(cand):
            return cand
    return None


def _cache_dir() -> Path:
    override = os.environ.get("REPRO_CEXT_CACHE")
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro-cext"


def _build(compiler: str) -> Path:
    """Compile (or reuse) the extension; returns the shared-object path."""
    source = _SOURCE.read_bytes()
    suffix = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
    key = hashlib.sha256(
        source
        + sys.implementation.cache_tag.encode()
        + suffix.encode()
        + Path(compiler).name.encode()).hexdigest()[:16]
    out = _cache_dir() / f"_cext_engine-{key}{suffix}"
    if out.exists():
        return out
    include = sysconfig.get_paths()["include"]
    if not (Path(include) / "Python.h").exists():
        raise RuntimeError(f"no Python.h under {include}")
    out.parent.mkdir(parents=True, exist_ok=True)
    tmp = out.with_name(out.name + f".tmp{os.getpid()}")
    cmd = [compiler, "-O2", "-fPIC", "-shared", "-I", include,
           str(_SOURCE), "-o", str(tmp)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        tmp.unlink(missing_ok=True)
        tail = (proc.stderr or proc.stdout).strip().splitlines()[-8:]
        raise RuntimeError(
            "cext build failed: " + " | ".join(tail))
    os.replace(tmp, out)  # atomic: concurrent builders race harmlessly
    return out


def _setup_namespace() -> dict[str, Any]:
    """Everything ``_cext_engine.setup`` resolves offsets/constants from."""
    from repro.isa.instruction import Instr
    return {
        "core": CextCore,
        "ts": ThreadState,
        "stats": ThreadStats,
        "core_stats": CoreStats,
        "instr": Instr,
        "result": AccessResult,
        "view_cls": SoAView,
        "limit_exc": SimulationLimitExceeded,
        "l1_level": ServiceLevel.L1,
        # setup() cross-checks these against the compiled-in copies so a
        # drift in the Python flag layout fails loudly, not bit-rottenly.
        "flags": {
            "F_IN_IQ": F_IN_IQ, "F_IQ_FP": F_IQ_FP, "F_ISSUED": F_ISSUED,
            "F_COMPLETED": F_COMPLETED, "F_HAS_DEST": F_HAS_DEST,
            "F_DEST_FP": F_DEST_FP, "F_SQUASHED": F_SQUASHED,
            "F_IS_LOAD": F_IS_LOAD, "F_IS_STORE": F_IS_STORE,
            "F_IS_BRANCH": F_IS_BRANCH, "F_IS_LL": F_IS_LL,
            "F_INV": F_INV, "F_LL_DEP": F_LL_DEP, "F_RETIRED": F_RETIRED,
            "F_IN_DETECTS": F_IN_DETECTS, "F_FREED": F_FREED,
            "SLOT_SHIFT": SLOT_SHIFT,
        },
    }


def _probe() -> tuple[ModuleType | None, str]:
    if os.environ.get("REPRO_CEXT", "").strip() == "0":
        return None, "disabled by REPRO_CEXT=0"
    compiler = _find_compiler()
    if compiler is None:
        return None, "no C compiler on PATH (tried $CC, cc, gcc, clang)"
    try:
        path = _build(compiler)
        spec = importlib.util.spec_from_file_location(
            "repro.pipeline._cext_engine", path)
        if spec is None or spec.loader is None:
            return None, f"could not create import spec for {path}"
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        module.setup(_setup_namespace())
    except Exception as exc:  # noqa: BLE001 - probe must never raise
        return None, f"build/load failed: {exc}"
    return module, f"built with {compiler} -> {path}"


def _engine() -> ModuleType | None:
    global _state
    if _state is None:
        _state = _probe()
    return _state[0]


def cext_status() -> str:
    """A one-line human-readable probe outcome (never raises)."""
    engine = _engine()
    assert _state is not None
    return ("available: " if engine is not None else "unavailable: ") \
        + _state[1]


def _stage_mask(engine: ModuleType) -> int:
    raw = os.environ.get("REPRO_CEXT_STAGES", "").strip()
    if not raw:
        return int(engine.ALL_STAGES)
    try:
        return int(raw, 0)
    except ValueError:
        return int(engine.ALL_STAGES)


class CextCore(SoACore):
    """The SoA engine with its fused loop compiled to C.

    State layout is exactly :class:`SoACore`'s; only ``_run_until`` is
    replaced.  The two extra slots cache the policy-class hook markers
    the Python loop reads via ``getattr`` each run — the C side wants
    them as plain slot loads.
    """

    __slots__ = ("_cext_olc_cleanup_only", "_cext_ll_detect_is_base")

    def __init__(self, cfg: SMTConfig, traces: list[SyntheticTrace],
                 policy: FetchPolicy,
                 hierarchy: MemoryHierarchy | None = None):
        super().__init__(cfg, traces, policy, hierarchy)
        pcls = type(policy)
        self._cext_olc_cleanup_only = bool(getattr(
            pcls.on_load_complete, "_identity_keyed_cleanup", False))
        self._cext_ll_detect_is_base = bool(getattr(
            pcls.on_ll_detect, "_is_default_hook", False))

    def _run_until(self, max_commits: int, max_cycles: int | None) -> None:
        engine = _engine()
        if engine is None or type(self).step is not SoACore.step:
            # No compiled loop (shouldn't happen via the registry, which
            # only offers this class when the probe passed) or a subclass
            # changed per-cycle behavior: the SoA driver handles both.
            SoACore._run_until(self, max_commits, max_cycles)
            return
        limit = max_cycles if max_cycles is not None else self.cfg.max_cycles
        engine.run_until(self, max_commits, limit, _stage_mask(engine))


def load_cext_core() -> type[SoACore] | None:
    """:class:`CextCore` when the extension builds and loads, else ``None``.

    The ``backends`` registry's conditional entry point; never raises.
    """
    return CextCore if _engine() is not None else None
