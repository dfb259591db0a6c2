"""Compiled C-extension engine backend (``cext``).

This module drives the compiled engine (its history: perf/PROFILE.md):

* ``_cext_engine.c`` (checked in next to this file) implements the fused
  ``_run_until`` loop and every hot stage body — the event-wheel drains,
  commit, issue, dispatch and fetch — over the native slot arena of
  :class:`~repro.pipeline.soa.SoACore` (instruction columns, free list,
  ready heaps, event wheels, thread queues and rename maps as C memory),
  along with arena growth, ``flush_thread``, the ``SoAView`` proxy and
  the sanitizer's arena check.  It also does four kinds of work whose
  Python bodies stay the object engine's code and the reference the
  equivalence tests compare against (``tests/test_cext_paths.py``): the
  fast-forward target (``SMTCore._next_cycle``); ``LLSR.commit_zeros``
  on an exact :class:`~repro.predictors.LLSR`; loads, store drains and
  instruction fetches that hit the TLB and L1 with no live fill, on an
  exact :class:`~repro.memory.hierarchy.MemoryHierarchy`; and the
  iteration-varying slots of an exact
  :class:`~repro.workloads.trace.SyntheticTrace`.

  What still crosses into Python per cycle or instruction: the
  ``ThreadState``, core, stats and ``Instr`` slots (read and written as
  Python objects; no arena access boxes or allocates), the policy hooks
  (the ``_is_default_hook`` elision applies unchanged, so hook-free
  configurations never call one), the other memory accesses
  (``load``/``store``/``ifetch``), the branch predictor and BTB, the
  long-latency load predictor, ``LLSR.commit`` for long-latency loads,
  ``get`` of other trace types, ``cancel_fill`` and
  ``ThreadState.clear_owner`` at a flush, and
  ``ThreadState._sync_policy_stall`` when the stall predicate flips.
* :class:`CextCore` is a thin :class:`SoACore` subclass whose only
  override is ``_run_until``.  Stats and ``ThreadState`` are the object
  engine's, so stats, golden fixtures and policies see exactly what the
  object engine's records would show; instruction state is read through
  views and ``core._arena[name]``.  Architectural behavior is
  bit-identical; the golden matrix pins it.

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
* ``REPRO_SANITIZE=1`` runs :class:`~repro.pipeline.sanitize.
  CheckedCextCore` instead: the same compiled loop, with the arena
  checked at every ``advance_to`` boundary.
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
from repro.pipeline.core import SimulationDeadlock, SimulationLimitExceeded
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
    from repro.memory.cache import Cache
    from repro.memory.stream_buffer import StreamBufferPrefetcher
    from repro.memory.stride_predictor import StridePredictor, _Entry
    from repro.memory.tlb import TLB
    from repro.predictors.llsr import LLSR
    from repro.workloads.spec import SlotKind
    from repro.workloads.trace import SyntheticTrace
    return {
        "core": CextCore,
        "ts": ThreadState,
        "stats": ThreadStats,
        "core_stats": CoreStats,
        "instr": Instr,
        "result": AccessResult,
        "llsr": LLSR,
        "hier": MemoryHierarchy,
        "cache": Cache,
        "tlb": TLB,
        "prefetcher": StreamBufferPrefetcher,
        "stride": StridePredictor,
        "stride_entry": _Entry,
        "trace": SyntheticTrace,
        "limit_exc": SimulationLimitExceeded,
        "deadlock_exc": SimulationDeadlock,
        "l1_level": ServiceLevel.L1,
        "slot_kinds": {kind.name: int(kind) for kind in SlotKind},
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


class CextCore(SoACore):
    """The slot-arena pipeline, driven by the compiled loop.

    State layout is exactly :class:`SoACore`'s; only ``_run_until`` is
    replaced.  The two extra slots cache the policy-class hook markers
    (``getattr`` probes on the policy class), so the C side reads them
    as plain slot loads.
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
        if engine is None:
            # The registry only offers this class when the probe passed;
            # a core built by hand on a host without the extension has
            # no loop to run.
            raise RuntimeError(
                f"CextCore needs the compiled engine ({cext_status()})")
        limit = max_cycles if max_cycles is not None else self.cfg.max_cycles
        engine.run_until(self, max_commits, limit)


def load_cext_core() -> type[CextCore] | None:
    """:class:`CextCore` when the extension builds and loads, else ``None``.

    The ``backends`` registry's conditional entry point; never raises.
    """
    return CextCore if _engine() is not None else None
