"""Compiled C-extension engine backend (``cext``).

This module drives the compiled engine (its history: perf/PROFILE.md):

* ``_cext_engine.c`` (checked in next to this file) implements the fused
  ``_run_until`` loop and every hot stage body — the event-wheel drains,
  commit, issue, dispatch and fetch — over :class:`CextCore`'s native
  slot arena (see "The slot arena" below), along with arena growth,
  ``flush_thread``, the ``SoAView`` proxy and the sanitizer's arena
  check.  It also does work whose Python bodies stay the object
  engine's code and the reference the equivalence tests compare against
  (``tests/test_cext_paths.py``): the fast-forward target
  (``SMTCore._next_cycle``); the base policy's fetch order, ICOUNT and
  COT (``FetchPolicy.fetch_order``); and the address and direction of
  the iteration-varying slots of an exact
  :class:`~repro.workloads.trace.SyntheticTrace`, from its ``_dyn``
  entries parsed once per core.
* The core's and each thread's per-cycle integers (``cycle``, the
  shared and per-thread resource counters, the wake and stall latches,
  the release epoch, ``icount``, ``fetch_index``, ``last_ifetch_line``,
  ``outstanding_misses``, ...) are int64 fields of a native block the
  object owns in its ``_ints`` slot.  The stages use them in place;
  Python reads and writes them through the engine's descriptors,
  installed on :class:`CextCore` and :class:`CextThreadState` under the
  object engine's names, so a hook's write is seen at once and
  ``core.cycle`` outlives ``detach()`` (``tests/test_native_fields.py``).
* The engine's ``Hierarchy``, ``GShare``, ``BTB``, ``LLSR``,
  ``MissPatternPredictor``, ``LastValuePredictor``,
  ``TwoBitMissPredictor``, ``MLPDistancePredictor`` and
  ``BinaryMLPPredictor`` types are
  :class:`~repro.memory.hierarchy.MemoryHierarchy` (caches, TLBs,
  pending fills, the MSHR heap, stream buffers and their stride table),
  the front end's predictors and the paper's long-latency shift
  register as native state, with their Python classes' constructors,
  methods, defaults, counters and ``ll_intervals``/``measured`` lists
  (``tests/test_native_hierarchy.py``,
  ``tests/test_native_predictors.py`` and ``tests/test_cext_paths.py``
  hold each to its class), for every kind and size the config takes.
  A :class:`CextCore` builds its parts through :meth:`CextCore._build`,
  which returns the native type from the class's own constructor
  arguments, so it builds no Python part.  The loop runs only these
  native parts, in C: ``run_until`` takes the core's hierarchy, gshare
  and BTB and each thread's ``llsr``, ``lll_pred``, ``mlp_pred`` and
  ``binary_mlp`` once per run (a hook that reassigns one mid-run is not
  followed) and raises ``TypeError`` for any other object, as
  ``flush_thread`` does for the hierarchy; other models run on backend
  ``'object'``.  It also decides once per run whether an LLSR's
  ``on_measure`` is its thread's own ``ThreadState._train_mlp``, whose
  MLP predictors the commit stage then trains in C; any other callable
  is called.

  What still crosses into Python per cycle or instruction: the stats
  dataclasses' counters, the ``ThreadState`` slots that are not
  per-cycle counters (``waiting_branch``, ``allowed_end``, ...), the
  policy hooks (the ``_is_default_hook`` elision applies unchanged, so
  hook-free configurations never call one; a declared dispatch
  partition is no hook: the loop reads the policy's ``limit_rows`` or
  ``slow_weights`` slot and compares in C, see :class:`CextCore`) and a
  non-base policy's
  ``fetch_order``/``fetch_pending``, ``get`` of other trace types,
  the ``Instr`` a policy reads through a view (built once per view),
  ``ThreadState.clear_owner`` at a flush, and
  ``ThreadState._sync_policy_stall`` when the stall predicate flips.
* :class:`CextCore` is an :class:`~repro.pipeline.core.SMTCore`
  subclass that swaps the object engine's records, event heaps and
  ready queues for the arena, overrides ``_run_until`` with the compiled loop,
  ``flush_thread`` with the arena's and ``_build`` with the native
  parts and :class:`CextThreadState` threads.
  Stats are the object engine's and the threads its ``ThreadState``
  but for where the counters live, so stats, golden fixtures and
  policies see exactly what the object engine's records would show;
  instruction state is read through views and ``core._arena[name]``.
  Architectural behavior is bit-identical; the golden matrix pins it.

The slot arena
--------------

A :class:`CextCore` holds every in-flight instruction in one native
``Arena`` (a C type in ``_cext_engine.c``) as a *slot*.  The arena's
contract, which the C stages and the C ``flush`` share:

* **A dynamic instruction is a slot number.**  Its fields are int64
  columns (the booleans share one ``flags`` word, see
  :mod:`repro.pipeline.dyninstr`) plus owned references where Python
  reads a value back (``predicted_ll``, ``fill_line``, ``level``, the
  cached view).  The free list, ready heaps, event wheels, per-slot
  waiter and parent lists and each thread's ``fe_queue``, ``window``
  and ``rename_map`` are C memory too; Python sees the thread queues
  as read-only int sequences.
* **No ``Instr`` per fetch.**  A fetch copies its instruction into the
  columns (pc, op, latency, dest, packed sources and, for a load or
  store, the address) and the ``flags`` word (its class bits,
  ``F_TAKEN`` and ``F_FP_QUEUE``), from its thread's trace body, read
  once per core: a static position's row, or a varying position's row
  of parsed ``_dyn`` terms from which the fetch computes the address
  and direction.  Only a trace (or position) without a body row calls
  ``get``, and the fetch drops what it returns.  A view builds its
  ``instr`` on the first read and keeps it: the body's shared static
  ``Instr``, a clone of the position's prototype made from the slot's
  address and direction, or ``get(seq)`` again, which the stateless,
  rewindable trace contract (:mod:`repro.workloads.trace`) makes the
  fetched instruction; a view kept past a flush keeps the one it built
  (``tests/test_cext_instr.py``).
* **Packed heap/wheel entries**, ``(gseq << SLOT_SHIFT) | slot``: integer
  order is age order, and a stamp whose gseq no longer matches its
  slot's ``gseq`` column is stale (the generation check).
* **Explicit reclamation.**  A slot is freed at the *last* point the
  engine can reach it (retire with no live references, flush, or the
  drain of its final queued event); stale references are defused by
  the generation check, the ``F_FREED`` bit or the dead-view tombstone.
* **Pristine free list.**  A free slot has ``pending`` 0, ``refs`` 0,
  ``waiter0`` and ``old_map`` -1 and no waiters, parents, ``fill_line``
  or view, so a fetch writes only the columns that vary
  (``REPRO_SANITIZE=1`` checks it, :mod:`.sanitize`).  The arena starts
  at 2,048 slots and doubles when the free list runs dry, up to
  ``1 << SLOT_SHIFT``.

Views (the C ``SoAView``) are made lazily, at most one per dynamic
instruction.  ``core._arena[name]`` reads (or plants) a column, the
free list, a heap or a wheel as a Python list.

The build
---------

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
  CheckedCextCore` instead: the same compiled loop, with the arena and
  the native memory model checked at every ``advance_to`` boundary.
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

from repro.branch import BTB, GShare
from repro.isa import FU_CLASS_BY_OP
from repro.memory.hierarchy import (
    AccessResult,
    MemoryHierarchy,
    ServiceLevel,
    mlp_from_intervals,
)
from repro.pipeline.core import (
    SimulationDeadlock,
    SimulationLimitExceeded,
    SMTCore,
)
from repro.pipeline.dyninstr import (
    F_COMPLETED,
    F_DEST_FP,
    F_FP_QUEUE,
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
    F_TAKEN,
    SLOT_SHIFT,
)
from repro.pipeline.stats import CoreStats, ThreadStats
from repro.pipeline.thread_state import ThreadState
from repro.predictors import (
    LLSR,
    BinaryMLPPredictor,
    LastValuePredictor,
    MissPatternPredictor,
    MLPDistancePredictor,
    TwoBitMissPredictor,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.config import SMTConfig
    from repro.isa.instruction import Instr
    from repro.policies.base import FetchPolicy
    from repro.workloads.trace import SyntheticTrace

__all__ = [
    "CextCore",
    "cext_status",
    "load_cext_core",
    "max_threads",
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
    from repro.policies.base import FetchPolicy
    from repro.workloads.spec import SlotKind
    from repro.workloads.trace import SyntheticTrace
    return {
        "core": CextCore,
        "ts": CextThreadState,
        "stats": ThreadStats,
        "core_stats": CoreStats,
        "instr": Instr,
        "result": AccessResult,
        "trace": SyntheticTrace,
        "policy": FetchPolicy,
        "limit_exc": SimulationLimitExceeded,
        "deadlock_exc": SimulationDeadlock,
        "levels": tuple(sorted(ServiceLevel)),
        "mlp_from_intervals": mlp_from_intervals,
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
            "F_TAKEN": F_TAKEN, "F_FP_QUEUE": F_FP_QUEUE,
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


class CextThreadState(ThreadState):
    """A thread of a :class:`CextCore`.

    Its per-cycle counters (``icount``, the six resource counts,
    ``fetch_index``, ``fetch_blocked_until``, ``dispatch_wait_until``,
    ``dispatch_blocked_epoch``, ``last_ifetch_line``,
    ``outstanding_misses`` and the compiled loop's ``head_ready``) are
    int64 fields of a native block in
    ``_ints``, which the engine's descriptors read and write under those
    names; everything else is the object engine's ``ThreadState``.
    """

    __slots__ = ("_ints",)


#: The parts the engine models natively: each class's twin, by its name
#: in the engine (the class's own but for the hierarchy's), takes the
#: class's constructor arguments.
_TWINS: dict[type, str] = {MemoryHierarchy: "Hierarchy"} | {
    cls: cls.__name__ for cls in (
        GShare, BTB, MissPatternPredictor, LastValuePredictor,
        TwoBitMissPredictor, MLPDistancePredictor, BinaryMLPPredictor,
        LLSR)}


class CextCore(SMTCore):
    """The pipeline state as a native slot arena, driven by the compiled loop.

    The arena (see the module doc) replaces the object engine's records,
    event heaps and ready queues and takes over each thread's
    ``fe_queue``, ``window`` and ``rename_map``; ``_run_until`` is the
    compiled loop.  The two marker slots cache the policy-class
    markers (``getattr`` probes on the policy class), so the C side
    reads them as plain slot loads: ``on_load_complete`` only drops
    identity-keyed state, and ``on_ll_detect`` is the no-op default.
    The dispatch stage applies the policy's partition
    (``SMTCore._partition``) from the ``FetchPolicy`` slot that holds
    its data, read at every evaluation, after any ``can_dispatch``
    override; a row or weight list of the wrong shape or type fails
    the run with ``TypeError``.  :meth:`_build` makes the memory
    hierarchy, gshare, the BTB and each thread's predictors and LLSR
    the engine's native types (the same methods and counters over C
    state), and the loop runs only those.  A config with more than
    :func:`max_threads` threads fails here (backend ``'object'`` runs it).
    Without the compiled engine the arena is ``None`` and the core
    cannot run.
    """

    __slots__ = ("_ints", "_arena", "_full_mask", "_cext_olc_cleanup_only",
                 "_cext_ll_detect_is_base")

    def __init__(self, cfg: SMTConfig, traces: list[SyntheticTrace],
                 policy: FetchPolicy):
        engine = _engine()   # installs the int fields before any is set
        if engine is not None and cfg.num_threads > engine.MAX_THREADS:
            raise ValueError(
                f"the cext engine runs at most {engine.MAX_THREADS} threads,"
                f" not {cfg.num_threads}; run more on backend 'object'")
        super().__init__(cfg, traces, policy)
        self._adopt_arena(engine)
        self._full_mask = (1 << cfg.num_threads) - 1
        pcls = type(policy)
        self._cext_olc_cleanup_only = bool(getattr(
            pcls.on_load_complete, "_identity_keyed_cleanup", False))
        self._cext_ll_detect_is_base = bool(getattr(
            pcls.on_ll_detect, "_is_default_hook", False))

    @staticmethod
    def _build(cls, *args):
        """The engine's twin of ``cls`` built from the same arguments: a
        :class:`CextThreadState` for a ``ThreadState``, else the engine
        type ``_TWINS`` names (the hierarchy, gshare, the BTB, each load
        predictor kind, the MLP predictors and the LLSR), which holds
        every size its class does, so a ``CextCore`` builds no Python
        part; ``cls(*args)`` only when the engine is not loaded."""
        engine = _engine()
        if engine is None:
            return cls(*args)
        if cls is ThreadState:
            return CextThreadState(*args)
        return getattr(engine, _TWINS[cls])(*args)

    def _adopt_arena(self, engine):
        """Swap the object engine's containers for ``engine``'s arena.

        The event heaps and ready queues the base class built become
        ``None``, so a stray object-engine body fails loudly; the
        arena takes over each thread's ``fe_queue``, ``window`` and
        ``rename_map``.  Without an engine the arena is ``None`` too.

        The arena's event wheels are rings of per-cycle buckets, sized
        to a power of two past the longest memory round trip; a later
        event spills into a heap.
        """
        self._ready = self._ready_by_op = None
        self._ready_int = self._ready_ldst = self._ready_fp = None
        self._ev_heap = self._dt_heap = self._wb_heap = None
        mem_cfg = self.cfg.memory
        horizon = 2 * (mem_cfg.mem_latency + mem_cfg.tlb_miss_penalty) + 512
        wheel = max(1024, min(1 << horizon.bit_length(), 1 << 16))
        self._arena = None if engine is None else engine.Arena(
            self.threads, wheel, FU_CLASS_BY_OP)

    def detach(self) -> None:
        super().detach()
        if self._arena is not None:
            # A slot's view references the arena and the arena its
            # views: drop the arena's side, and unhook the arena so the
            # loop never runs on it again.
            self._arena.release()
            self._arena = None

    def view(self, slot: int):
        """The (cached, generation-stamped) view of ``slot``'s occupant."""
        return self._arena.view(slot)

    def flush_thread(self, ts, after_seq: int,
                     cancel_fills: bool | None = None) -> int:
        if cancel_fills is None:
            cancel_fills = self.cfg.memory.cancel_squashed_fills
        return self._arena.flush(self, ts, after_seq, cancel_fills)

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

    def step(self) -> None:
        # SMTCore.step() is one pass of the object engine's loop, whose
        # per-record bodies must never run over slot numbers; the
        # compiled loop only runs to a commit target.
        raise NotImplementedError(
            "CextCore has no per-cycle step; run it to a commit target "
            "(run/advance_to), or use the object engine (backend "
            "'object') to step")


def max_threads() -> int:
    """The most threads a :class:`CextCore` runs; 0 without the engine."""
    engine = _engine()
    return 0 if engine is None else engine.MAX_THREADS


def load_cext_core() -> type[CextCore] | None:
    """:class:`CextCore` when the extension builds and loads, else ``None``.

    The ``backends`` registry's conditional entry point; never raises.
    """
    return CextCore if _engine() is not None else None
