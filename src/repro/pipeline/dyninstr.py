"""In-flight dynamic instruction record.

Two representations share this module:

* :class:`DynInstr` — the classic one-object-per-instruction record used
  by the ``object`` engine backend (and by :class:`repro.runahead.core.
  RunaheadCore`, which subclasses the object engine's commit machinery).
* The **slot layout** of the compiled ``cext`` backend's native arena
  (:mod:`repro.pipeline.cext`): every ``DynInstr`` field is a per-slot
  column in C memory, the booleans collapse into one integer
  ``flags`` word (bit layout below, mirrored by ``_cext_engine.c`` and
  cross-checked when it loads), and cross-record references become slot
  numbers.  Policies and hooks never see a raw slot: they get the C
  ``SoAView`` proxy, whose getset table maps every ``DynInstr`` field
  (``engine-parity-lint`` checks the coverage).

Heap and event-wheel entries in the arena are *packed* stamps,
``(gseq << SLOT_SHIFT) | slot``: the global age stamp in the high bits
makes plain integer comparison reproduce oldest-first ordering (``gseq``
is unique per dynamic instruction), and the embedded stamp doubles as a
generation check — an entry whose stamp no longer matches the slot's
current one refers to a squashed instruction whose slot was reclaimed,
and is skipped exactly where the object engine skips the squashed
record it still holds a reference to.
"""

from __future__ import annotations

from repro.isa import Instr

#: Slot-index width of packed heap/wheel entries: supports arenas up to
#: ``2**SLOT_SHIFT`` slots (the arena enforces this bound when growing).
SLOT_SHIFT = 20

# ``flags`` column bit layout (one bit per DynInstr boolean, three for
# the arena's free list, plus two of the ``Instr``'s own).  The five
# instruction-class bits (``F_HAS_DEST``, ``F_DEST_FP``, ``F_IS_LOAD``,
# ``F_IS_STORE``, ``F_IS_BRANCH``) are copied from the immutable
# ``Instr`` at fetch, as a fresh DynInstr copies them, and so are
# ``F_TAKEN``/``F_FP_QUEUE``; the rest is mutable pipeline state.
F_IN_IQ = 1 << 0
F_IQ_FP = 1 << 1
F_ISSUED = 1 << 2
F_COMPLETED = 1 << 3
F_HAS_DEST = 1 << 4
F_DEST_FP = 1 << 5
F_SQUASHED = 1 << 6
F_IS_LOAD = 1 << 7
F_IS_STORE = 1 << 8
F_IS_BRANCH = 1 << 9
F_IS_LL = 1 << 10
F_INV = 1 << 11
F_LL_DEP = 1 << 12
#: The arena's reclaim guards: a slot is freed once it is retired (or
#: squashed), holds no reference (the ``refs`` column) and has no
#: queued long-latency detection.
F_RETIRED = 1 << 13
F_IN_DETECTS = 1 << 14
#: Set while a slot sits on the arena's free list; allocation clears
#: it.  Guards the reclaim sites against double-freeing a slot that is
#: reachable from more than one stale structure (e.g. a squashed
#: instruction freed at flush whose completion event is still queued).
F_FREED = 1 << 15
#: The arena's copies of the fetched ``Instr``'s ``taken`` and
#: ``fp_queue``, which no ``DynInstr`` field mirrors: the fetch stage
#: sets them from the trace body (or computes ``taken``) and the
#: branch predictor and dispatch read them, so no stage reads an
#: ``Instr`` (see :mod:`repro.pipeline.cext`).
F_TAKEN = 1 << 16
F_FP_QUEUE = 1 << 17


class DynInstr:
    """One instruction occupying pipeline resources.

    ``seq`` is the per-thread dynamic index (equal to the trace index, which
    makes flush-and-refetch a simple index rewind); ``gseq`` is a global age
    stamp used for oldest-first issue ordering.

    Each fetch builds a fresh record, which CPython frees once no
    pipeline structure holds it.  Only the compiled engine recycles
    instruction storage: the slots of its arena (module doc).
    """

    __slots__ = (
        "instr", "thread", "seq", "gseq",
        "pending", "waiter0", "waiters",
        "fe_ready", "in_iq", "iq_is_fp", "issued",
        "completed",
        "has_dest", "dest_fp", "old_map",
        "squashed",
        "is_load", "is_store", "is_branch",
        "is_ll", "predicted_ll", "fill_line",
        "level", "inv", "ll_parents", "ll_dep",
    )

    def __init__(self, instr: Instr, thread: int, seq: int, gseq: int,
                 fe_ready: int):
        self.instr = instr
        self.thread = thread
        self.seq = seq
        self.gseq = gseq
        self.pending = 0
        # Dependents blocked on this record: the common single waiter
        # lives inline in ``waiter0`` (no list allocation); ``waiters``
        # holds the overflow and is only non-None when ``waiter0`` is.
        self.waiter0: DynInstr | None = None
        self.waiters: list[DynInstr] | None = None
        self.fe_ready = fe_ready
        self.in_iq = False
        self.iq_is_fp = False
        self.issued = False
        self.completed = False
        # Class flags are precomputed on the (immutable) Instr.
        self.has_dest = instr.has_dest
        self.dest_fp = instr.dest_fp
        self.old_map: DynInstr | None = None
        self.squashed = False
        self.is_load = instr.is_load
        self.is_store = instr.is_store
        self.is_branch = instr.is_branch
        self.is_ll = False
        self.predicted_ll: bool | None = None
        self.fill_line: int | None = None
        # Memory level that serviced this load (set at execute).
        self.level = None
        # Runahead "bogus value" flag: the result of this instruction is
        # invalid and must not reach memory (Mutlu et al. 2003).
        self.inv = False
        # Producers this instruction may inherit a long-latency dependence
        # from (populated only when dependence tracking is enabled), and
        # the resolved transitively-dependent flag (final at commit).
        self.ll_parents: tuple[DynInstr, ...] | None = None
        self.ll_dep = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flags = "".join((
            "Q" if self.in_iq else "",
            "I" if self.issued else "",
            "C" if self.completed else "",
            "X" if self.squashed else "",
            "L" if self.is_ll else "",
        ))
        return (f"<DynInstr t{self.thread} #{self.seq} "
                f"{self.instr.op.name} {flags}>")
