"""In-flight dynamic instruction record.

Two representations share this module:

* :class:`DynInstr` — the classic one-object-per-instruction record used
  by the ``object`` engine backend (and by :class:`repro.runahead.core.
  RunaheadCore`, which subclasses the object engine's commit machinery).
* The **slot layout** of the compiled ``cext`` backend's native arena
  (:mod:`repro.pipeline.soa`): every ``DynInstr`` field is a per-slot
  column in C memory, the eleven booleans collapse into one integer
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

# ``flags`` column bit layout (one bit per DynInstr boolean).  The five
# F_CLS_* bits are instruction-class constants copied from the immutable
# ``Instr`` (see :func:`instr_flags`); the rest is mutable pipeline state.
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
F_RETIRED = 1 << 13
F_IN_DETECTS = 1 << 14
#: Set while a slot sits on the free list; reinit clears it.  Guards the
#: reclaim sites against double-freeing a slot that is reachable from
#: more than one stale structure (e.g. a squashed instruction freed at
#: flush whose completion event is still queued).
F_FREED = 1 << 15


def instr_flags(instr: Instr) -> int:
    """The fetch-time ``flags`` word for one static instruction.

    Exactly the class bits a fresh :class:`DynInstr` copies in
    ``__init__``; every mutable bit starts clear.
    """
    flags = 0
    if instr.has_dest:
        flags |= F_HAS_DEST
    if instr.dest_fp:
        flags |= F_DEST_FP
    if instr.is_load:
        flags |= F_IS_LOAD
    elif instr.is_store:
        flags |= F_IS_STORE
    elif instr.is_branch:
        flags |= F_IS_BRANCH
    return flags


class DynInstr:
    """One instruction occupying pipeline resources.

    ``seq`` is the per-thread dynamic index (equal to the trace index, which
    makes flush-and-refetch a simple index rewind); ``gseq`` is a global age
    stamp used for oldest-first issue ordering.

    Records are pool-recycled by the core (see ``SMTCore._di_pool``):
    ``refs`` counts the long-lived references that outlive the window slot
    (the rename-map current entry, younger instructions' ``old_map``
    undo records, and captured ``ll_parents``), ``retired`` marks
    architectural commit, and ``in_detects`` marks a still-queued
    long-latency detection event.  A record returns to the pool only when
    it is retired with ``refs == 0`` and no queued detection, so a pooled
    object is never reachable from live simulation state.
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
        "refs", "retired", "in_detects",
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
        self.refs = 0
        self.retired = False
        self.in_detects = False

    def reinit(self, instr: Instr, thread: int, seq: int, gseq: int,
               fe_ready: int) -> None:
        """Re-arm a pooled record: ``__init__`` minus the pool invariants.

        The commit-path recycle guards admit a record to the pool only
        when it retired with no live references, so these fields are
        *provably* already pristine and are not re-written here:
        ``waiter0``/``waiters``/``old_map``/``ll_parents`` are ``None``
        (drained at completion / cleared at commit), ``squashed`` and
        ``inv`` are False (committed records are neither; RunaheadCore,
        the only INV producer, opts out of pooling), ``in_iq`` is False
        (issue cleared it), ``refs`` is 0 and ``in_detects`` False
        (recycle guards).  Three further fields may carry a stale value
        but are always written before their first possible read in the
        new lifetime, so they are skipped too: ``iq_is_fp`` (written at
        dispatch; every read is gated on ``in_iq``), ``predicted_ll``
        (written at fetch for loads; every read is gated on
        ``is_load``), and ``level`` (written at execute for loads; read
        only for completed loads).  ``tests/test_pool.py`` cross-checks
        a reused record against a fresh one field by field, modulo that
        documented skip list.

        The fetch loop inlines this body (``SMTCore._fetch_thread``) —
        keep the two in sync.
        """
        self.instr = instr
        self.thread = thread
        self.seq = seq
        self.gseq = gseq
        self.pending = 0         # loads park -1 here as a miss marker
        self.fe_ready = fe_ready
        self.issued = False
        self.completed = False
        self.has_dest = instr.has_dest
        self.dest_fp = instr.dest_fp
        self.is_load = instr.is_load
        self.is_store = instr.is_store
        self.is_branch = instr.is_branch
        self.is_ll = False
        self.fill_line = None
        self.ll_dep = False
        self.retired = False

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
