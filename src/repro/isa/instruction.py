"""Micro-op instruction model.

The simulator is timing-only: an instruction carries exactly the information
the pipeline needs — operation class, architectural register dependences, a
memory address for loads/stores, and the resolved direction for branches.
Architectural registers 0..31 are integer, 32..63 floating-point; register 0
is the hard-wired zero register (never a real dependence).
"""

from __future__ import annotations

from enum import IntEnum


NUM_ARCH_REGS = 64
FP_REG_BASE = 32
ZERO_REG = 0


class Op(IntEnum):
    """Operation classes with distinct latency / functional-unit needs."""

    IALU = 0
    IMUL = 1
    FALU = 2
    FMUL = 3
    LOAD = 4
    STORE = 5
    BRANCH = 6


class FuClass(IntEnum):
    """Functional-unit pools of Table IV (4 int ALUs, 2 ld/st, 2 FP)."""

    INT_ALU = 0
    LDST = 1
    FP = 2


#: Execution latency in cycles (loads: address generation only; the memory
#: access latency is added by the hierarchy).
EXEC_LATENCY = {
    Op.IALU: 1,
    Op.IMUL: 3,
    Op.FALU: 2,
    Op.FMUL: 4,
    Op.LOAD: 1,
    Op.STORE: 1,
    Op.BRANCH: 1,
}

FU_CLASS = {
    Op.IALU: FuClass.INT_ALU,
    Op.IMUL: FuClass.INT_ALU,
    Op.BRANCH: FuClass.INT_ALU,
    Op.LOAD: FuClass.LDST,
    Op.STORE: FuClass.LDST,
    Op.FALU: FuClass.FP,
    Op.FMUL: FuClass.FP,
}

#: Hot-path variants of the tables above: dense tuples indexed by the op's
#: integer value.  A tuple index is a single C-level operation, while the
#: dict form hashes the enum on every lookup — measurable in the
#: per-instruction issue/dispatch loops (see perf/PROFILE.md).
EXEC_LATENCY_BY_OP = tuple(EXEC_LATENCY[Op(i)] for i in range(len(Op)))
FU_CLASS_BY_OP = tuple(FU_CLASS[Op(i)] for i in range(len(Op)))


def is_fp_reg(reg: int) -> bool:
    return reg >= FP_REG_BASE


class Instr:
    """One dynamic instruction of a thread's trace.

    Attributes:
        pc: static instruction identifier (used to index predictors).
        op: operation class.
        dest: destination architectural register, or ``None``.
        srcs: source architectural registers (zero register filtered out).
        addr: byte address for loads/stores, else ``None``.
        taken: resolved branch direction (branches only), stored as a
            bool: both engines read it as one.

    The class-membership flags (``is_load`` .. ``dest_fp``) are plain
    slots computed once here: every in-flight ``DynInstr`` copies them,
    so the per-fetch hot path never re-derives them from ``op``/``dest``.
    """

    __slots__ = ("pc", "op", "dest", "srcs", "addr", "taken",
                 "is_load", "is_store", "is_branch", "has_dest", "dest_fp",
                 "op_i", "fp_queue", "latency")

    def __init__(self, pc: int, op: Op, dest: int | None = None,
                 srcs: tuple[int, ...] = (), addr: int | None = None,
                 taken: bool = False):
        self.pc = pc
        self.op = op
        self.dest = dest
        self.srcs = tuple(s for s in srcs if s != ZERO_REG)
        self.addr = addr
        self.taken = bool(taken)
        self.is_load = op is Op.LOAD
        self.is_store = op is Op.STORE
        self.is_branch = op is Op.BRANCH
        self.has_dest = dest is not None
        self.dest_fp = dest is not None and dest >= FP_REG_BASE
        self.op_i = int(op)      # plain-int index into the per-op tables
        self.fp_queue = op is Op.FALU or op is Op.FMUL
        self.latency = EXEC_LATENCY[op]  # execute latency, precomputed

    @property
    def is_mem(self) -> bool:
        return self.op is Op.LOAD or self.op is Op.STORE

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = [f"pc={self.pc}", self.op.name]
        if self.dest is not None:
            parts.append(f"d=r{self.dest}")
        if self.srcs:
            parts.append("s=" + ",".join(f"r{s}" for s in self.srcs))
        if self.addr is not None:
            parts.append(f"@{self.addr:#x}")
        if self.op is Op.BRANCH:
            parts.append("T" if self.taken else "NT")
        return f"<Instr {' '.join(parts)}>"
