"""Benchmark specifications and static loop-body construction.

A benchmark analog is a loop whose body is built from four memory kernels
plus compute filler:

* **streams** — independent strided walks over large arrays.  With an 8-byte
  stride and 64-byte lines, each array misses once every 8 iterations; the
  misses of different arrays are independent, so they overlap: this is the
  source of *regular, prefetchable* MLP.
* **chase chains** — pointer chases (each load's address depends on the
  previous load of the same chain).  Chains are serial inside and parallel
  across: ``chase_chains`` controls the MLP of irregular misses, and the
  random walk defeats the stream prefetcher, like real pointer codes.
* **bursts** — every ``burst_every`` iterations, ``burst_loads`` independent
  loads touch random lines of a large region (guaranteed long-latency,
  clustered): controls MLP and miss rate independently for low-miss-rate,
  high-MLP programs such as art and apsi.
* **random/hot loads, stores, ALU ops, branches** — fill the body to the
  target length and set the instruction mix, ILP, and branch behaviour.

The long-latency load rate is ``misses-per-iteration / body length`` and the
MLP is set by how many independent misses fall within one ROB window — both
directly controlled by the parameters below.  `repro.workloads.registry`
instantiates one spec per SPEC CPU2000 benchmark, calibrated against
Table I.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

from repro.isa import FP_REG_BASE, Op


class SlotKind(IntEnum):
    INDUCTION = 0
    STREAM_LOAD = 1
    CHASE_LOAD = 2
    BURST_LOAD = 3
    RANDOM_LOAD = 4
    HOT_LOAD = 5
    STORE = 6
    STREAM_STORE = 7
    INT_OP = 8
    FP_OP = 9
    COND_BRANCH = 10
    LOOP_BRANCH = 11
    CONSUMER = 12


@dataclass(frozen=True, slots=True)
class Slot:
    """One static instruction of the loop body."""

    kind: SlotKind
    pc: int
    op: Op
    dest: int | None = None
    srcs: tuple[int, ...] = ()
    index: int = 0          # which stream / chain / burst slot this is
    taken_prob: float = 1.0  # branches only


@dataclass(frozen=True, slots=True)
class BenchmarkSpec:
    """Parameters of one synthetic benchmark analog."""

    name: str
    fp_data: bool = False
    # Streaming kernels.
    streams: int = 0
    stream_stride: int = 8
    stream_footprint: float = 1.0      # per-array, in L3-capacity units
    stream_stagger: float = 1.0        # 0 = aligned misses .. 1 = spread out
    # Pointer chasing.
    chase_chains: int = 0
    chase_every: int = 1
    chase_footprint: float = 8.0
    # ALU instructions consuming each chase load's result.  They wait in
    # the issue queue for the whole miss latency, clogging it exactly the
    # way real pointer-chasing code does — the resource pressure that
    # long-latency-aware fetch policies exist to relieve.
    chase_dependents: int = 0
    # Clustered random bursts.
    burst_loads: int = 0
    burst_every: int = 64
    burst_footprint: float = 8.0
    # Scattered random loads (every iteration, partially cached).
    random_loads: int = 0
    random_footprint: float = 0.5
    # Cache-resident traffic and compute filler.
    hot_loads: int = 4
    hot_footprint_bytes: int = 4096
    stores: int = 1
    stream_stores: int = 0
    int_ops: int = 8
    fp_ops: int = 0
    dep_chain_frac: float = 0.3
    # Control flow.
    cond_branches: int = 1
    branch_taken_prob: float = 0.08
    # Placement of memory operations across the body (MLP-distance knob).
    spread: float = 1.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("benchmark needs a name")
        for attr in ("streams", "chase_chains", "burst_loads", "random_loads",
                     "hot_loads", "stores", "stream_stores", "int_ops",
                     "fp_ops", "cond_branches"):
            if getattr(self, attr) < 0:
                raise ValueError(f"{attr} must be non-negative")
        if self.stream_stride <= 0 or self.chase_every <= 0 or self.burst_every <= 0:
            raise ValueError("strides and intervals must be positive")
        if not 0.0 <= self.spread <= 1.0:
            raise ValueError("spread must be within [0, 1]")
        if not 0.0 <= self.stream_stagger <= 1.0:
            raise ValueError("stream_stagger must be within [0, 1]")

    @property
    def body_length(self) -> int:
        return (1                                  # induction
                + 2 * self.streams                 # load + consumer
                + self.chase_chains * (1 + self.chase_dependents)
                + self.burst_loads
                + self.random_loads
                + self.hot_loads
                + self.stores + self.stream_stores
                + self.int_ops + self.fp_ops
                + self.cond_branches + 1)          # + loop-back branch

    @property
    def misses_per_iteration(self) -> float:
        """Expected long-latency misses per loop iteration (no prefetcher)."""
        line = 64
        per_stream = self.stream_stride / line
        return (self.streams * min(per_stream, 1.0)
                + self.chase_chains / self.chase_every
                + self.burst_loads / self.burst_every)

    @property
    def expected_lll_per_kilo(self) -> float:
        """Back-of-envelope LLL/1K-instruction rate (ignores the prefetcher)."""
        return 1000.0 * self.misses_per_iteration / self.body_length


# Architectural register allocation for generated bodies.
R_IND = 1      # loop induction variable
R_INV = 2      # loop-invariant operand
R_VAL = 3      # store data
_INT_SCRATCH = (4, 5, 6, 7)
_FP_SCRATCH = tuple(FP_REG_BASE + r for r in (4, 5, 6, 7))
_INT_POOL_START = 8
_FP_POOL_START = FP_REG_BASE + 8


def build_body(spec: BenchmarkSpec) -> list[Slot]:
    """Materialize the static loop body for ``spec``.

    Memory operations are placed across the first ``spread`` fraction of the
    body (evenly spaced); compute fills the gaps.  The loop-back branch is
    always last, the induction update always first.
    """
    int_reg = _INT_POOL_START
    fp_reg = _FP_POOL_START

    def next_int() -> int:
        nonlocal int_reg
        reg = int_reg
        int_reg = int_reg + 1 if int_reg + 1 < FP_REG_BASE else _INT_POOL_START
        return reg

    def next_fp() -> int:
        nonlocal fp_reg
        reg = fp_reg
        fp_reg = fp_reg + 1 if fp_reg + 1 < 2 * FP_REG_BASE else _FP_POOL_START
        return reg

    mem_slots: list[Slot] = []
    compute_slots: list[Slot] = []
    consumer_op = Op.FALU if spec.fp_data else Op.IALU

    for j in range(spec.streams):
        dest = next_fp() if spec.fp_data else next_int()
        mem_slots.append(Slot(SlotKind.STREAM_LOAD, 0, Op.LOAD, dest,
                              (R_IND,), index=j))
        scratch = (_FP_SCRATCH if spec.fp_data else _INT_SCRATCH)
        compute_slots.append(Slot(SlotKind.CONSUMER, 0, consumer_op,
                                  scratch[j % len(scratch)], (dest,), index=j))
    for c in range(spec.chase_chains):
        reg = next_int()
        mem_slots.append(Slot(SlotKind.CHASE_LOAD, 0, Op.LOAD, reg, (reg,),
                              index=c))
        for d in range(spec.chase_dependents):
            compute_slots.append(Slot(
                SlotKind.CONSUMER, 0, Op.IALU,
                _INT_SCRATCH[(c + d) % len(_INT_SCRATCH)], (reg,), index=c))
    for b in range(spec.burst_loads):
        dest = next_int()
        mem_slots.append(Slot(SlotKind.BURST_LOAD, 0, Op.LOAD, dest, (R_IND,),
                              index=b))
    for r in range(spec.random_loads):
        mem_slots.append(Slot(SlotKind.RANDOM_LOAD, 0, Op.LOAD, next_int(),
                              (R_IND,), index=r))
    for h in range(spec.hot_loads):
        mem_slots.append(Slot(SlotKind.HOT_LOAD, 0, Op.LOAD, next_int(),
                              (R_IND,), index=h))
    for s in range(spec.stores):
        mem_slots.append(Slot(SlotKind.STORE, 0, Op.STORE, None,
                              (R_VAL, R_IND), index=s))
    for s in range(spec.stream_stores):
        mem_slots.append(Slot(SlotKind.STREAM_STORE, 0, Op.STORE, None,
                              (R_VAL, R_IND), index=s))

    prev_dest = R_INV
    for k in range(spec.int_ops):
        op = Op.IMUL if k % 7 == 6 else Op.IALU
        src = prev_dest if (k % 10) < spec.dep_chain_frac * 10 else R_INV
        dest = _INT_SCRATCH[k % len(_INT_SCRATCH)]
        compute_slots.append(Slot(SlotKind.INT_OP, 0, op, dest,
                                  (src, R_IND), index=k))
        prev_dest = dest
    prev_dest = R_INV
    for k in range(spec.fp_ops):
        op = Op.FMUL if k % 5 == 4 else Op.FALU
        if (k % 10) < spec.dep_chain_frac * 10:
            src = prev_dest
        elif k % 2 == 0:
            # Root half the chains at a scratch register: its most recent
            # writer is a stream-load consumer or an earlier FP op, so the
            # compute transitively depends on loaded data.  During a
            # long-latency miss these instructions wait in the FP issue
            # queue, raising the thread's icount — the self-limiting
            # behaviour ICOUNT relies on in real floating-point codes.
            # The other half works on loop-invariant accumulators.
            src = _FP_SCRATCH[(k + 1) % len(_FP_SCRATCH)]
        else:
            src = R_INV
        dest = _FP_SCRATCH[k % len(_FP_SCRATCH)]
        compute_slots.append(Slot(SlotKind.FP_OP, 0, op, dest, (src,),
                                  index=k))
        prev_dest = dest
    for k in range(spec.cond_branches):
        src = _INT_SCRATCH[k % len(_INT_SCRATCH)]
        compute_slots.append(Slot(SlotKind.COND_BRANCH, 0, Op.BRANCH, None,
                                  (src,), index=k,
                                  taken_prob=spec.branch_taken_prob))

    interior = _place(mem_slots, compute_slots, spec.spread)
    body = [Slot(SlotKind.INDUCTION, 0, Op.IALU, R_IND, (R_IND,))]
    body.extend(interior)
    body.append(Slot(SlotKind.LOOP_BRANCH, 0, Op.BRANCH, None, (R_IND,),
                     taken_prob=1.0))
    return [_with_pc(slot, pc) for pc, slot in enumerate(body)]


def _with_pc(slot: Slot, pc: int) -> Slot:
    return Slot(slot.kind, pc, slot.op, slot.dest, slot.srcs, slot.index,
                slot.taken_prob)


def _place(mem: list[Slot], compute: list[Slot], spread: float) -> list[Slot]:
    """Distribute memory slots over the leading ``spread`` of the body."""
    total = len(mem) + len(compute)
    if not mem:
        return list(compute)
    if not compute:
        return list(mem)
    span = max(len(mem), int(round(total * spread)))
    span = min(span, total)
    positions = {int(k * span / len(mem)) for k in range(len(mem))}
    # Collisions shift right so every mem slot gets a unique position.
    result: list[Slot | None] = [None] * total
    mem_iter = iter(mem)
    placed = 0
    for pos in sorted(positions):
        while pos < total and result[pos] is not None:
            pos += 1
        if pos < total:
            result[pos] = next(mem_iter)
            placed += 1
    compute_iter = iter(compute)
    remaining_mem = list(mem_iter)
    fill = remaining_mem + list(compute_iter)
    fill_iter = iter(fill)
    for idx in range(total):
        if result[idx] is None:
            result[idx] = next(fill_iter)
    return [slot for slot in result if slot is not None]
