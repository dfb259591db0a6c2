"""Deterministic, rewindable synthetic instruction traces.

A trace is a pure function of ``(spec, memory config, seed, thread base)``:
``get(i)`` returns the i-th dynamic instruction, computed statelessly from
the loop body and the iteration number.  This is what allows the pipeline to
*flush and refetch* a thread after a squash — rewinding is just re-reading
earlier indices; the regenerated instructions are bit-identical.

Address-space layout (per thread, offset by ``base``):

    code   region 0    — 4 bytes per static instruction
    hot    region 1    — small cache-resident working set
    burst  region 2
    random region 3
    chase  region 8+c  — one walk area per chain
    stout  region 24+s — streaming store targets
    stream region 32+j — one array per stream

Each region additionally gets a pseudo-random line-granular offset so that
region bases do not all alias to cache set 0 (they are 2^32-aligned
otherwise, which would put every array in the same set of every cache).
"""

from __future__ import annotations

from repro.config import MemoryConfig
from repro.isa import Instr, Op
from repro.util import mix64, uniform_double
from repro.workloads.spec import BenchmarkSpec, Slot, SlotKind, build_body

_REGION_SHIFT = 32
_CHASE_WALK_MULT = 2654435761  # Knuth multiplicative-hash constant (odd)

_INSTR_NEW = Instr.__new__


def _from_proto(proto: Instr, addr: int | None, taken: bool) -> Instr:
    """Clone a per-slot prototype with a fresh address/direction.

    ``Instr.__init__`` re-filters the source tuple on every call; for the
    iteration-varying slots only ``addr``/``taken`` actually change, so the
    fetch path clones a prototype (sharing the filtered ``srcs`` tuple)
    with six direct slot stores instead.
    """
    ins = _INSTR_NEW(Instr)
    ins.pc = proto.pc
    ins.op = proto.op
    ins.dest = proto.dest
    ins.srcs = proto.srcs
    ins.addr = addr
    ins.taken = taken
    ins.is_load = proto.is_load
    ins.is_store = proto.is_store
    ins.is_branch = proto.is_branch
    ins.has_dest = proto.has_dest
    ins.dest_fp = proto.dest_fp
    ins.op_i = proto.op_i
    ins.fp_queue = proto.fp_queue
    ins.latency = proto.latency
    return ins


class SyntheticTrace:
    """Lazy, stateless dynamic instruction stream for one thread.

    Slotted so the compiled engine reads it by slot offset: each core
    parses :attr:`_dyn` once into rows from which its fetch stage
    computes an iteration-varying instruction's address and direction
    (an ``Instr`` is built only when a policy reads one), and calls
    :meth:`get` only for other trace types.
    """

    __slots__ = ("spec", "seed", "base", "pc_base", "body", "body_len",
                 "_line", "code_base", "hot_base", "hot_lines", "stream_fp",
                 "stream_bases", "chase_fp_lines", "chase_bases",
                 "burst_base", "burst_lines", "random_base", "random_lines",
                 "stout_bases", "stout_fp", "_static", "_protos", "_dyn")

    def __init__(self, spec: BenchmarkSpec, mem_cfg: MemoryConfig,
                 seed: int = 0, base: int = 0, pc_base: int = 0):
        self.spec = spec
        self.seed = seed
        self.base = base
        self.pc_base = pc_base
        body = build_body(spec)
        if pc_base:
            body = [Slot(s.kind, pc_base + s.pc, s.op, s.dest, s.srcs,
                         s.index, s.taken_prob) for s in body]
        self.body: list[Slot] = body
        self.body_len = len(self.body)
        line = mem_cfg.line_size
        l3 = mem_cfg.l3.size
        self._line = line

        def region(idx: int) -> int:
            # The line-granular skew spreads region bases across cache sets;
            # without it every 2^32-aligned region would map to set 0.
            skew = (mix64(idx, 0xA11A5) % 4096) * line
            return base + (idx << _REGION_SHIFT) + skew

        def footprint(units: float) -> int:
            # Align the region footprint to whole lines, at least 4 lines.
            return max(int(units * l3) // line, 4) * line

        self.code_base = region(0)
        self.hot_base = region(1)
        # The hot set must stay cache-resident on scaled-down machines too:
        # cap it at half the L1D capacity.
        hot_bytes = min(spec.hot_footprint_bytes, mem_cfg.l1d.size // 2)
        self.hot_lines = max(hot_bytes // line, 1)
        stride = spec.stream_stride
        period = max(line // stride, 1)
        self.stream_fp = footprint(spec.stream_footprint)
        self.stream_bases = []
        for j in range(spec.streams):
            phase = 0
            if spec.streams:
                phase = int(j * period * spec.stream_stagger / spec.streams) % period
            self.stream_bases.append(region(32 + j) + phase * stride)
        self.chase_fp_lines = footprint(spec.chase_footprint) // line
        self.chase_bases = [region(8 + c) for c in range(spec.chase_chains)]
        self.burst_base = region(2)
        self.burst_lines = footprint(spec.burst_footprint) // line
        self.random_base = region(3)
        self.random_lines = footprint(spec.random_footprint) // line
        self.stout_bases = [region(24 + s) for s in range(spec.stream_stores)]
        self.stout_fp = footprint(spec.stream_footprint)
        # Pre-materialize instructions for slots that do not vary by
        # iteration (compute, consumers, loop-back branch), and prototypes
        # (pc/op/dest/filtered srcs) for the iteration-varying ones so
        # ``get`` clones instead of re-running ``Instr.__init__``.
        self._static: list[Instr | None] = [
            self._static_instr(slot) for slot in self.body]
        self._protos: list[Instr] = [
            self._proto_instr(slot) if static is None else static
            for slot, static in zip(self.body, self._static)]
        #: Per-slot parameters of the iteration-varying slots (None for
        #: static ones), read by the compiled fetch stage.
        self._dyn: list[tuple | None] = [
            None if static is not None else self._dyn_params(slot, proto)
            for slot, static, proto in zip(self.body, self._static,
                                           self._protos)]

    def _proto_instr(self, slot: Slot) -> Instr:
        """Prototype for an iteration-varying slot, one per kind.

        Field-for-field the same ``Instr`` each ``get`` branch used to
        build, minus the varying ``addr``/``taken``: loads keep their
        destination, stores and conditional branches have none.
        """
        kind = slot.kind
        if kind in (SlotKind.STREAM_LOAD, SlotKind.HOT_LOAD,
                    SlotKind.CHASE_LOAD, SlotKind.BURST_LOAD,
                    SlotKind.RANDOM_LOAD):
            return Instr(slot.pc, Op.LOAD, slot.dest, slot.srcs)
        if kind in (SlotKind.STORE, SlotKind.STREAM_STORE):
            return Instr(slot.pc, Op.STORE, None, slot.srcs)
        if kind is SlotKind.COND_BRANCH:
            return Instr(slot.pc, Op.BRANCH, None, slot.srcs)
        raise AssertionError(
            f"unhandled slot kind {kind!r}")  # pragma: no cover

    def _dyn_params(self, slot: Slot, proto: Instr) -> tuple:
        """``get``'s branch for ``slot`` as ``(kind, prototype, *terms)``.

        Every iteration-independent term of the branch is folded in
        here; ``_cext_engine.c`` parses the terms once per core
        (``dyn_row``), evaluates the rest in 64-bit arithmetic at each
        fetch (``row_eval``) and calls ``get`` instead wherever a value
        would not fit.  ``get`` stays the reference: the equivalence
        tests compare the two slot by slot.  Random and burst loads
        share one layout (burst adds its period and off-period
        address), and like branches keep the hash keys at [3] and [4].
        """
        kind = slot.kind
        spec = self.spec
        line = self._line
        local_pc = slot.pc - self.pc_base
        head = (int(kind), proto)
        if kind is SlotKind.STREAM_LOAD:
            return head + (self.stream_bases[slot.index],
                           spec.stream_stride, self.stream_fp)
        if kind is SlotKind.STREAM_STORE:
            return head + (self.stout_bases[slot.index],
                           spec.stream_stride, self.stout_fp)
        if kind is SlotKind.HOT_LOAD or kind is SlotKind.STORE:
            return head + (self.hot_base, local_pc * 811, self.hot_lines,
                           line)
        if kind is SlotKind.CHASE_LOAD:
            return head + (self.chase_bases[slot.index], spec.chase_every,
                           slot.index, self.chase_fp_lines, line)
        if kind is SlotKind.RANDOM_LOAD:
            return head + (self.random_base, self.seed, local_pc,
                           self.random_lines, line)
        if kind is SlotKind.BURST_LOAD:
            hot_addr = self.hot_base + (
                (local_pc * 811 + slot.index * 67) % self.hot_lines) * line
            return head + (self.burst_base, self.seed, local_pc,
                           self.burst_lines, line, spec.burst_every,
                           hot_addr)
        if kind is SlotKind.COND_BRANCH:
            return head + (slot.taken_prob, self.seed, local_pc)
        raise AssertionError(
            f"unhandled slot kind {kind!r}")  # pragma: no cover

    def _static_instr(self, slot: Slot) -> Instr | None:
        kind = slot.kind
        if kind in (SlotKind.INDUCTION, SlotKind.INT_OP, SlotKind.FP_OP,
                    SlotKind.CONSUMER):
            return Instr(slot.pc, slot.op, slot.dest, slot.srcs)
        if kind is SlotKind.LOOP_BRANCH:
            return Instr(slot.pc, Op.BRANCH, None, slot.srcs, taken=True)
        return None

    def pc_address(self, pc: int) -> int:
        return self.code_base + (pc - self.pc_base) * 4

    def get(self, index: int) -> Instr:
        """The ``index``-th dynamic instruction (stateless, repeatable)."""
        body_len = self.body_len
        pos = index % body_len
        static = self._static[pos]
        if static is not None:
            # Iteration-invariant slot (compute, consumer, loop branch):
            # skip the quotient — most fetches take this path.
            return static
        iteration = index // body_len
        slot = self.body[pos]
        kind = slot.kind
        spec = self.spec
        line = self._line
        proto = self._protos[pos]
        # Hash with the *local* pc so the generated stream is identical
        # regardless of which hardware-thread slot the program occupies.
        local_pc = slot.pc - self.pc_base

        if kind is SlotKind.STREAM_LOAD:
            base = self.stream_bases[slot.index]
            addr = base + (iteration * spec.stream_stride) % self.stream_fp
            return _from_proto(proto, addr, False)

        if kind is SlotKind.HOT_LOAD:
            addr = self.hot_base + (
                (local_pc * 811 + iteration) % self.hot_lines) * line
            return _from_proto(proto, addr, False)

        if kind is SlotKind.CHASE_LOAD:
            step = iteration // spec.chase_every
            offset = (step * _CHASE_WALK_MULT + slot.index) % self.chase_fp_lines
            addr = self.chase_bases[slot.index] + offset * line
            return _from_proto(proto, addr, False)

        if kind is SlotKind.BURST_LOAD:
            if iteration % spec.burst_every == 0:
                offset = mix64(self.seed, local_pc, iteration) % self.burst_lines
                addr = self.burst_base + offset * line
            else:
                addr = self.hot_base + (
                    (local_pc * 811 + slot.index * 67) % self.hot_lines) * line
            return _from_proto(proto, addr, False)

        if kind is SlotKind.RANDOM_LOAD:
            offset = mix64(self.seed, local_pc, iteration) % self.random_lines
            addr = self.random_base + offset * line
            return _from_proto(proto, addr, False)

        if kind is SlotKind.STORE:
            addr = self.hot_base + (
                (local_pc * 811 + iteration) % self.hot_lines) * line
            return _from_proto(proto, addr, False)

        if kind is SlotKind.STREAM_STORE:
            base = self.stout_bases[slot.index]
            addr = base + (iteration * spec.stream_stride) % self.stout_fp
            return _from_proto(proto, addr, False)

        if kind is SlotKind.COND_BRANCH:
            taken = uniform_double(self.seed, local_pc, iteration) < slot.taken_prob
            return _from_proto(proto, None, taken)

        raise AssertionError(f"unhandled slot kind {kind!r}")  # pragma: no cover
