"""Long-latency shift register (LLSR) — Figure 3 of the paper.

One LLSR per thread, with ``ROB size / number of threads`` entries.  Every
committed instruction shifts the register one position from tail to head and
inserts a bit at the tail: 1 for a long-latency load, 0 otherwise; the load
PC is tracked alongside.  When a 1 exits at the head, the **MLP distance**
is the position of the last (furthest) 1 in the register, read from head to
tail — the number of instructions one must fetch past the long-latency load
to expose all the MLP available within the ROB window (0 = isolated miss).
The measured distance trains the MLP distance predictor.

Section 4.2 notes that this implementation "does not make a distinction
between dependent and independent long-latency loads", overestimating the
MLP distance when the trailing loads depend on the head load, and names
excluding dependent loads as future work.  ``exclude_dependent=True``
implements that extension: a long-latency load known to depend on an
earlier long-latency load inserts a 0 instead of a 1, so it neither counts
as an MLP companion nor triggers a measurement of its own.  Dependent
misses cannot overlap with their producers, so the distances measured this
way reflect only *exploitable* MLP.

Implementation note (perf): the register is a fixed ring buffer over two
preallocated lists rather than a pair of deques, and the measured distance
comes from a running "commit index of the most recent 1" watermark instead
of a tail-to-head scan — ``commit`` is O(1) even on measuring commits.
The distance algebra: with ``total`` commits shifted in and a register of
``length`` entries, the live window holds commit indices
``total - length + 1 .. total``; a 1 last inserted at commit index ``w``
sits ``w - total + length`` positions past the head (clamped to 0 when it
already left the window).  ``tests/test_predictors.py`` pins this against
the reference shift-register semantics.
"""

from __future__ import annotations

from collections.abc import Callable


class LLSR:
    """Commit-stream observer that measures MLP distances."""

    __slots__ = ("length", "_bits", "_pcs", "_head", "_filled", "_total",
                 "_last_one_total", "_on_measure", "measured",
                 "exclude_dependent", "suppressed")

    def __init__(self, length: int,
                 on_measure: Callable[[int, int], None] | None = None,
                 exclude_dependent: bool = False):
        """``on_measure(pc, distance)`` fires when a 1 exits the head."""
        if length < 2:
            raise ValueError("LLSR needs at least two entries")
        self.length = length
        self._bits = [0] * length
        self._pcs = [-1] * length
        self._head = 0          # ring slot holding the oldest entry
        self._filled = 0        # entries shifted in while still filling
        self._total = 0         # commits shifted in over the LLSR lifetime
        self._last_one_total = 0  # commit index of the most recent 1 (0: none)
        self._on_measure = on_measure
        self.measured: list[tuple[int, int]] = []
        self.exclude_dependent = exclude_dependent
        #: Long-latency loads demoted to 0-bits by dependence filtering.
        self.suppressed = 0

    def commit(self, is_long_latency_load: bool, pc: int = -1,
               dependent: bool = False) -> int | None:
        """Shift one committed instruction in; returns a measured distance.

        ``dependent`` marks a long-latency load whose address depends
        (transitively) on an earlier long-latency load; it is demoted to a
        0-bit when dependence filtering is enabled.  The return value is
        the MLP distance of the long-latency load that exited the head
        this commit, or ``None`` when no 1 exited.
        """
        insert = is_long_latency_load
        if insert and dependent and self.exclude_dependent:
            insert = False
            self.suppressed += 1
        total = self._total + 1
        self._total = total
        if insert:
            self._last_one_total = total
        bits = self._bits
        length = self.length
        filled = self._filled
        if filled < length:
            bits[filled] = 1 if insert else 0
            self._pcs[filled] = pc if insert else -1
            self._filled = filled + 1
            return None
        head = self._head
        head_bit = bits[head]
        head_pc = self._pcs[head]
        bits[head] = 1 if insert else 0
        self._pcs[head] = pc if insert else -1
        self._head = head + 1 if head + 1 < length else 0
        if not head_bit:
            return None
        distance = self._last_one_total - total + length
        if distance < 0:
            distance = 0
        self.measured.append((head_pc, distance))
        if self._on_measure is not None:
            self._on_measure(head_pc, distance)
        return distance

    def commit_zeros(self, k: int) -> None:
        """Advance by ``k`` consecutive non-long-latency commits at once.

        Semantically identical to ``k`` calls of ``commit(False)`` —
        every 1-bit that exits the head during the advance fires its
        measurement, in order, with the same distance — but the common
        cases collapse to O(1) counter arithmetic: while the register is
        still filling, zero-bits land on slots that are pristine from
        construction, and once the most recent 1 has left the live
        window the ring contents are provably all zero, so the advance
        is a head/total bump with no per-entry work.  The compiled
        engine's commit stage coalesces retire bursts between
        long-latency loads this way, on its native twin of this class
        (``_cext_engine.LLSR``).  A negative ``k`` raises ``ValueError``
        and leaves the register as it was.
        """
        if k < 0:
            raise ValueError("commit_zeros needs k >= 0")
        length = self.length
        filled = self._filled
        if filled < length:
            take = length - filled
            if take > k:
                take = k
            self._filled = filled + take
            self._total += take
            k -= take
            if not k:
                return
        total = self._total
        last_one = self._last_one_total
        if last_one + length <= total:
            # No 1 left in the live window: zeros shift out, zeros shift
            # in, and every slot already holds (0, -1).
            self._total = total + k
            self._head = (self._head + k) % length
            return
        # Per-step work is owed only while the window still holds a 1;
        # once the most recent 1 has exited (after ``live`` steps) the
        # remaining advance is the O(1) all-zero case again.
        live = last_one + length - total
        tail = k - live if k > live else 0
        k -= tail
        bits = self._bits
        pcs = self._pcs
        head = self._head
        measured = self.measured
        on_measure = self._on_measure
        for _ in range(k):
            total += 1
            if bits[head]:
                head_pc = pcs[head]
                bits[head] = 0
                pcs[head] = -1
                distance = last_one - total + length
                if distance < 0:
                    distance = 0
                measured.append((head_pc, distance))
                if on_measure is not None:
                    on_measure(head_pc, distance)
            head += 1
            if head == length:
                head = 0
        if tail:
            head = (head + tail) % length
            total += tail
        self._head = head
        self._total = total

    @property
    def occupancy(self) -> int:
        return self._filled
