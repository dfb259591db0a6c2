"""The cycle-level out-of-order SMT pipeline (the SMTSIM substitute).

Two interchangeable engines implement the same pipeline:
:class:`SMTCore` keeps one :class:`DynInstr` object per in-flight
instruction, while the compiled ``cext`` engine
(:class:`repro.pipeline.cext.CextCore`) runs a C stage loop over the
same state held as a native arena of columns indexed by slot.  They are
bit-identical architecturally — the golden-stats matrix pins every
policy under both — and are selected per run through the ``backends``
registry (see :mod:`repro.registry` and ``RunSpec.backend``).
"""

from repro.pipeline.core import SMTCore
from repro.pipeline.dyninstr import DynInstr
from repro.pipeline.stats import CoreStats, ThreadStats
from repro.pipeline.thread_state import ThreadState

__all__ = ["CoreStats", "DynInstr", "SMTCore", "ThreadState", "ThreadStats"]
