"""The cycle-level out-of-order SMT pipeline (the SMTSIM substitute).

Two interchangeable engines implement the same pipeline:
:class:`SMTCore` keeps one :class:`DynInstr` object per in-flight
instruction, while the compiled ``cext`` engine
(:mod:`repro.pipeline.cext`) runs a C stage loop over :class:`SoACore`,
the same state as parallel flat arrays indexed by pool slot
(struct-of-arrays).  They are bit-identical architecturally — the
golden-stats matrix pins every policy under both — and are selected per
run through the ``backends`` registry (see :mod:`repro.registry` and
``RunSpec.backend``).

``SoACore`` is re-exported lazily: importing the package must not pay
for the column state unless it is actually used.
"""

from repro.pipeline.core import SMTCore
from repro.pipeline.dyninstr import DynInstr
from repro.pipeline.stats import CoreStats, ThreadStats
from repro.pipeline.thread_state import ThreadState

__all__ = ["CoreStats", "DynInstr", "SMTCore", "SoACore", "ThreadState",
           "ThreadStats"]


def __getattr__(name):
    if name == "SoACore":
        from repro.pipeline.soa import SoACore
        return SoACore
    raise AttributeError(
        f"module {__name__!r} has no attribute {name!r}")
