"""Loop-parallelism stack (``repro.par``): static detector and dynamic
race sanitizer.

Two mutually checking layers over the same claim — *these iterations
are independent*:

- :mod:`repro.par.detect` — the static layer.  Classifies every DO loop
  as ``PARALLEL`` (no loop-carried dependence), ``REDUCTION`` (only
  commutative accumulation, Sec. 5.2 commutativity reused), or
  ``SERIAL`` with a concrete witness, and annotates proved loops with
  :class:`~repro.ir.stmt.ParallelLoop` markers
  (``PARALLEL [REDUCTION] DO``).
- :mod:`repro.par.sanitizer` — the dynamic layer.  An instrumented
  interpreter records per-iteration read/write shadow footprints under
  every marked loop and reports any cross-iteration conflict, carrying
  the same ``legal/par-carried-dep`` rule id the static
  :mod:`repro.check` audit uses for a wrong marker.

The verdict is a static proof and nothing executes on it: a sharded
``PARALLEL DO`` executor over the interpreter was measured, lost to the
compiled engine by 12x on two cores, and was removed (DESIGN.md §12).

``python -m repro par`` drives both; results travel as the
``repro.par/1`` artifact (:mod:`repro.par.report`).
"""

from repro.par.detect import (
    PARALLEL,
    REDUCTION,
    SERIAL,
    VERDICTS,
    LoopVerdict,
    annotate_procedure,
    classify_loop,
    classify_procedure,
    verdict_counts,
)
from repro.par.report import SCHEMA, build_report
from repro.par.sanitizer import RaceConflict, RaceSanitizer, SanitizeResult, sanitize

__all__ = [
    "PARALLEL",
    "REDUCTION",
    "SERIAL",
    "SCHEMA",
    "VERDICTS",
    "LoopVerdict",
    "RaceConflict",
    "RaceSanitizer",
    "SanitizeResult",
    "annotate_procedure",
    "build_report",
    "classify_loop",
    "classify_procedure",
    "sanitize",
    "verdict_counts",
]
