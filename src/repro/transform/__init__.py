"""Source-to-source loop transformations (paper Secs. 2.3, 3, 4).

Every transformation takes a :class:`~repro.ir.Procedure` plus the target
loop and returns a *new* procedure (the IR is immutable), raising
:class:`~repro.errors.TransformError` when its safety preconditions do not
hold.  Preconditions are checked against the dependence analyses of
:mod:`repro.analysis`; nothing is taken on faith, because "the compiler
refuses here" is itself a result the blockability study reports.

Inventory:

- :mod:`repro.transform.stripmine` — strip mining;
- :mod:`repro.transform.interchange` — loop interchange, including the
  Sec. 3.1 triangular and rhomboidal bound rewrites;
- :mod:`repro.transform.distribution` — Allen–Kennedy loop distribution;
- :mod:`repro.transform.index_set_split` — plain splitting, trapezoidal
  MIN/MAX bound splitting (Sec. 3.2), and Procedure IndexSetSplit (Fig. 3);
- :mod:`repro.transform.unroll_jam` — unroll-and-jam, rectangular and
  triangular (Sec. 3.1);
- :mod:`repro.transform.scalars` — scalar replacement and scalar expansion;
- :mod:`repro.transform.if_inspection` — the Sec. 4 inspector/executor;
- :mod:`repro.transform.blocking` — the strip-mine-and-interchange driver
  that composes the above (distribute, split on preventing dependences,
  sink the strip loop to the innermost position).
"""

from repro.transform.blocking import block_loop, BlockingReport
from repro.transform.distribution import distribute
from repro.transform.if_inspection import if_inspect
from repro.transform.index_set_split import (
    index_set_split_for_dependence,
    peel_first_iteration,
    split_index_set,
    split_trapezoid,
)
from repro.transform.interchange import interchange
from repro.transform.scalars import scalar_expand, scalar_replace
from repro.transform.stripmine import strip_mine
from repro.transform.unroll_jam import triangular_unroll_jam, unroll_and_jam

__all__ = [
    "BlockingReport",
    "block_loop",
    "distribute",
    "if_inspect",
    "index_set_split_for_dependence",
    "interchange",
    "peel_first_iteration",
    "scalar_expand",
    "scalar_replace",
    "split_index_set",
    "split_trapezoid",
    "strip_mine",
    "triangular_unroll_jam",
    "unroll_and_jam",
]
