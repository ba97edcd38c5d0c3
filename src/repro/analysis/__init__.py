"""Program analyses: dependence, sections, shapes, reuse, commutativity.

The paper's thesis is that *dependence* plus *section analysis* (plus, for
pivoted LU, commutativity knowledge) is enough information to block the
LAPACK point algorithms.  This package supplies exactly those analyses:

- :mod:`repro.analysis.refs` — reference collection with loop context;
- :mod:`repro.analysis.subscripts` — affine subscript decomposition;
- :mod:`repro.analysis.dependence` — ZIV/SIV/MIV dependence tests,
  distance/direction vectors, loop-carried classification (Sec. 2.1);
- :mod:`repro.analysis.graph` — statement dependence graph & recurrences;
- :mod:`repro.analysis.sections` — bounded regular sections in Fortran-90
  triplet notation (Sec. 2.1's "section analysis", Havlak–Kennedy);
- :mod:`repro.analysis.shape` — iteration-space shape classification
  (rectangular / triangular / trapezoidal / rhomboidal, Sec. 3);
- :mod:`repro.analysis.reuse` — temporal/spatial reuse (Sec. 2.2) and
  blocking-factor selection against a machine model;
- :mod:`repro.analysis.commutativity` — the row-interchange /
  whole-column-update pattern knowledge of Sec. 5.2.
"""

from repro.analysis.dependence import (
    Dependence,
    DependenceKind,
    all_dependences,
    dependences_between,
)
from repro.analysis.graph import DependenceGraph
from repro.analysis.refs import RefAccess, collect_accesses
from repro.analysis.sections import Section, Triplet, section_of_ref
from repro.analysis.shape import LoopShape, ShapeInfo, classify_loop_shape
from repro.analysis.subscripts import SubscriptInfo, analyze_subscript

__all__ = [
    "Dependence",
    "DependenceGraph",
    "DependenceKind",
    "LoopShape",
    "RefAccess",
    "Section",
    "ShapeInfo",
    "SubscriptInfo",
    "Triplet",
    "all_dependences",
    "analyze_subscript",
    "classify_loop_shape",
    "collect_accesses",
    "dependences_between",
    "section_of_ref",
]
