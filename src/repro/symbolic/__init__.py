"""Symbolic affine arithmetic, assumptions, and expression simplification.

Loop bounds and array subscripts in the blockable subset are affine in loop
induction variables and symbolic parameters (``N``, ``M``, blocking factors),
possibly wrapped in MIN/MAX.  This package provides:

- :class:`repro.symbolic.affine.Affine` — canonical linear form, exact and
  integer-first (a ``Fraction`` only where a division makes one), the
  currency of dependence tests, section algebra, and triangular-bound rewrites;
- :class:`repro.symbolic.assume.Assumptions` — an inequality context
  (``1 <= KS <= N`` etc.) able to decide sign questions by recursive bound
  substitution, used to discharge MIN/MAX simplifications and section
  subset/disjointness queries;
- :func:`repro.symbolic.simplify.simplify` — normalizes expressions to a
  tidy affine-when-possible form and prunes decidable MIN/MAX arms.
"""

from repro.symbolic.affine import Affine, from_affine, to_affine
from repro.symbolic.assume import Assumptions
from repro.symbolic.simplify import simplify

__all__ = ["Affine", "Assumptions", "from_affine", "simplify", "to_affine"]
