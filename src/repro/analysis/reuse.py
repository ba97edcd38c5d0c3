"""Cache-reuse classification and block working-set estimation (Sec. 2.2).

Two roles:

1. classify, per reference and candidate loop, the reuse a blocked loop
   would capture — *temporal-invariant* (subscripts free of the loop
   variable: the ``A(I)`` of Sec. 2.3), *spatial* (stride-one in the
   leading, column-major dimension: the ``B(I)``), *temporal-carried*
   (small constant dependence distance: the ``A(I-5)``), or none;

2. estimate the working set of one block, which
   :func:`repro.lang.lowering.choose_factor` holds against the machine's
   *effective* cache (a configurable fraction of capacity, defaulting to
   one half, because self-interference makes full-capacity tiles
   counterproductive — Lam/Rothberg/Wolf '91) to choose a blocking
   factor.  The estimate is numeric: per distinct reference, the product
   over dimensions of the subscript range extent with the blocked loop
   pinned to a window of the candidate size.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Mapping

from repro.analysis.refs import RefAccess, collect_accesses
from repro.analysis.sections import expr_range, ranges_for_loops
from repro.analysis.subscripts import analyze_subscript
from repro.errors import AnalysisError
from repro.ir.expr import Const, Expr, free_vars
from repro.ir.stmt import Loop


class ReuseKind(enum.Enum):
    TEMPORAL_INVARIANT = "temporal-invariant"
    TEMPORAL_CARRIED = "temporal-carried"
    SPATIAL = "spatial"
    NONE = "none"


def classify_reuse(acc: RefAccess, loop_var: str) -> ReuseKind:
    """Reuse of one reference with respect to one loop variable."""
    involved = [loop_var in free_vars(e) for e in acc.ref.index]
    if not any(involved):
        return ReuseKind.TEMPORAL_INVARIANT
    # temporal-carried first (stronger than spatial): some dimension is
    # var+const with small nonzero |const| — group reuse with a partner
    # reference a few iterations away (the A(I-5) of Sec. 2.2).
    for e, inv in zip(acc.ref.index, involved):
        if not inv:
            continue
        info = analyze_subscript(e, (loop_var,))
        if info.affine and info.coeff_of(loop_var) == 1 and info.rest is not None:
            c = info.rest.constant_value()
            if c is not None and c != 0 and abs(c) <= 16:
                return ReuseKind.TEMPORAL_CARRIED
    # spatial: leading (column-major contiguous) dimension moves with
    # stride +-1 and no other dimension mentions the variable.
    lead = analyze_subscript(acc.ref.index[0], (loop_var,))
    if (
        lead.affine
        and abs(lead.coeff_of(loop_var)) == 1
        and not any(involved[1:])
    ):
        return ReuseKind.SPATIAL
    return ReuseKind.NONE


@dataclass(frozen=True)
class ReuseReport:
    """Per-reference reuse of everything inside a loop."""

    loop_var: str
    entries: tuple[tuple[RefAccess, ReuseKind], ...]

    def count(self, kind: ReuseKind) -> int:
        return sum(1 for _, k in self.entries if k == kind)


def reuse_report(loop: Loop) -> ReuseReport:
    accs = collect_accesses(loop.body)
    return ReuseReport(loop.var, tuple((a, classify_reuse(a, loop.var)) for a in accs))


# ---------------------------------------------------------------------------
# working-set estimation
# ---------------------------------------------------------------------------

def estimate_block_footprint(
    loop: Loop,
    sizes: Mapping[str, int],
    block_size: int,
    itemsize: int = 8,
) -> int:
    """Bytes touched by one ``block_size``-wide block of ``loop``.

    The loop variable is pinned to a window ``[w, w+block_size-1]`` and all
    inner loops sweep their full ranges; each distinct reference contributes
    the product of its per-dimension extents.  Symbolic parameters resolve
    through ``sizes``.
    """
    w = sizes.get(loop.var, 1)
    window = (Const(w), Const(w + block_size - 1))

    seen: set = set()
    total = 0
    for acc in collect_accesses(loop):
        key = (acc.array, acc.ref.index)
        if key in seen:
            continue
        seen.add(key)
        ranges = ranges_for_loops(acc.loops_from(loop)[1:])
        ranges[loop.var] = window
        elems = 1
        for e in acc.ref.index:
            got = expr_range(e, ranges)
            if got is None:
                raise AnalysisError(f"non-affine subscript in footprint: {e!r}")
            lo, hi = (_eval_int(x, sizes) for x in got)
            elems *= max(0, hi - lo + 1)
        total += elems * itemsize
    return total


def _eval_int(e: Expr, env: Mapping[str, int]) -> int:
    from repro.runtime.interpreter import Interpreter

    missing = free_vars(e) - set(env)
    if missing:
        raise AnalysisError(f"unbound symbols in footprint bound: {sorted(missing)}")
    return int(Interpreter(dict(env)).eval(e))
