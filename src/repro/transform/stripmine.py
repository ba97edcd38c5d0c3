"""Strip mining (Sec. 2.3).

::

    DO I = lo, hi              DO I = lo, hi, IS
      body            ==>        DO II = I, MIN(I + IS - 1, hi)
                                   body[I := II]

Always legal: the iteration set and order are unchanged.  The MIN guard is
kept unless the assumption context proves the strip never overruns; the
blocked-LU driver later narrows it further (e.g. the paper's
``MIN(K+KS-1, N-1)``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import TransformError
from repro.ir.expr import Const, Expr, Var, as_expr, ExprLike, smin
from repro.ir.pretty import fmt_expr
from repro.ir.stmt import Loop, Procedure
from repro.ir.visit import replace_loop, substitute
from repro.symbolic.assume import Assumptions
from repro.symbolic.simplify import simplify
from repro.transform.base import fresh_var, used_names


@dataclass(frozen=True)
class StripMineInfo:
    """Names introduced: ``block_var`` is the original variable (now the
    block loop, stepping by the factor); ``strip_var`` the new inner one."""

    block_var: str
    strip_var: str
    factor: Expr


def unit_step_reason(loop: Loop) -> Optional[str]:
    """Why ``loop`` cannot be strip-mined (and so blocked) for its step,
    or None when its step is 1: the one text the transform, the
    ``stripmine``/``block`` precheck, ``legal/stripmine-step`` and the
    linter all give."""
    if loop.step == Const(1):
        return None
    return f"DO {loop.var} has step {fmt_expr(loop.step)}; strip mining needs step 1"


def strip_mine(
    proc: Procedure,
    loop: Loop,
    factor: ExprLike,
    ctx: Optional[Assumptions] = None,
) -> tuple[Procedure, StripMineInfo]:
    """Strip-mine ``loop`` by ``factor``.

    ``factor`` may be an int, a symbolic name (added to the procedure's
    parameters — the paper's ``KS``/``JS``/``IS``), or an expression.
    Returns the rewritten procedure and the introduced names.
    """
    reason = unit_step_reason(loop)
    if reason is not None:
        raise TransformError(reason)
    ctx = ctx or Assumptions()
    factor_e = as_expr(factor)
    if isinstance(factor_e, Const) and isinstance(factor_e.value, int) and factor_e.value < 1:
        raise TransformError("strip factor must be positive")
    strip_var = fresh_var(loop.var, used_names(proc))

    body = substitute(loop.body, {loop.var: Var(strip_var)})
    strip_hi = smin(Var(loop.var) + factor_e - 1, loop.hi)
    # Drop the MIN when the context proves the factor divides the range
    # evenly (rare; kept for completeness).
    strip_hi = simplify(strip_hi, ctx)
    inner = Loop(strip_var, Var(loop.var), strip_hi, body)
    outer = Loop(loop.var, loop.lo, loop.hi, (inner,), step=factor_e)

    new_proc = replace_loop(proc, loop, outer)
    if isinstance(factor_e, Var) and factor_e.name not in proc.params:
        new_proc = new_proc.adding_params(factor_e.name)
    return new_proc, StripMineInfo(loop.var, strip_var, factor_e)
