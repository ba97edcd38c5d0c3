"""Lowering of the Section 6 extensions to concrete blocked loops.

Rules, for ``BLOCK DO V = lo, hi`` with blocking factor ``F``:

- the BLOCK DO itself becomes ``DO V = lo, hi, F``;
- ``LAST(V)`` anywhere in its body becomes ``MIN(V + F - 1, hi)``;
- ``IN V DO W`` (no bounds) becomes ``DO W = V, MIN(V + F - 1, hi)``;
- ``IN V DO W = lo2, hi2`` becomes ``DO W = lo2, hi2`` (the bounds,
  typically written in terms of ``LAST(V)``, stay as given).

The blocking factor is the machine-dependent detail the construct exists
to hide: pass an int/symbol explicitly, or a machine model + problem
sizes and :func:`choose_factor` picks the largest factor whose estimated
block working set fits the effective cache.
"""

from __future__ import annotations

from typing import Mapping, Optional

from repro.errors import TransformError
from repro.ir.expr import Call, Const, Expr, Var, as_expr, ExprLike, smin
from repro.ir.stmt import BlockLoop, InLoop, Loop, Procedure
from repro.ir.visit import NodeTransformer, loop_by_var
from repro.machine.model import MachineModel
from repro.symbolic.assume import Assumptions
from repro.symbolic.simplify import simplify


class _Lowerer(NodeTransformer):
    rewrite_exprs = True

    def __init__(self, factor: Expr, ctx: Assumptions):
        self.factor = factor
        self.ctx = ctx
        self._blocks: dict[str, tuple[Expr, Expr]] = {}  # var -> (factor, hi)

    # -- LAST() ----------------------------------------------------------
    def visit_expr(self, e: Expr) -> Expr:
        if isinstance(e, Call) and e.name == "LAST":
            if len(e.args) != 1 or not isinstance(e.args[0], Var):
                raise TransformError("LAST takes exactly one block variable")
            v = e.args[0].name
            if v not in self._blocks:
                raise TransformError(f"LAST({v}): no enclosing BLOCK DO {v}")
            f, hi = self._blocks[v]
            return simplify(smin(Var(v) + f - 1, hi), self.ctx)
        return e

    # -- constructs --------------------------------------------------------
    def visit_BlockLoop(self, node: BlockLoop):
        lo = self._expr(node.lo)
        hi = self._expr(node.hi)
        self._blocks[node.var] = (self.factor, hi)
        body = self.visit_body(node.body)
        del self._blocks[node.var]
        return Loop(node.var, lo, hi, body, step=self.factor)

    def visit_InLoop(self, node: InLoop):
        if node.block_var not in self._blocks:
            raise TransformError(
                f"IN {node.block_var} DO: no enclosing BLOCK DO {node.block_var}"
            )
        f, hi = self._blocks[node.block_var]
        body = self.visit_body(node.body)
        if node.lo is None:
            lo: Expr = Var(node.block_var)
            up = simplify(smin(Var(node.block_var) + f - 1, hi), self.ctx)
        else:
            lo = self._expr(node.lo)
            up = self._expr(node.hi)
        return Loop(node.var, lo, up, body)


def lower_extensions(
    proc: Procedure,
    factor: Optional[ExprLike] = None,
    machine: Optional[MachineModel] = None,
    sizes: Optional[Mapping[str, int]] = None,
    ctx: Optional[Assumptions] = None,
) -> tuple[Procedure, Expr]:
    """Lower every BLOCK DO / IN DO / LAST in ``proc``.

    Returns (lowered procedure, the factor used).  Factor resolution:
    explicit ``factor`` wins; else ``machine`` + ``sizes`` drive
    :func:`choose_factor`; else a symbolic parameter ``<var>S`` is
    introduced and left to the caller.
    """
    from repro.ir.visit import walk_stmts

    ctx = ctx or Assumptions()
    block_vars = [s.var for s in _walk_blockloops(proc)]
    if not block_vars:
        if any(isinstance(s, InLoop) for s in walk_stmts(proc)):
            raise TransformError("IN ... DO without any enclosing BLOCK DO")
        return proc, Const(0)
    if factor is None and machine is not None:
        if sizes is None:
            raise TransformError("factor selection needs concrete problem sizes")
        factor = choose_factor(proc, machine, sizes, ctx)
    if factor is None:
        factor = Var(block_vars[0] + "S")
    factor_e = as_expr(factor)
    lowered = _Lowerer(factor_e, ctx).transform_procedure(proc)
    if isinstance(factor_e, Var) and factor_e.name not in proc.params:
        lowered = lowered.adding_params(factor_e.name)
    return lowered, factor_e


def _walk_blockloops(proc: Procedure):
    from repro.ir.visit import walk_stmts

    return [s for s in walk_stmts(proc) if isinstance(s, BlockLoop)]


def choose_factor(
    proc: Procedure,
    machine: MachineModel,
    sizes: Mapping[str, int],
    ctx: Optional[Assumptions] = None,
) -> int:
    """Pick the blocking factor for ``proc``'s (first) BLOCK DO against a
    machine: the largest factor in ``[2, max(sizes)]`` whose estimated
    block working set (:func:`repro.analysis.reuse.estimate_block_footprint`)
    fits the effective cache, found by monotone bisection; 2 even when
    nothing fits (a degenerate blocking is still legal), which tiny test
    machines rely on."""
    from repro.analysis.reuse import estimate_block_footprint

    ctx = ctx or Assumptions()
    blocks = _walk_blockloops(proc)
    if not blocks:
        raise TransformError("no BLOCK DO to choose a factor for")
    var = blocks[0].var
    # lower with a placeholder factor symbol, then bisect: for candidate
    # size b, pin the block variable to a b-wide window *and* bind the
    # factor symbol to b (the strip bounds are MIN(V + b - 1, hi)).
    trial, _ = lower_extensions(proc, factor=Var("__BF__"), ctx=ctx)
    loop = loop_by_var(trial.body, var)
    itemsize = max((a.itemsize for a in proc.arrays), default=8)
    budget = machine.effective_cache_bytes

    def fits(b: int) -> bool:
        env = dict(sizes)
        env["__BF__"] = b
        return estimate_block_footprint(loop, env, b, itemsize) <= budget

    lo, hi = 2, max(int(v) for v in sizes.values())
    if not fits(lo):
        return lo
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if fits(mid):
            lo = mid
        else:
            hi = mid - 1
    return lo
