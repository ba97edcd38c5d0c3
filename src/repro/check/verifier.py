"""Layer 1 of :mod:`repro.check`: structural IR invariants.

:func:`verify_ir` walks a :class:`~repro.ir.stmt.Procedure` once and
reports every violation of the invariants the rest of the compiler
assumes — the ``ir/*`` rules of the catalogue
(:data:`repro.check.diagnostics.RULES`):

- induction variables are unique along a nesting path and never assigned;
- every scalar ``Var`` resolves to a parameter, an enclosing loop binder,
  or a scalar the procedure assigns; every ``ArrayRef`` resolves to an
  ``ArrayDecl`` of matching rank;
- DO bounds/steps are well-formed: the step is not (provably) zero and no
  bound mentions the loop's own variable;
- the Sec. 6 constructs nest properly: ``IN v DO`` and ``LAST(v)`` only
  under a ``BLOCK DO v``, and ``LAST`` takes exactly one block variable.

The verifier never raises on bad IR — it returns diagnostics, so callers
(the ``--check`` pipeline mode, the CLI, mutation tests) decide policy.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.check.diagnostics import Diagnostic, counted, diag
from repro.ir.expr import ArrayRef, Call, Const, Expr, Var, free_vars
from repro.ir.pretty import fmt_expr
from repro.ir.stmt import (
    Assign,
    BlockLoop,
    Comment,
    If,
    InLoop,
    Loop,
    Procedure,
    Stmt,
)
from repro.ir.visit import walk_stmts
from repro.obs import core as _obs
from repro.symbolic.assume import Assumptions

#: Intrinsic function names the front end accepts; LAST is special-cased.
_INTRINSICS = {"SQRT", "DSQRT", "ABS", "DABS", "MOD", "DBLE", "REAL", "INT"}


class _Scope:
    """Traversal state: what names mean at the current program point."""

    def __init__(self, proc: Procedure, ctx: Assumptions):
        self.proc = proc
        self.ctx = ctx
        self.params = set(proc.params)
        self.arrays = {a.name: a for a in proc.arrays}
        # scalars the procedure assigns anywhere (order-insensitive on
        # purpose: definite-assignment is the interpreter's job, SemanticsError)
        self.assigned = {
            s.target.name
            for s in walk_stmts(proc)
            if isinstance(s, Assign) and isinstance(s.target, Var)
        }
        self.loop_vars: list[str] = []  # active induction binders, outer→inner
        self.block_vars: list[str] = []  # active BLOCK DO binders
        self.out: list[Diagnostic] = []

    def report(self, rule_id: str, path: str, message: str) -> None:
        self.out.append(diag(rule_id, path, message))


def _check_expr(e: Expr, scope: _Scope, path: str) -> None:
    if isinstance(e, Var):
        name = e.name
        if name in scope.arrays:
            scope.report(
                "ir/array-used-as-scalar", path,
                f"array {name} used as a scalar",
            )
        elif (
            name not in scope.params
            and name not in scope.loop_vars
            and name not in scope.assigned
        ):
            scope.report(
                "ir/undefined-var", path,
                f"{name} is not a parameter, loop variable, or assigned scalar",
            )
        return
    if isinstance(e, ArrayRef):
        decl = scope.arrays.get(e.array)
        if decl is None:
            scope.report(
                "ir/undeclared-array", path,
                f"array {e.array} has no declaration",
            )
        elif len(e.index) != decl.rank:
            scope.report(
                "ir/rank-mismatch", path,
                f"{e.array} declared rank {decl.rank}, referenced with "
                f"{len(e.index)} subscript(s)",
            )
        for sub in e.index:
            _check_expr(sub, scope, path)
        return
    if isinstance(e, Call):
        if e.name == "LAST":
            if len(e.args) != 1 or not isinstance(e.args[0], Var):
                scope.report(
                    "ir/last-arity", path,
                    f"LAST takes exactly one block variable, got "
                    f"{fmt_expr(e)}",
                )
            else:
                v = e.args[0].name
                if v not in scope.block_vars:
                    scope.report(
                        "ir/last-outside-block", path,
                        f"LAST({v}) has no enclosing BLOCK DO {v}",
                    )
            return
        for a in e.args:
            _check_expr(a, scope, path)
        return
    # generic recursion over children
    for attr in ("left", "right", "value", "cond", "arg", "num", "den"):
        child = getattr(e, attr, None)
        if isinstance(child, Expr):
            _check_expr(child, scope, path)
    for attr in ("args",):
        for child in getattr(e, attr, ()) or ():
            if isinstance(child, Expr):
                _check_expr(child, scope, path)


def _enter_binder(var: str, scope: _Scope, path: str) -> None:
    if var in scope.loop_vars:
        scope.report(
            "ir/shadowed-induction", path,
            f"loop variable {var} shadows an enclosing binder",
        )
    scope.loop_vars.append(var)


def _check_bounds(
    var: str, lo: Expr, hi: Expr, step: Optional[Expr], scope: _Scope, path: str
) -> None:
    owned = [lo, hi] + ([step] if step is not None else [])
    for e in owned:
        if var in free_vars(e):
            scope.report(
                "ir/self-referential-bound", path,
                f"bound/step of DO {var} mentions {var} itself",
            )
            break
    if step is not None:
        zero = step == Const(0) or scope.ctx.is_zero(step) is True
        if zero:
            scope.report("ir/zero-step", path, f"DO {var} has step 0")


def _check_stmt(s: Stmt, scope: _Scope, path: str) -> None:
    if isinstance(s, Comment):
        return
    if isinstance(s, Assign):
        here = f"{path}/{fmt_expr(s.target)}"
        if isinstance(s.target, Var) and s.target.name in scope.loop_vars:
            scope.report(
                "ir/assign-to-induction", here,
                f"assignment writes active induction variable {s.target.name}",
            )
        _check_expr(s.target, scope, here)
        _check_expr(s.value, scope, here)
        return
    if isinstance(s, Loop):
        here = f"{path}/DO {s.var}"
        _check_bounds(s.var, s.lo, s.hi, s.step, scope, here)
        for e in (s.lo, s.hi, s.step):
            _check_expr(e, scope, here)
        _enter_binder(s.var, scope, here)
        _check_body(s.body, scope, here)
        scope.loop_vars.pop()
        return
    if isinstance(s, BlockLoop):
        here = f"{path}/BLOCK DO {s.var}"
        _check_bounds(s.var, s.lo, s.hi, None, scope, here)
        for e in (s.lo, s.hi):
            _check_expr(e, scope, here)
        _enter_binder(s.var, scope, here)
        scope.block_vars.append(s.var)
        _check_body(s.body, scope, here)
        scope.block_vars.pop()
        scope.loop_vars.pop()
        return
    if isinstance(s, InLoop):
        here = f"{path}/IN {s.block_var} DO {s.var}"
        if s.block_var not in scope.block_vars:
            scope.report(
                "ir/in-do-without-block", here,
                f"IN {s.block_var} DO without an enclosing BLOCK DO "
                f"{s.block_var}",
            )
        if s.lo is not None:
            _check_bounds(s.var, s.lo, s.hi, None, scope, here)
            for e in (s.lo, s.hi):
                _check_expr(e, scope, here)
        _enter_binder(s.var, scope, here)
        _check_body(s.body, scope, here)
        scope.loop_vars.pop()
        return
    if isinstance(s, If):
        here = f"{path}/IF"
        _check_expr(s.cond, scope, here)
        _check_body(s.then, scope, here + "/THEN")
        if s.els:
            _check_body(s.els, scope, here + "/ELSE")
        return


def _check_body(body: Sequence[Stmt], scope: _Scope, path: str) -> None:
    for s in body:
        _check_stmt(s, scope, path)


def verify_ir(
    proc: Procedure, ctx: Optional[Assumptions] = None
) -> list[Diagnostic]:
    """All ``ir/*`` violations in ``proc`` (empty list = well-formed)."""
    with _obs.span("check:verify_ir", cat="check", procedure=proc.name) as args:
        scope = _Scope(proc, ctx or Assumptions())
        _check_body(proc.body, scope, proc.name)
        args["diagnostics"] = len(counted(scope.out))
    return scope.out
