"""Reference collection: every array access with its loop/guard context.

Analyses work over :class:`RefAccess` records rather than raw AST nodes so
that each access knows (a) which statement owns it, (b) its textual program
position (for loop-independent dependence direction), (c) the stack of
enclosing loops outermost-first, and (d) the IF guards dominating it
(IF-inspection needs those).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from repro.ir.expr import ArrayRef, Expr, Not
from repro.ir.stmt import Assign, BlockLoop, Comment, If, InLoop, Loop, Procedure, Stmt
from repro.ir.visit import array_refs


@dataclass(frozen=True)
class RefAccess:
    """One array reference in context.

    ``position`` is a depth-first statement counter giving textual order —
    two accesses in the same loop body compare by it for loop-independent
    dependences.  ``loops`` is outermost-first.  ``guards`` are the IF
    conditions that must hold for the access to execute (polarity encoded:
    the condition as it must evaluate).
    """

    ref: ArrayRef
    stmt: Assign
    position: int
    is_write: bool
    loops: tuple[Loop, ...]
    guards: tuple[Expr, ...] = ()

    @property
    def array(self) -> str:
        return self.ref.array

    @property
    def loop_vars(self) -> tuple[str, ...]:
        return tuple(l.var for l in self.loops)

    def innermost(self) -> Loop | None:
        return self.loops[-1] if self.loops else None

    def loops_from(self, region: Loop) -> tuple[Loop, ...] | None:
        """The enclosing loops from ``region`` inward (``region`` first) —
        the ones that sweep over a full execution of ``region`` while
        everything outer stays fixed — or None when the access is not
        inside it.  ``region`` is found by node identity first, structural
        equality second (analyses hand over loops of rebuilt trees)."""
        for k, l in enumerate(self.loops):
            if l is region or l == region:
                return self.loops[k:]
        return None

    def common_loops(self, other: "RefAccess") -> tuple[Loop, ...]:
        """Longest shared prefix of enclosing loops (by node identity)."""
        out = []
        for a, b in zip(self.loops, other.loops):
            if a is b:
                out.append(a)
            else:
                break
        return tuple(out)


def collect_accesses(root: Procedure | Stmt | Sequence[Stmt]) -> list[RefAccess]:
    """All array accesses under ``root`` in textual order.

    The LHS of an assignment is a write; every ArrayRef inside the RHS (or
    inside LHS subscripts) is a read.  Array references in loop bounds and
    IF conditions are not collected: the paper's kernels subscript bounds
    with scalars only, and dependence-testing bound refs would only add
    noise.
    """
    if isinstance(root, Procedure):
        body: Sequence[Stmt] = root.body
    elif isinstance(root, Stmt):
        body = (root,)
    else:
        body = tuple(root)
    out: list[RefAccess] = []
    counter = [0]

    def visit(stmts: Sequence[Stmt], loops: tuple[Loop, ...], guards: tuple[Expr, ...]) -> None:
        for stmt in stmts:
            if isinstance(stmt, Comment):
                continue
            counter[0] += 1
            pos = counter[0]
            if isinstance(stmt, Assign):
                # reads: subscripts of the target, then the RHS, then write
                for sub in stmt.target.index if isinstance(stmt.target, ArrayRef) else ():
                    for r in array_refs(sub):
                        out.append(RefAccess(r, stmt, pos, False, loops, guards))
                for r in array_refs(stmt.value):
                    out.append(RefAccess(r, stmt, pos, False, loops, guards))
                if isinstance(stmt.target, ArrayRef):
                    out.append(RefAccess(stmt.target, stmt, pos, True, loops, guards))
            elif isinstance(stmt, Loop):
                visit(stmt.body, loops + (stmt,), guards)
            elif isinstance(stmt, If):
                visit(stmt.then, loops, guards + (stmt.cond,))
                visit(stmt.els, loops, guards + (Not(stmt.cond),))
            elif isinstance(stmt, (BlockLoop, InLoop)):
                # Extension loops are analyzed after lowering; treat the
                # body contextually so section queries still work.
                visit(stmt.body, loops, guards)

    visit(body, (), ())
    return out


def writes_in(root, array: str | None = None) -> Iterator[RefAccess]:
    for acc in collect_accesses(root):
        if acc.is_write and (array is None or acc.array == array):
            yield acc


def reads_in(root, array: str | None = None) -> Iterator[RefAccess]:
    for acc in collect_accesses(root):
        if not acc.is_write and (array is None or acc.array == array):
            yield acc
