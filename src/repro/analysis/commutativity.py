"""Commutativity knowledge (paper Sec. 5.2).

LU with partial pivoting defeats pure dependence analysis: distributing the
KK-loop would reverse a true dependence between the row-interchange
statements and the column updates.  The paper's resolution is *semantic*
knowledge: a **row interchange** (swap of two whole rows) and a
**whole-column update** (an elementwise, row-parallel update applied to
entire columns) commute — the same updates happen, merely at permuted row
positions, and the final array is identical.

This module supplies the pattern matchers that recognize those two
operation groups in IR form, mirroring the paper's remark that
"one would have to install pattern matching to recognize both the row
permutations and whole-column updates":

- :func:`match_row_interchange` — a column loop whose body is the 3-assign
  swap idiom ``TAU = A(r1,J); A(r1,J) = A(r2,J); A(r2,J) = TAU`` with
  ``r1``, ``r2`` invariant in the column variable;
- :func:`match_column_update` — a (J, I) nest computing
  ``A(I,J) = A(I,J) ± A(I,k) * A(k,J)`` (the rank-1 Gaussian update), and
  also the column-scale ``A(I,k) = A(I,k) / A(k,k)``;
- :func:`operations_commute` — the registry query asked when a
  transformation-preventing dependence connects two matched groups;
- :func:`commutativity_oracle` — that question per dependence: the one
  oracle the ``block``/``distribute`` passes and :mod:`repro.check`'s
  linter and legality recheck all consult.

Soundness note: a row interchange is pure data movement — it copies whole
rows and computes nothing.  Commuting it past a column update therefore
changes which row an element's operations land in, never which operations
it sees or their order: every element of the pivoted block LU undergoes
the same multiplications and subtractions, in the same sequence, as in the
point algorithm.  Nothing is reassociated, so the derived program is
bitwise equal to the point algorithm, and the validator compares bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.analysis.graph import _top_stmt_of
from repro.ir.expr import ArrayRef, BinOp, Expr, Var, free_vars
from repro.ir.stmt import Assign, If, Loop, Procedure, Stmt


@dataclass(frozen=True)
class RowInterchange:
    """Swap of rows ``row_a`` and ``row_b`` of ``array`` across columns
    ``col_loop`` (the full column sweep)."""

    array: str
    row_a: Expr
    row_b: Expr
    col_loop: Loop


@dataclass(frozen=True)
class ColumnUpdate:
    """Row-elementwise update of whole columns of ``array``.

    ``pivot_row`` is the multiplier row (the ``k`` in
    ``A(I,J) -= A(I,k)*A(k,J)``), or None for a column scaling."""

    array: str
    pivot_row: Optional[Expr]
    loop: Loop


def _strip_guards(stmts: Sequence[Stmt]) -> list[Stmt]:
    out: list[Stmt] = []
    for s in stmts:
        if isinstance(s, If) and not s.els:
            out.extend(_strip_guards(s.then))
        else:
            out.append(s)
    return out


def match_row_interchange(loop: Loop) -> Optional[RowInterchange]:
    """Recognize the whole-row swap idiom; None when the body differs."""
    body = [s for s in _strip_guards(loop.body) if isinstance(s, Assign)]
    if len(body) != 3 or len(body) != len(_strip_guards(loop.body)):
        return None
    s1, s2, s3 = body
    j = loop.var
    # TAU = A(r1, J)
    if not (isinstance(s1.target, Var) and isinstance(s1.value, ArrayRef)):
        return None
    tau = s1.target.name
    a = s1.value
    if len(a.index) != 2 or a.index[1] != Var(j):
        return None
    r1 = a.index[0]
    # A(r1, J) = A(r2, J)
    if not (
        isinstance(s2.target, ArrayRef)
        and isinstance(s2.value, ArrayRef)
        and s2.target.array == a.array
        and s2.value.array == a.array
        and s2.target.index == a.index
        and len(s2.value.index) == 2
        and s2.value.index[1] == Var(j)
    ):
        return None
    r2 = s2.value.index[0]
    # A(r2, J) = TAU
    if not (
        isinstance(s3.target, ArrayRef)
        and s3.target.array == a.array
        and s3.target.index == (r2, Var(j))
        and s3.value == Var(tau)
    ):
        return None
    if j in free_vars(r1) or j in free_vars(r2):
        return None
    return RowInterchange(a.array, r1, r2, loop)


def _is_rank1_update(assign: Assign, i_var: str) -> Optional[tuple[str, Expr, Expr]]:
    """Match ``A(I,j) = A(I,j) ± A(I,k) * A(k,j)`` over the row variable
    ``I``; returns (array, j, k), neither subscript mentioning ``I``."""
    t = assign.target
    if not (isinstance(t, ArrayRef) and len(t.index) == 2 and t.index[0] == Var(i_var)):
        return None
    j = t.index[1]
    if i_var in free_vars(j):
        return None
    v = assign.value
    if not (isinstance(v, BinOp) and v.op in ("+", "-") and v.left == t):
        return None
    prod = v.right
    if not (isinstance(prod, BinOp) and prod.op == "*"):
        return None
    x, y = prod.left, prod.right
    if not (isinstance(x, ArrayRef) and isinstance(y, ArrayRef) and x.array == t.array and y.array == t.array):
        return None
    # A(I,k) * A(k,j) in either order
    for mult, pivot in ((x, y), (y, x)):
        if (
            len(mult.index) == 2
            and mult.index[0] == Var(i_var)
            and len(pivot.index) == 2
            and pivot.index[1] == j
            and mult.index[1] == pivot.index[0]
        ):
            k = mult.index[1]
            if i_var not in free_vars(k):
                return t.array, j, k
    return None


def _is_column_scale(assign: Assign, i_var: str) -> Optional[tuple[str, Expr]]:
    """Match ``A(I,k) = A(I,k) / A(k,k)``; returns (array, k)."""
    t = assign.target
    if not (isinstance(t, ArrayRef) and len(t.index) == 2 and t.index[0] == Var(i_var)):
        return None
    k = t.index[1]
    if i_var in free_vars(k):
        return None
    v = assign.value
    if not (isinstance(v, BinOp) and v.op == "/" and v.left == t):
        return None
    piv = v.right
    if not (isinstance(piv, ArrayRef) and piv.array == t.array and piv.index == (k, k)):
        return None
    return t.array, k


def match_column_update(loop: Loop) -> Optional[ColumnUpdate]:
    """Recognize a whole-column update nest rooted at ``loop``.

    Accepts ``DO J ... DO I ... rank1`` (outer column sweep), the inner
    ``DO I`` of a rank-1 update alone (its column variable is outer,
    symbolic here), and the single-loop column scale
    ``DO I ... A(I,k)=A(I,k)/A(k,k)``.
    """
    body = _strip_guards(loop.body)
    if len(body) == 1 and isinstance(body[0], Loop):
        inner = body[0]
        ibody = _strip_guards(inner.body)
        if len(ibody) == 1 and isinstance(ibody[0], Assign):
            got = _is_rank1_update(ibody[0], inner.var)
            if got is not None and got[1] == Var(loop.var) and loop.var not in free_vars(got[2]):
                return ColumnUpdate(got[0], got[2], loop)
    if len(body) == 1 and isinstance(body[0], Assign):
        got = _is_column_scale(body[0], loop.var)
        if got is not None:
            return ColumnUpdate(got[0], got[1], loop)
        got = _is_rank1_update(body[0], loop.var)
        if got is not None:
            return ColumnUpdate(got[0], got[2], loop)
    return None


@dataclass(frozen=True)
class ReductionUpdate:
    """A commutative accumulation ``acc = acc op expr``.

    ``target`` is the accumulator reference (array element or scalar),
    ``op`` the accumulation operator as written (``+``, ``-``, or ``*``;
    ``-`` folds into ``+`` of the negated term), and ``term`` the
    accumulated expression, which must not read the accumulator again.
    Iterations that only touch a location through such updates commute —
    the basis of the ``REDUCTION`` parallelism verdict in
    :mod:`repro.par.detect`.
    """

    target: Expr  # ArrayRef | Var
    op: str
    term: Expr

    @property
    def array(self) -> Optional[str]:
        return self.target.array if isinstance(self.target, ArrayRef) else None


def _reads_location(e: Expr, target: Expr) -> bool:
    """Does ``e`` contain a read of the accumulator's array/scalar?"""
    from repro.ir.visit import walk_exprs

    if isinstance(target, ArrayRef):
        return any(isinstance(x, ArrayRef) and x.array == target.array for x in walk_exprs(e))
    return any(isinstance(x, Var) and x.name == target.name for x in walk_exprs(e))


def match_reduction_update(stmt: Stmt) -> Optional[ReductionUpdate]:
    """Recognize ``acc = acc op term`` (op commutative-associative).

    Accepts ``acc + term``, ``term + acc``, ``acc - term`` and
    ``acc * term`` / ``term * acc``; the accumulated term must not read the
    accumulator's array (or scalar) again, otherwise the update is not a
    pure accumulation and iterations do not commute.
    """
    if not isinstance(stmt, Assign):
        return None
    t, v = stmt.target, stmt.value
    if not isinstance(v, BinOp):
        return None
    if v.op == "+" or v.op == "*":
        for acc, term in ((v.left, v.right), (v.right, v.left)):
            if acc == t and not _reads_location(term, t):
                return ReductionUpdate(t, v.op, term)
        return None
    if v.op == "-" and v.left == t and not _reads_location(v.right, t):
        return ReductionUpdate(t, "-", v.right)
    return None


def accumulations_commute(op_a: str, op_b: str) -> bool:
    """Can two accumulation updates to the same location be reordered?

    ``+`` and ``-`` mix freely (both are additions of signed terms); ``*``
    only commutes with itself.  Mixing ``+`` with ``*`` is not associative
    across iterations.
    """
    additive = {"+", "-"}
    if op_a in additive and op_b in additive:
        return True
    return op_a == "*" and op_b == "*"


def operations_commute(a: object, b: object) -> bool:
    """Do two matched operation groups commute?

    Built-in knowledge: a :class:`RowInterchange` commutes with a
    :class:`ColumnUpdate` on the same array — the Sec. 5.2 rule.  Extend by
    appending (type, type) pairs to :data:`COMMUTING_PAIRS`.
    """
    for ta, tb in COMMUTING_PAIRS:
        if isinstance(a, ta) and isinstance(b, tb) and getattr(a, "array", None) == getattr(b, "array", None):
            return True
        if isinstance(a, tb) and isinstance(b, ta) and getattr(a, "array", None) == getattr(b, "array", None):
            return True
    return False


#: Extensible registry of commuting operation-group types.
COMMUTING_PAIRS: list[tuple[type, type]] = [(RowInterchange, ColumnUpdate)]


def _match_group(stmt: Stmt):
    """Classify a top-level statement of the loop body as a known
    operation group, if possible."""
    if not isinstance(stmt, Loop):
        return None
    return match_row_interchange(stmt) or match_column_update(stmt)


def commutativity_oracle(proc: Procedure, loop: Loop, dep) -> bool:
    """May ``dep`` be ignored for distribution of ``loop``?

    True exactly when its endpoints live in two *different* top-level
    statement groups of the loop body that match known commuting
    operations (row interchange vs whole-column update, Sec. 5.2).
    """
    u = _top_stmt_of(dep.source, loop)
    v = _top_stmt_of(dep.sink, loop)
    return u is not v and operations_commute(_match_group(u), _match_group(v))
