"""Loop-nest intermediate representation.

The IR models the Fortran-77 subset every listing in Carr & Kennedy (SC '92)
is written in: rectangular/triangular DO nests over arrays with affine
subscripts, IF guards, MIN/MAX loop bounds, and a handful of intrinsics —
plus the paper's Section 6 language extensions (``BLOCK DO`` / ``IN DO`` /
``LAST``).

Public surface:

- expressions: :mod:`repro.ir.expr` (re-exported here)
- statements & procedures: :mod:`repro.ir.stmt`
- construction helpers: :mod:`repro.ir.build`
- traversal/rewriting: :mod:`repro.ir.visit`
- pretty printers: :mod:`repro.ir.pretty`
- structural hashing: :mod:`repro.ir.fingerprint`
"""

from repro.ir.expr import (
    ArrayRef,
    BinOp,
    Call,
    Compare,
    Const,
    Expr,
    IntDiv,
    LogicalOp,
    Max,
    Min,
    Not,
    Var,
    as_expr,
    ONE,
    ZERO,
)
from repro.ir.stmt import (
    ArrayDecl,
    Assign,
    BlockLoop,
    Comment,
    If,
    InLoop,
    Loop,
    ParallelLoop,
    Procedure,
    Stmt,
)
from repro.ir.build import assign, block_do, do, in_do, ref, sym
from repro.ir.fingerprint import ir_fingerprint, ir_size
from repro.ir.pretty import to_fortran
from repro.ir.visit import (
    NodeTransformer,
    NodeVisitor,
    find_loops,
    loop_by_var,
    substitute,
    walk_exprs,
    walk_stmts,
)

__all__ = [
    "ArrayDecl",
    "ArrayRef",
    "Assign",
    "BinOp",
    "BlockLoop",
    "Call",
    "Comment",
    "Compare",
    "Const",
    "Expr",
    "If",
    "InLoop",
    "IntDiv",
    "LogicalOp",
    "Loop",
    "Max",
    "Min",
    "NodeTransformer",
    "NodeVisitor",
    "Not",
    "ONE",
    "ParallelLoop",
    "Procedure",
    "Stmt",
    "Var",
    "ZERO",
    "as_expr",
    "assign",
    "block_do",
    "do",
    "find_loops",
    "in_do",
    "ir_fingerprint",
    "ir_size",
    "loop_by_var",
    "ref",
    "substitute",
    "sym",
    "to_fortran",
    "walk_exprs",
    "walk_stmts",
]
