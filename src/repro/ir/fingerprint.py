"""Stable structural fingerprints of IR nodes.

``ir_fingerprint`` hashes the *structure* of an expression, statement,
procedure, or whole body: node types plus every field, in declaration
order.  Two nodes compare equal (``==``) exactly when their fingerprints
agree, so the fingerprint is usable as a content-address for memoizing
expensive analyses (:mod:`repro.pipeline.cache`) and for recording
before/after identities in pipeline traces.  Renaming a variable changes
the fingerprint; rebuilding an identical tree does not.

The digest is sha256 over a canonical token stream, so it is stable
across processes and Python versions (no reliance on ``hash()``
randomization).  The tokens are joined and hashed once per call, which
is the digest of the same stream fed token by token.  The walk
dispatches on ``type(node)``, keeping each IR class's opening token and
field names; any other value takes the ``isinstance`` chain.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Sequence, Union

from repro.ir.expr import Expr
from repro.ir.stmt import ArrayDecl, Procedure, Stmt
from repro.ir.visit import stmt_exprs, walk_exprs, walk_stmts

Node = Union[Expr, Stmt, Procedure, ArrayDecl]
Fingerprintable = Union[Node, Sequence[Stmt]]


# IR class -> (opening token, field names in declaration order)
_SHAPES: dict[type, tuple[str, tuple[str, ...]]] = {}


def _tokens(node, out: list[str]) -> None:
    shape = _SHAPES.get(type(node))
    if shape is not None:
        out.append(shape[0])
        for name in shape[1]:
            value = getattr(node, name)
            if type(value) is str:  # names and operators: most fields
                out.append(f"s{len(value)}:{value}")
            else:
                _tokens(value, out)
        out.append(">")
    elif type(node) is str:
        out.append(f"s{len(node)}:{node}")
    elif type(node) is tuple:
        out.append(f"[{len(node)}")
        for item in node:
            _tokens(item, out)
        out.append("]")
    elif node is None:
        out.append("~")
    elif isinstance(node, bool):  # before int: bool is an int subclass
        out.append("b1" if node else "b0")
    elif isinstance(node, str):
        out.append(f"s{len(node)}:{node}")
    elif isinstance(node, int):
        out.append(f"i{node}")
    elif isinstance(node, float):  # an np.float64 too: its repr is the token
        out.append(f"f{node!r}")
    elif isinstance(node, (tuple, list)):
        out.append(f"[{len(node)}")
        for item in node:
            _tokens(item, out)
        out.append("]")
    elif isinstance(node, (Expr, Stmt, Procedure, ArrayDecl)):
        cls = type(node)
        _SHAPES[cls] = (f"<{cls.__name__}", tuple(f.name for f in dataclasses.fields(cls)))
        _tokens(node, out)
    else:
        raise TypeError(f"cannot fingerprint {type(node).__name__}")


def ir_fingerprint(node: Fingerprintable) -> str:
    """Hex sha256 of the canonical structure of ``node``.

    Accepts any IR node, a :class:`Procedure`, or a sequence of
    statements (a body).  Structural equality implies fingerprint
    equality and, modulo hash collisions, vice versa.
    """
    out: list[str] = []
    _tokens(node, out)
    return hashlib.sha256("".join(out).encode("utf-8")).hexdigest()


def ir_size(node: Fingerprintable) -> int:
    """Number of statement plus expression nodes under ``node``.

    The pipeline reports per-pass deltas of this count: strip mining and
    unrolling grow it, single-trip elimination shrinks it, and a pass
    that reports "applied" while the size and fingerprint are unchanged
    is suspect.
    """
    if isinstance(node, Expr):
        return sum(1 for _ in walk_exprs(node))
    if isinstance(node, ArrayDecl):
        return sum(ir_size(d) for d in node.dims)
    stmts = list(walk_stmts(node))
    exprs = sum(1 for s in stmts for e in stmt_exprs(s) for _ in walk_exprs(e))
    return len(stmts) + exprs
