"""QR decomposition with Givens rotations (paper Sec. 5.4, Figs. 9–10).

The point algorithm (Fig. 9) zeroes each subdiagonal element ``A(J,L)``
with a plane rotation of rows L and J; the inner K sweep walks *across*
row L and row J — a long-stride access pattern in column-major storage,
hence the poor cache behaviour the paper measures.  No best block
algorithm is known; the optimized form (Fig. 10) instead combines

1. index-set splitting of K at L (the recurrence with the pivot element
   ``A(L,L)`` exists only there),
2. scalar expansion of the rotation coefficients C, S into C(J), S(J),
3. distribution of the J loop with *fused* IF-inspection (the rotation
   zeroes exactly the element the guard reads, so the executed ranges are
   recorded during the first sweep), and
4. interchange, putting K outermost over (JN, J) — stride-one access to
   ``A(J,K)`` and an invariant ``A(L,K)``.

``givens_optimized_ir`` transcribes Fig. 10 (with the inspection
bookkeeping the paper sketches as a comment written out).  Both listings
build the rotation from the same two steps: its coefficients, and the
rotation of rows L and J at one column (Fig. 9's K sweep; Fig. 10's split-
off column L in the first sweep and the interchanged K sweep after).  The
``givens_opt`` pass (``derive("givens")``) *derives* the same structure
with the generic transformations.
"""

from __future__ import annotations

import numpy as np

from repro.ir.build import assign, do, if_, ref
from repro.ir.expr import Call, Compare, Const, Var, smax, smin
from repro.ir.stmt import ArrayDecl, Procedure


def _coefficients(c, s) -> list:
    """The rotation zeroing ``A(J,L)`` against ``A(L,L)``: DEN, then the
    coefficients into ``c`` and ``s`` (scalars in Fig. 9, the expanded
    ``C(J)``/``S(J)`` in Fig. 10)."""
    return [
        assign("DEN", Call("DSQRT", (
            ref("A", "L", "L") * ref("A", "L", "L")
            + ref("A", "J", "L") * ref("A", "J", "L"),
        ))),
        assign(c, ref("A", "L", "L") / Var("DEN")),
        assign(s, ref("A", "J", "L") / Var("DEN")),
    ]


def _rotate(col, c, s) -> list:
    """Rotate rows L and J at column ``col`` by ``c`` and ``s``."""
    return [
        assign("A1", ref("A", "L", col)),
        assign("A2", ref("A", "J", col)),
        assign(ref("A", "L", col), c * Var("A1") + s * Var("A2")),
        assign(ref("A", "J", col), Const(0.0) - s * Var("A1") + c * Var("A2")),
    ]


def givens_point_ir(name: str = "givens_point") -> Procedure:
    """Figure 9 (GOTO guard normalized to IF-THEN)."""
    C, S = Var("C"), Var("S")
    rot = [*_coefficients(C, S), do("K", "L", "N", *_rotate("K", C, S))]
    return Procedure(
        name,
        ("M", "N"),
        (ArrayDecl("A", (Var("M"), Var("N"))),),
        (
            do(
                "L",
                1,
                "N",
                do(
                    "J",
                    Var("L") + 1,
                    "M",
                    if_(Compare("ne", ref("A", "J", "L"), Const(0.0)), rot),
                ),
            ),
        ),
    )


def givens_optimized_ir(name: str = "givens_opt") -> Procedure:
    """Figure 10: the optimized Givens QR, inspection code written out.

    Logical FLAG is modeled as INTEGER 0/1; the executor's J bounds carry
    the redundant MAX/MIN clamps our compiler emits (see
    ``repro.transform.if_inspection``)."""
    L, J = Var("L"), Var("J")
    C, S = ref("C", "J"), ref("S", "J")
    guard = Compare("ne", ref("A", "J", "L"), Const(0.0))
    open_range = if_(
        Compare("eq", Var("FLAG"), Const(0)),
        [
            assign("JC", Var("JC") + 1),
            assign(ref("JLB", "JC"), "J"),
            assign("FLAG", Const(1)),
        ],
    )
    close_range = if_(
        Compare("eq", Var("FLAG"), Const(1)),
        [
            assign(ref("JUB", "JC"), J - 1),
            assign("FLAG", Const(0)),
        ],
    )
    first_sweep = do(
        "J",
        L + 1,
        "M",
        if_(guard, [open_range, *_coefficients(C, S), *_rotate("L", C, S)], [close_range]),
    )
    close_last = if_(
        Compare("eq", Var("FLAG"), Const(1)),
        [assign(ref("JUB", "JC"), "M"), assign("FLAG", Const(0))],
    )
    executor = do(
        "K",
        L + 1,
        "N",
        do(
            "JN",
            1,
            "JC",
            do(
                "J",
                smax(ref("JLB", "JN"), L + 1),
                smin(ref("JUB", "JN"), Var("M")),
                *_rotate("K", C, S),
            ),
        ),
    )
    return Procedure(
        name,
        ("M", "N"),
        (
            ArrayDecl("A", (Var("M"), Var("N"))),
            ArrayDecl("C", (Var("M"),)),
            ArrayDecl("S", (Var("M"),)),
            ArrayDecl("JLB", (Var("M"),), dtype="i8"),
            ArrayDecl("JUB", (Var("M"),), dtype="i8"),
        ),
        (
            do(
                "L",
                1,
                "N",
                assign("FLAG", Const(0)),
                assign("JC", Const(0)),
                first_sweep,
                close_last,
                executor,
            ),
        ),
    )


def givens_ref(a: np.ndarray) -> np.ndarray:
    """Numpy oracle for Fig. 9: the resulting R factor overwriting A
    (identical rotation order: columns left to right, rows top to
    bottom)."""
    a = np.array(a, dtype=np.float64, order="F")
    m, n = a.shape
    for l in range(n):
        for j in range(l + 1, m):
            if a[j, l] == 0.0:
                continue
            # sqrt(x*x + y*y), exactly as the Fortran listing computes DEN
            # (np.hypot would be more robust but numerically different)
            den = np.sqrt(a[l, l] * a[l, l] + a[j, l] * a[j, l])
            c, s = a[l, l] / den, a[j, l] / den
            rl, rj = a[l, l:].copy(), a[j, l:].copy()
            a[l, l:] = c * rl + s * rj
            a[j, l:] = -s * rl + c * rj
    return a
