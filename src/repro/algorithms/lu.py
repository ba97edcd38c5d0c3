"""LU decomposition: point and block, with and without partial pivoting
(paper Secs. 5.1–5.2, Figs. 6–8).

The listings share their steps, as the paper derives them from each
other.  One elimination step (scale column ``K`` below the diagonal, then
update the columns to its right) is the whole body of the point algorithm
(Sec. 5.1); Fig. 7 puts its pivot search and row interchange in front of
it.  The block algorithms run that point step on the block columns ``KK``
of one ``K`` block, then the aggregated trailing update: Fig. 8 is Fig. 6's
panel plus Fig. 7's pivot step, "the point algorithm on the block columns".
The block listings carry the MIN/MAX clamps the paper elides for
exposition (its bare ``K+KS-1`` bounds assume the block size divides the
problem); with dividing sizes the two are iteration-for-iteration
identical, and the figure benchmarks check that our *compiler-derived*
block algorithms match these transcriptions.

``lu_sorensen_ir`` stands in for the hand-coded blocked routine by
Sorensen the paper calls "1" (we do not have his source): Fig. 6 with the
trailing update reordered (J, KK, I) — a natural hand-coded choice with
BLAS-2 flavour.  The substitution is recorded in DESIGN.md; the paper
itself measures "1" and "2" within a few percent of each other, which our
cache model reproduces.
"""

from __future__ import annotations

import numpy as np

from repro.ir.build import assign, do, if_, ref
from repro.ir.expr import Call, Compare, Var, smin
from repro.ir.stmt import ArrayDecl, Assign, Procedure


def _update(i: str, j: str, k: str) -> Assign:
    """``A(I,J) = A(I,J) - A(I,K) * A(K,J)``, the rank-1 update statement."""
    return assign(ref("A", i, j), ref("A", i, j) - ref("A", i, k) * ref("A", k, j))


def _eliminate(k: str, j_hi) -> tuple:
    """Scale column ``k`` below the diagonal, then update columns
    ``k+1..j_hi`` with it."""
    lo = Var(k) + 1
    return (
        do("I", lo, "N", assign(ref("A", "I", k), ref("A", "I", k) / ref("A", k, k))),
        do("J", lo, j_hi, do("I", lo, "N", _update("I", "J", k))),
    )


def _pivot(k: str) -> tuple:
    """Fig. 7's pivot step on column ``k``: the IMAX search from the
    diagonal down, then the whole-row interchange (statements 25/30)."""
    def abs_a(i):
        return Call("ABS", (ref("A", i, k),))

    return (
        assign("IMAX", Var(k)),
        assign("PMAX", abs_a("IMAX")),
        do(
            "I",
            Var(k) + 1,
            "N",
            if_(
                Compare("gt", abs_a("I"), Var("PMAX")),
                [assign("PMAX", abs_a("I")), assign("IMAX", "I")],
            ),
        ),
        do(
            "J",
            1,
            "N",
            assign("TAU", ref("A", k, "J")),
            assign(ref("A", k, "J"), ref("A", "IMAX", "J")),
            assign(ref("A", "IMAX", "J"), "TAU"),
        ),
    )


def _point_lu(name: str, pivot: bool) -> Procedure:
    """The point algorithm: one elimination step per column ``K``,
    after Fig. 7's pivot step when ``pivot``."""
    N = Var("N")
    step = _pivot("K") if pivot else ()
    return Procedure(
        name,
        ("N",),
        (ArrayDecl("A", (N, N)),),
        (do("K", 1, N - 1, *step, *_eliminate("K", "N")),),
    )


def _block_lu(name: str, pivot: bool, sorensen: bool) -> Procedure:
    """A block LU: the point step on the block columns ``KK`` of a
    ``KS``-wide block (the panel), then the trailing update of the columns
    right of it, ordered (J, I, KK) as in Figs. 6/8 or (J, KK, I) for
    Sorensen's stand-in."""
    K, KK, I, N, KS = (Var(v) for v in ("K", "KK", "I", "N", "KS"))
    kk_hi = smin(K + KS - 1, N - 1)
    step = _pivot("KK") if pivot else ()
    if sorensen:
        trailing = do("KK", "K", kk_hi, do("I", KK + 1, "N", _update("I", "J", "KK")))
    else:
        kk_to_i = do("KK", "K", smin(I - 1, K + KS - 1), _update("I", "J", "KK"))
        trailing = do("I", K + 1, "N", kk_to_i)
    return Procedure(
        name,
        ("N", "KS"),
        (ArrayDecl("A", (N, N)),),
        (
            do(
                "K",
                1,
                N - 1,
                do("KK", "K", kk_hi, *step, *_eliminate("KK", kk_hi)),
                do("J", smin(K + KS, N), "N", trailing),
                step="KS",
            ),
        ),
    )


def lu_point_ir(name: str = "lu_point") -> Procedure:
    """Point LU without pivoting (Sec. 5.1 listing, before strip mining)."""
    return _point_lu(name, pivot=False)


def lu_block_fig6_ir(name: str = "lu_block_fig6") -> Procedure:
    """Figure 6: the best block LU, as published (clamps added)."""
    return _block_lu(name, pivot=False, sorensen=False)


def lu_sorensen_ir(name: str = "lu_block_sorensen") -> Procedure:
    """Stand-in for Sorensen's hand-blocked LU ("1"): Fig. 6 with a
    (J, KK, I) trailing update (see module docstring)."""
    return _block_lu(name, pivot=False, sorensen=True)


def lu_ref(a: np.ndarray) -> np.ndarray:
    """Numpy oracle: in-place point Gaussian elimination, no pivoting.
    Returns the packed LU factors (unit-lower L below the diagonal)."""
    a = np.array(a, dtype=np.float64, order="F")
    n = a.shape[0]
    for k in range(n - 1):
        a[k + 1 :, k] /= a[k, k]
        a[k + 1 :, k + 1 :] -= np.outer(a[k + 1 :, k], a[k, k + 1 :])
    return a


# ---------------------------------------------------------------------------
# partial pivoting (Sec. 5.2)
# ---------------------------------------------------------------------------

def lu_pivot_point_ir(name: str = "lu_pivot_point") -> Procedure:
    """Figure 7: point LU with partial pivoting (pivot search explicit)."""
    return _point_lu(name, pivot=True)


def lu_pivot_block_fig8_ir(name: str = "lu_pivot_block_fig8") -> Procedure:
    """Figure 8: block LU with partial pivoting — the point algorithm on
    the block columns, then the aggregated trailing update."""
    return _block_lu(name, pivot=True, sorensen=False)


def lu_pivot_ref(a: np.ndarray) -> np.ndarray:
    """Numpy oracle for Fig. 7 semantics: packed factors of the *permuted*
    matrix, rows physically interchanged exactly as the point code does.

    Note the Fig. 7 interchange swaps *whole* rows (columns 1..N), so the
    already-computed L columns are permuted along — LINPACK-style."""
    a = np.array(a, dtype=np.float64, order="F")
    n = a.shape[0]
    for k in range(n - 1):
        imax = k + int(np.argmax(np.abs(a[k:, k])))
        if imax != k:
            a[[k, imax], :] = a[[imax, k], :]
        a[k + 1 :, k] /= a[k, k]
        a[k + 1 :, k + 1 :] -= np.outer(a[k + 1 :, k], a[k, k + 1 :])
    return a
