"""Time-series convolution kernels (paper Sec. 3.2).

Both loops come from an oil-exploration program; together they were 20% of
its execution time.  The adjoint convolution has a rhomboidal iteration
space (lower bound a linear function of the outer index), the convolution
proper a doubly-trapezoidal one (MAX lower bound and MIN upper bound).
The original data being proprietary seismic traces, the benchmarks run the
kernels on synthetic random series — the memory behaviour depends only on
the loop structure and sizes, both of which are in the paper.

Paper listings (0-based outer loops; our IR keeps the 0 lower bound and
sizes the arrays accordingly — F3(0:N3) etc. become 1-based arrays with an
index shift of +1)::

    DO 10 I = 0,N3                       DO 10 I = 0,N3
    DO 10 K = I,MIN(I+N2,N1)             DO 10 K = MAX(0,I-N2),MIN(I,N1)
    10 F3(I) = F3(I)+DT*F1(K)*F2(I-K)    10 F3(I) = F3(I)+DT*F1(K)*F2(I-K)

Wait — the adjoint convolution's F2 subscript: with K >= I the paper's
``F2(I-K)`` would be nonpositive; the standard adjoint kernel reads
``F2(K-I)``, and we transcribe that (the published listing's sign is a
typo; the access pattern — stride-one in K — is identical).
"""

from __future__ import annotations

import numpy as np

from repro.ir.build import assign, do, ref
from repro.ir.expr import Var, smax, smin
from repro.ir.stmt import ArrayDecl, Procedure


def _kernel(name: str, k_lo, k_hi, f2) -> Procedure:
    """``F3(I) = F3(I) + DT*F1(K)*F2(f2)`` for I in 1..N3 and K in
    ``k_lo..k_hi``: the two kernels differ only in those three."""
    return Procedure(
        name,
        ("N1", "N2", "N3"),
        (
            ArrayDecl("F1", (Var("N1"),)),
            ArrayDecl("F2", (Var("N2") + 1,)),
            ArrayDecl("F3", (Var("N3"),)),
        ),
        (
            do(
                "I",
                1,
                "N3",
                do(
                    "K",
                    k_lo,
                    k_hi,
                    assign(
                        ref("F3", "I"),
                        ref("F3", "I") + Var("DT") * ref("F1", "K") * ref("F2", f2),
                    ),
                ),
            ),
        ),
    ).adding_params("DT")


def aconv_ir(name: str = "aconv") -> Procedure:
    """Adjoint convolution: rhomboidal ``K`` in ``[I, I+N2]`` clipped by
    ``N1``.  1-based: I in 1..N3, K in I..MIN(I+N2, N1), F2 index K-I+1."""
    I, K = Var("I"), Var("K")
    return _kernel(name, "I", smin(I + Var("N2"), Var("N1")), K - I + 1)


def aconv_ref(f1: np.ndarray, f2: np.ndarray, f3: np.ndarray, dt: float) -> np.ndarray:
    """Numpy oracle for :func:`aconv_ir` (1-based semantics shifted)."""
    n1, n2p1, n3 = len(f1), len(f2), len(f3)
    n2 = n2p1 - 1
    out = f3.astype(np.float64).copy()
    for i in range(1, n3 + 1):
        hi = min(i + n2, n1)
        for k in range(i, hi + 1):
            out[i - 1] += dt * f1[k - 1] * f2[k - i]
    return out


def conv_ir(name: str = "conv") -> Procedure:
    """Convolution: doubly-trapezoidal ``K`` in
    ``[MAX(1, I-N2), MIN(I, N1)]`` with ``F2(I-K+1)`` (1-based shift)."""
    I, K = Var("I"), Var("K")
    return _kernel(name, smax(1, I - Var("N2")), smin(I, Var("N1")), I - K + 1)


def conv_ref(f1: np.ndarray, f2: np.ndarray, f3: np.ndarray, dt: float) -> np.ndarray:
    """Numpy oracle for :func:`conv_ir`."""
    n1, n2p1, n3 = len(f1), len(f2), len(f3)
    n2 = n2p1 - 1
    out = f3.astype(np.float64).copy()
    for i in range(1, n3 + 1):
        lo = max(1, i - n2)
        hi = min(i, n1)
        for k in range(lo, hi + 1):
            out[i - 1] += dt * f1[k - 1] * f2[i - k]
    return out
