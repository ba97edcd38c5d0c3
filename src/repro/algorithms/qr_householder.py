"""QR decomposition with Householder transformations (paper Sec. 5.3).

The point algorithm applies elementary reflectors ``I - 2 v v^T`` column
by column.  The paper's finding — reproduced by
``benchmarks/bench_householder_verdict.py`` — is that this algorithm is
**not blockable**: the block form applies ``Q = I - 2 V T V^T`` where the
upper-triangular ``T`` matrix involves storage and computation that simply
do not exist in the point algorithm, so no dependence-based reordering of
the point code can produce it.  Accordingly this module provides:

- :func:`householder_point_ir` — the point algorithm in IR, the input to
  the blockability linter (expected verdict: not-blockable);
- :func:`householder_ref` — numpy oracle for the point algorithm;
- :func:`householder_block_ref` — the WY-aggregated block algorithm
  (with the T matrix), written directly in numpy.  It exists to
  *demonstrate* the paper's argument: it computes the same R while
  performing auxiliary computation (`T`, `W`) with no counterpart in the
  point IR, and the benchmark compares both their results and their
  memory traffic.

The IR transcription stores the Householder vector of column k in a work
array ``V`` and applies ``A := A - 2 v (v^T A)`` with explicit loops,
matching how the Fortran point code would be written.
"""

from __future__ import annotations

import numpy as np

from repro.ir.build import assign, do, if_, ref
from repro.ir.expr import Call, Compare, Const, Var
from repro.ir.stmt import ArrayDecl, Procedure


def householder_point_ir(name: str = "householder_point") -> Procedure:
    """Point Householder QR: for each column K build the reflector in V
    and update the trailing columns.

    SIGMA = sign-adjusted column norm; the reflector is normalized so the
    loop structure (two passes over the trailing submatrix per K) matches
    the standard point formulation."""
    K, I, J, M, N = (Var(v) for v in ("K", "I", "J", "M", "N"))
    return Procedure(
        name,
        ("M", "N"),
        (
            ArrayDecl("A", (M, N)),
            ArrayDecl("V", (M,)),
            ArrayDecl("W", (N,)),
        ),
        (
            do(
                "K",
                1,
                "N",
                # SIGMA = sqrt(sum A(I,K)^2), sign of A(K,K)
                assign("SIGMA", Const(0.0)),
                do(
                    "I",
                    "K",
                    "M",
                    assign("SIGMA", Var("SIGMA") + ref("A", "I", "K") * ref("A", "I", "K")),
                ),
                assign("SIGMA", Call("DSQRT", (Var("SIGMA"),))),
                if_(
                    Compare("lt", ref("A", "K", "K"), Const(0.0)),
                    [assign("SIGMA", Const(0.0) - Var("SIGMA"))],
                ),
                # v = x + sigma*e1 ; VNORM2 = v.v
                assign("VNORM2", Const(0.0)),
                do(
                    "I",
                    "K",
                    "M",
                    assign(ref("V", "I"), ref("A", "I", "K")),
                ),
                assign(ref("V", "K"), ref("V", "K") + Var("SIGMA")),
                do(
                    "I",
                    "K",
                    "M",
                    assign("VNORM2", Var("VNORM2") + ref("V", "I") * ref("V", "I")),
                ),
                # apply I - 2 v v^T / (v.v) to columns K..N
                do(
                    "J",
                    "K",
                    "N",
                    assign("DOT", Const(0.0)),
                    do(
                        "I",
                        "K",
                        "M",
                        assign("DOT", Var("DOT") + ref("V", "I") * ref("A", "I", "J")),
                    ),
                    assign("BETA", Const(2.0) * Var("DOT") / Var("VNORM2")),
                    do(
                        "I",
                        "K",
                        "M",
                        assign(
                            ref("A", "I", "J"),
                            ref("A", "I", "J") - Var("BETA") * ref("V", "I"),
                        ),
                    ),
                ),
            ),
        ),
    )


def householder_ref(a: np.ndarray) -> np.ndarray:
    """Numpy oracle mirroring :func:`householder_point_ir` step for step."""
    a = np.array(a, dtype=np.float64, order="F")
    m, n = a.shape
    for k in range(n):
        x = a[k:, k]
        sigma = np.sqrt(np.sum(x * x))
        if a[k, k] < 0.0:
            sigma = -sigma
        v = x.copy()
        v[0] += sigma
        vnorm2 = np.sum(v * v)
        if vnorm2 == 0.0:
            continue
        for j in range(k, n):
            beta = 2.0 * np.dot(v, a[k:, j]) / vnorm2
            a[k:, j] -= beta * v
    return a


def householder_block_ref(a: np.ndarray, block: int) -> tuple[np.ndarray, dict]:
    """Block Householder QR via the compact WY form (the Sec. 5.3
    mathematics): per panel, factor pointwise collecting V and T with
    ``Q = I - 2 V T V^T``, then apply the aggregated block reflector to
    the trailing columns.

    Returns (R_in_place, stats) where stats counts the *auxiliary* floats
    written into T and W — the storage/computation the paper proves has no
    point-algorithm counterpart."""
    a = np.array(a, dtype=np.float64, order="F")
    m, n = a.shape
    aux_writes = 0
    for k0 in range(0, n, block):
        kb = min(block, n - k0)
        V = np.zeros((m - k0, kb), order="F")
        T = np.zeros((kb, kb), order="F")
        for j in range(kb):
            k = k0 + j
            x = a[k:, k]
            sigma = np.sqrt(np.sum(x * x))
            if a[k, k] < 0.0:
                sigma = -sigma
            v = np.zeros(m - k0)
            v[j:] = x
            v[j] += sigma
            vnorm2 = np.sum(v * v)
            if vnorm2 == 0.0:
                continue
            v /= np.sqrt(vnorm2)  # unit 2-norm so Q_j = I - 2 v v^T
            # update the rest of the current panel pointwise
            for jj in range(k0 + j, k0 + kb):
                beta = 2.0 * np.dot(v[j:], a[k:, jj])
                a[k:, jj] -= beta * v[j:]
            # accumulate the T factor for P = Q_kb ... Q_1 (reflectors are
            # applied first-to-last, so T comes out lower triangular):
            # row_j = -2 (V^T v_j)^T T
            V[:, j] = v
            if j > 0:
                T[j, :j] = -2.0 * ((V[:, :j].T @ v) @ T[:j, :j])
                aux_writes += j
            T[j, j] = 1.0
            aux_writes += 1
        # aggregated update of the trailing columns: A -= 2 V T V^T A
        trail = a[k0:, k0 + kb :]
        if trail.size:
            W = V.T @ trail
            aux_writes += W.size
            trail -= 2.0 * (V @ (T @ W))
    return a, {"aux_writes": aux_writes}
