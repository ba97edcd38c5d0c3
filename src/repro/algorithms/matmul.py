"""Guarded matrix multiply (paper Sec. 4).

The SGEMM-derived loop skips the inner column sweep whenever ``B(K,J)``
is zero::

    DO J = 1,N
      DO K = 1,N
        IF (B(K,J) .EQ. 0.0) GOTO 20
        DO I = 1,N
          C(I,J) = C(I,J) + A(I,K) * B(K,J)
    20  CONTINUE

The front end normalizes the GOTO guard to a structured IF-THEN, which is
how :func:`matmul_guarded_ir` builds it directly;
:func:`matmul_guard_inner_ir` moves the guard inside the I sweep, the
starting point of the paper's plain unroll-and-jam ("UJ") comparator.  The
Sec. 4 experiment varies the *frequency* of nonzeros in B; :func:`sparse_b`
generates the matching operand (a B whose entries are nonzero with probability ``freq``,
clustered into runs so the inspector's ranges resemble banded/blocked
sparsity rather than salt-and-pepper noise — runs are what make
IF-inspection's range encoding effective, per the paper's "if the ranges
... are large" remark; ``run_len=1`` gives the unclustered case).
"""

from __future__ import annotations

import numpy as np

from repro.ir.build import assign, do, if_, ref
from repro.ir.expr import Compare, Const, Var
from repro.ir.stmt import ArrayDecl, Procedure


def _matmul(name: str, dtype: str, guard_inner: bool) -> Procedure:
    """``C = C + A*B`` over (J, K, I) with the ``B(K,J) .NE. 0`` guard
    around the I sweep, or inside it when ``guard_inner``."""
    N = Var("N")

    def guarded(stmt):
        return if_(Compare("ne", ref("B", "K", "J"), Const(0.0)), [stmt])

    update = assign(
        ref("C", "I", "J"),
        ref("C", "I", "J") + ref("A", "I", "K") * ref("B", "K", "J"),
    )
    k_body = do("I", 1, "N", guarded(update)) if guard_inner else guarded(do("I", 1, "N", update))
    return Procedure(
        name,
        ("N",),
        (
            ArrayDecl("A", (N, N), dtype=dtype),
            ArrayDecl("B", (N, N), dtype=dtype),
            ArrayDecl("C", (N, N), dtype=dtype),
        ),
        (do("J", 1, "N", do("K", 1, "N", k_body)),),
    )


def matmul_guarded_ir(name: str = "matmul_guarded", dtype: str = "f4") -> Procedure:
    """The Sec. 4 guarded matrix multiply (REAL, like the paper's run)."""
    return _matmul(name, dtype, guard_inner=False)


def matmul_guard_inner_ir(name: str = "matmul_guard_inner") -> Procedure:
    """The guard replicated in the innermost loop — the starting point of
    the paper's (slower) plain-UJ comparator."""
    return _matmul(name, "f4", guard_inner=True)


def matmul_ref(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Numpy oracle: C + A @ B (the guard only skips zero contributions)."""
    return c + a @ b


def sparse_b(n: int, freq: float, run_len: int = 8, seed: int = 0) -> np.ndarray:
    """A B operand whose nonzero fraction is ``freq``, in runs of about
    ``run_len`` along each column (the inspected direction)."""
    rng = np.random.default_rng(seed)
    b = np.zeros((n, n), order="F")
    n_nonzero = int(round(freq * n * n))
    placed = 0
    while placed < n_nonzero:
        j = int(rng.integers(n))
        k0 = int(rng.integers(n))
        length = min(int(rng.integers(1, run_len + 1)), n - k0, n_nonzero - placed)
        vals = rng.uniform(0.5, 1.5, size=length)
        newly = int(np.count_nonzero(b[k0 : k0 + length, j] == 0.0))
        b[k0 : k0 + length, j] = vals
        placed += newly
    return b
