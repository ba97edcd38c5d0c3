"""Deriving LAPACK's block LU from the natural point algorithm (Sec. 5.1).

The point algorithm is written the way a numerical analyst would write it —
as Fortran text.  The compiler front end parses it, the linter gives the
Sec. 5 verdict, the blocking driver derives Figure 6, and the result is
validated numerically and measured on the simulated memory hierarchy.

Run:  python examples/block_lu_demo.py
"""

import numpy as np

from repro.algorithms import lu_ref
from repro.bench.harness import measure
from repro.check import lint_loop
from repro.frontend import parse_procedure
from repro.ir import to_fortran
from repro.machine.model import scaled_machine
from repro.runtime import compile_procedure
from repro.symbolic.assume import Assumptions
from repro.transform import block_loop

POINT_LU = """
SUBROUTINE LU(N)
  DOUBLE PRECISION A(N,N)
  DO 10 K = 1,N-1
    DO 20 I = K+1,N
20    A(I,K) = A(I,K) / A(K,K)
    DO 10 J = K+1,N
      DO 10 I = K+1,N
10      A(I,J) = A(I,J) - A(I,K) * A(K,J)
END
"""


def main() -> None:
    point = parse_procedure(POINT_LU)
    print("input (as parsed from Fortran):")
    print(to_fortran(point))

    # --- the blockability study ------------------------------------------
    ctx = Assumptions().assume_ge("N", 2)
    verdict = lint_loop(point, "K", ctx=ctx).verdict
    print(f"\nverdict: {verdict}")
    assert verdict == "blockable"
    block, report = block_loop(point, "K", "KS", ctx=ctx)
    for step in report.steps:
        print("  *", step)
    print("\nderived block algorithm (the paper's Figure 6):")
    print(to_fortran(block))

    # --- numerical validation against an independent oracle ---------------
    n, ks = 48, 8
    rng = np.random.default_rng(0)
    a0 = rng.uniform(0.5, 1.5, (n, n)) + np.eye(n) * n
    got = compile_procedure(block)({"N": n, "KS": ks}, arrays={"A": a0})["A"]
    want = compile_procedure(point)({"N": n}, arrays={"A": a0})["A"]
    assert got.tobytes() == want.tobytes()
    assert np.allclose(got, lu_ref(a0))
    l = np.tril(got, -1) + np.eye(n)
    u = np.triu(got)
    print(f"\nnumerics: ||L@U - A|| = {np.max(np.abs(l @ u - a0)):.2e}  (N={n}, KS={ks})")

    # --- memory behaviour --------------------------------------------------
    machine = scaled_machine(4)
    before = measure(point, {"N": 100}, machine)
    after = measure(block, {"N": 100, "KS": 8}, machine)
    print(f"\non {machine.describe()} at N=100:")
    print(f"   point : {before.misses:8d} misses  modeled {before.modeled_seconds:.4f}s")
    print(f"   block : {after.misses:8d} misses  modeled {after.modeled_seconds:.4f}s")


if __name__ == "__main__":
    main()
