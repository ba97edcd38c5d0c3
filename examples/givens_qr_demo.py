"""Optimizing Givens QR (Sec. 5.4): Figure 9 to Figure 10, automatically.

No block algorithm exists for Givens QR; the paper instead derives a
memory-friendly form with index-set splitting, scalar expansion, fused
IF-inspection and interchange.  This demo runs the ``givens_opt`` pass,
prints the result (which matches the paper's Fig. 10 node for node),
checks bitwise equivalence, and shows the stride story on the cache model.

Run:  python examples/givens_qr_demo.py
"""

import numpy as np

from repro.algorithms import givens_optimized_ir, givens_point_ir, givens_ref
from repro.bench.harness import measure
from repro.ir import to_fortran
from repro.machine.model import scaled_machine
from repro.pipeline import derive
from repro.runtime import compile_procedure
from repro.symbolic.assume import Assumptions
from repro.transform import scalar_replace


def main() -> None:
    point = givens_point_ir()
    print("Figure 9 — the point algorithm:")
    print(to_fortran(point))

    result = derive("givens")
    optimized = result.procedure
    print("\nderivation steps:")
    for s in result.span("givens_opt").detail["steps"]:
        print("  *", s)
    print("\nderived program (= the paper's Figure 10):")
    print(to_fortran(optimized))
    assert optimized.body == givens_optimized_ir().body

    # --- bitwise equivalence, guard included -----------------------------
    rng = np.random.default_rng(4)
    m, n = 24, 18
    a0 = rng.uniform(-1, 1, (m, n))
    a0[rng.uniform(size=(m, n)) < 0.2] = 0.0  # exercise the zero guard
    r1 = compile_procedure(point)({"M": m, "N": n}, arrays={"A": a0})["A"]
    r2 = compile_procedure(optimized)({"M": m, "N": n}, arrays={"A": a0})["A"]
    assert r1.tobytes() == r2.tobytes()
    assert np.allclose(r1, givens_ref(a0))
    print(f"\nbitwise equivalence checked at {m}x{n} (with zero guards)")

    # --- why it is faster: strides ----------------------------------------
    machine = scaled_machine(4)
    ctx = Assumptions().assume_ge("M", 2).assume_le("N", "M")
    measured, _ = scalar_replace(optimized, ctx)  # registers, like f77 -O
    size = 96
    a = np.asfortranarray(rng.uniform(0.1, 1.0, (size, size)))
    before = measure(point, {"M": size, "N": size}, machine, arrays={"A": a})
    after = measure(measured, {"M": size, "N": size}, machine, arrays={"A": a})
    print(f"\non {machine.describe()} at {size}x{size}:")
    print(f"   point     : {before.misses:8d} misses, {before.tlb_misses:8d} TLB misses")
    print(f"   optimized : {after.misses:8d} misses, {after.tlb_misses:8d} TLB misses")
    print(f"   modeled speedup: {before.modeled_seconds / after.modeled_seconds:.2f}x")
    print("\n(row sweeps became column sweeps: stride-one access to A(J,K),")
    print(" invariant A(L,K) — the paper's entire Sec. 5.4 story)")


if __name__ == "__main__":
    main()
