"""Quickstart: analyze and block a loop nest with the repro compiler.

Builds the paper's Section 2.3 running example, inspects its dependences
and reuse, blocks it for a cache, and shows the memory-behaviour win on
the simulated machine.

Run:  python examples/quickstart.py
"""

from repro.analysis.dependence import all_dependences, render_witness
from repro.analysis.reuse import reuse_report
from repro.bench.harness import measure
from repro.ir import ArrayDecl, Procedure, Var, assign, do, ref, to_fortran
from repro.ir.visit import loop_by_var
from repro.machine.model import scaled_machine
from repro.runtime.validate import assert_equivalent
from repro.transform import block_loop


def main() -> None:
    # --- 1. write the point loop (Sec. 2.3) ------------------------------
    proc = Procedure(
        "vecadd",
        ("N", "M"),
        (ArrayDecl("A", (Var("M"),)), ArrayDecl("B", (Var("N"),))),
        (
            do(
                "J", 1, "N",
                do("I", 1, "M", assign(ref("A", "I"), ref("A", "I") + ref("B", "J"))),
            ),
        ),
    )
    print("point program:")
    print(to_fortran(proc))

    # --- 2. what does the compiler see? ----------------------------------
    print("\ndependences:")
    for dep in all_dependences(proc):
        print("  ", render_witness(dep.witness()))
    inner = loop_by_var(proc.body, "I")
    print("\nreuse w.r.t. the I loop:")
    for acc, kind in reuse_report(inner).entries:
        print(f"   {acc.ref.array}{tuple(map(str, acc.ref.index))}: {kind.value}")

    # --- 3. block the J loop ---------------------------------------------
    blocked, report = block_loop(proc, "J", "JS")
    print("\nblocking steps:")
    for step in report.steps:
        print("  *", step)
    print("\nblocked program:")
    print(to_fortran(blocked))

    # --- 4. same answers, fewer misses ------------------------------------
    sizes = {"N": 96, "M": 4096, "JS": 16}
    assert_equivalent(proc, blocked, sizes)
    machine = scaled_machine(4)
    before = measure(proc, sizes, machine)
    after = measure(blocked, sizes, machine)
    print(f"\non {machine.describe()}:")
    print(f"   point   : {before.misses:8d} misses, modeled {before.modeled_seconds:.4f}s")
    print(f"   blocked : {after.misses:8d} misses, modeled {after.modeled_seconds:.4f}s")
    print(f"   speedup : {before.modeled_seconds / after.modeled_seconds:.2f}x")
    assert after.misses < before.misses


if __name__ == "__main__":
    main()
