"""The static parallelism detector: verdicts, witnesses, annotation."""

from __future__ import annotations

import pytest

from repro.ir.build import assign, do, parallel_do, ref
from repro.ir.expr import Const, Var
from repro.ir.pretty import to_fortran
from repro.ir.stmt import ArrayDecl, Loop, ParallelLoop, Procedure
from repro.ir.visit import find_loops, walk_stmts
from repro.par.detect import (
    PARALLEL,
    REDUCTION,
    SERIAL,
    annotate_procedure,
    classify_loop,
    classify_procedure,
    verdict_counts,
)
from repro.pipeline.workloads import get_workload
from repro.symbolic.assume import Assumptions


def proc_of(*body, arrays=None, params=("N",)):
    arrays = arrays or (ArrayDecl("A", (Var("N"), Var("N"))),
                        ArrayDecl("B", (Var("N"),)))
    return Procedure("p", params, tuple(arrays), tuple(body))


N2 = Assumptions().assume_ge("N", 2)


def by_path(verdicts):
    return {"/".join(v.path): v for v in verdicts}


class TestElementwise:
    def test_independent_elementwise_loop_is_parallel(self):
        p = proc_of(do("I", 1, "N",
                       assign(ref("B", "I"), ref("B", "I") + Const(1.0))))
        (v,) = classify_procedure(p, N2)
        assert v.verdict == PARALLEL
        assert v.witness is None

    def test_shifted_read_is_serial_with_witness(self):
        # B(I) = B(I-1) + 1 — a distance-1 flow recurrence
        p = proc_of(do("I", 2, "N",
                       assign(ref("B", "I"),
                              ref("B", Var("I") - Const(1)) + Const(1.0))))
        (v,) = classify_procedure(p, N2)
        assert v.verdict == SERIAL
        w = v.witness
        assert w["array"] == "B"
        assert w["loops"] == ["I"]
        stmt = "B(I) = B(I - 1) + 1.0"
        assert w["source"] == {"stmt": stmt, "ref": "B(I)"}
        assert w["sink"] == {"stmt": stmt, "ref": "B(I - 1)"}

    def test_inner_parallel_outer_serial(self):
        # A(I,J) = A(I-1,J): I carries, J does not
        p = proc_of(do("I", 2, "N",
                       do("J", 1, "N",
                          assign(ref("A", "I", "J"),
                                 ref("A", Var("I") - Const(1), "J")
                                 + Const(1.0)))))
        vs = by_path(classify_procedure(p, N2))
        assert vs["I"].verdict == SERIAL
        assert vs["I/J"].verdict == PARALLEL


class TestReduction:
    def test_scalar_sum_is_reduction(self):
        p = proc_of(
            assign("S", Const(0.0)),
            do("I", 1, "N", assign("S", Var("S") + ref("B", "I"))),
        )
        (v,) = classify_procedure(p, N2)
        assert v.verdict == REDUCTION
        assert v.reductions == ("S",)

    def test_array_accumulation_is_reduction(self):
        # B(J) += A(I,J) carried over I
        p = proc_of(do("I", 1, "N",
                       do("J", 1, "N",
                          assign(ref("B", "J"),
                                 ref("B", "J") + ref("A", "I", "J")))))
        vs = by_path(classify_procedure(p, N2))
        assert vs["I"].verdict == REDUCTION
        assert vs["I/J"].verdict == PARALLEL

    def test_minus_accumulation_is_reduction(self):
        p = proc_of(do("I", 1, "N",
                       assign("S", Var("S") - ref("B", "I"))))
        (v,) = classify_procedure(p, N2)
        assert v.verdict == REDUCTION

    def test_mixed_add_mul_accumulation_is_serial(self):
        p = proc_of(do("I", 1, "N",
                       assign("S", Var("S") + ref("B", "I")),
                       assign("S", Var("S") * Const(2.0))))
        (v,) = classify_procedure(p, N2)
        assert v.verdict == SERIAL
        assert v.witness["kind"] in ("scalar", "mixed-ops")

    def test_scalar_recurrence_is_serial(self):
        # S both accumulated and read elsewhere: a real recurrence
        p = proc_of(do("I", 1, "N",
                       assign("S", Var("S") + ref("B", "I")),
                       assign(ref("B", "I"), Var("S"))))
        (v,) = classify_procedure(p, N2)
        assert v.verdict == SERIAL


class TestPrivateScalars:
    def test_iteration_private_scalar_is_parallel(self):
        # T is written before it is read in every iteration: privatizable
        p = proc_of(do("I", 1, "N",
                       assign("T", ref("B", "I") + Const(1.0)),
                       assign(ref("B", "I"), Var("T"))))
        (v,) = classify_procedure(p, N2)
        assert v.verdict == PARALLEL

    def test_upward_exposed_scalar_is_serial(self):
        # T read before written: its value crosses iterations
        p = proc_of(do("I", 1, "N",
                       assign(ref("B", "I"), Var("T")),
                       assign("T", ref("B", "I") + Const(1.0))))
        (v,) = classify_procedure(p, N2)
        assert v.verdict == SERIAL
        assert v.witness == {"kind": "scalar", "scalar": "T"}


class TestSoundness:
    def test_unknown_direction_stays_serial(self):
        # The write A(I,K) can never alias the read A(K,K) when I = K+1..N,
        # but the dependence tester reports a conservative '*' at I — the
        # detector must inherit that soundness (SERIAL, never PARALLEL by
        # accident) and name the edge.
        p = proc_of(do("K", 1, "N",
                       do("I", Var("K") + Const(1), "N",
                          assign(ref("A", "I", "K"),
                                 ref("A", "I", "K") / ref("A", "K", "K")))))
        vs = by_path(classify_procedure(p, N2))
        assert vs["K/I"].verdict == SERIAL
        assert vs["K/I"].witness["array"] == "A"


class TestRegistryWorkloads:
    def test_matmul_family_has_parallel_and_reduction(self):
        w = get_workload("matmul")
        vs = by_path(classify_procedure(w.build(), w.context(None)))
        assert vs["J"].verdict == PARALLEL
        assert vs["J/K"].verdict == REDUCTION
        assert vs["J/K/I"].verdict == PARALLEL

    def test_conv_outer_loop_parallel_inner_reduction(self):
        w = get_workload("conv")
        vs = by_path(classify_procedure(w.build(), w.context(None)))
        assert vs["I"].verdict == PARALLEL
        assert vs["I/K"].verdict == REDUCTION

    def test_lu_nopivot_is_all_serial_with_witnesses(self):
        w = get_workload("lu_nopivot")
        vs = classify_procedure(w.build(), w.context(None))
        assert all(v.verdict == SERIAL for v in vs)
        assert all(v.witness is not None for v in vs)

    def test_every_workload_classifies_every_loop(self):
        from repro.pipeline.workloads import available_workloads

        for w in available_workloads():
            proc = w.build()
            vs = classify_procedure(proc, w.context(None))
            assert len(vs) == len(find_loops(proc))
            counts = verdict_counts(v.verdict for v in vs)
            assert sum(counts.values()) == len(vs)


class TestAnnotation:
    def test_annotate_marks_proved_loops(self):
        w = get_workload("matmul")
        new, verdicts = annotate_procedure(w.build(), w.context(None))
        marked = [s for s in walk_stmts(new) if isinstance(s, ParallelLoop)]
        proved = [v for v in verdicts if v.verdict in (PARALLEL, REDUCTION)]
        assert len(marked) == len(proved)
        kinds = sorted(m.kind for m in marked)
        assert kinds == sorted(v.verdict for v in proved)
        text = to_fortran(new)
        assert "PARALLEL DO" in text
        assert "PARALLEL REDUCTION DO" in text

    def test_annotate_restricted_to_named_loops(self):
        w = get_workload("matmul")
        new, _ = annotate_procedure(w.build(), w.context(None), loops=("J",))
        marked = [s for s in walk_stmts(new) if isinstance(s, ParallelLoop)]
        assert [m.var for m in marked] == ["J"]

    def test_annotation_demotes_stale_markers(self):
        # a hand-planted wrong marker on a serial loop is removed
        p = proc_of(parallel_do("I", 2, "N",
                                assign(ref("B", "I"),
                                       ref("B", Var("I") - Const(1))
                                       + Const(1.0))))
        new, (v,) = annotate_procedure(p, N2)
        assert v.verdict == SERIAL
        (loop,) = find_loops(new)
        assert isinstance(loop, Loop)
        assert not isinstance(loop, ParallelLoop)

    def test_serial_interpreter_ignores_markers(self):
        from repro.runtime.interpreter import execute

        w = get_workload("matmul")
        plain = execute(w.build(), dict(w.verify_sizes), seed=0)
        marked, _ = annotate_procedure(w.build(), w.context(None))
        annotated = execute(marked, dict(w.verify_sizes), seed=0)
        for a in w.build().arrays:
            assert plain[a.name].tobytes() == annotated[a.name].tobytes()


class TestParallelLoopNode:
    def test_is_a_loop(self):
        p = parallel_do("I", 1, "N", assign(ref("B", "I"), Const(0.0)))
        assert isinstance(p, Loop)
        assert p.kind == "parallel"

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            parallel_do("I", 1, "N", assign(ref("B", "I"), Const(0.0)),
                        kind="speculative")

    def test_marker_changes_fingerprint(self):
        from repro.ir.fingerprint import ir_fingerprint

        body = assign(ref("B", "I"), ref("B", "I") + Const(1.0))
        plain = proc_of(do("I", 1, "N", body))
        marked = proc_of(parallel_do("I", 1, "N", body))
        assert ir_fingerprint(plain) != ir_fingerprint(marked)
