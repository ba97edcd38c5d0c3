"""The pass registry: named passes must equal the transforms they wrap."""

from __future__ import annotations

import pytest

from repro.algorithms import conv_ir, lu_point_ir
from repro.errors import PipelineError
from repro.ir.build import assign, do, ref
from repro.ir.expr import Const, Var
from repro.ir.stmt import ArrayDecl, Procedure
from repro.pipeline import passes
from repro.pipeline.manager import run_passes
from repro.symbolic.assume import Assumptions
from repro.transform.blocking import block_loop
from repro.transform.unroll_jam import unroll_and_jam


def lu_ctx() -> Assumptions:
    return Assumptions().assume_ge("N", 2)


class TestRegistry:
    def test_known_passes_present(self):
        names = {i.name for i in passes.available_passes()}
        assert {
            "split",
            "stripmine",
            "interchange",
            "jam",
            "if_inspection",
            "scalars",
            "distribute",
            "block",
            "givens_opt",
        } <= names

    def test_unknown_pass_rejected(self):
        with pytest.raises(PipelineError, match="unknown pass"):
            passes.get_pass("fuse")

    def test_duplicate_registration_rejected(self):
        info = passes.get_pass("block").info
        with pytest.raises(PipelineError, match="registered twice"):
            passes.register(info, lambda p, c, o: None, lambda p, c, o: None)

    def test_infos_document_options(self):
        block = passes.get_pass("block").info
        assert "loop" in block.options and "factor" in block.options
        assert block.precondition


class TestBlockPass:
    def test_matches_direct_block_loop(self):
        proc = lu_point_ir()
        direct, report = block_loop(proc, "K", "KS", ctx=lu_ctx())
        result = run_passes(
            proc, [("block", {"loop": "K", "factor": "KS"})], ctx=lu_ctx()
        )
        assert result.procedure == direct
        assert result.spans[0].status == "applied"
        assert (
            result.artifact("block").blocked_innermost == report.blocked_innermost
        )
        assert result.spans[0].detail["blocked_innermost"] > 0

    def test_symbolic_factor_grows_context(self):
        # block emits KS >= 2 so later passes reason under the paper's
        # "block size at least 2" assumption.
        result = run_passes(
            lu_point_ir(), [("block", {"loop": "K", "factor": "KS"})], ctx=lu_ctx()
        )
        assert result.ctx.implies_le(Const(2), Var("KS"))


class TestJamPass:
    def test_rectangular_matches_unroll_and_jam(self):
        p = Procedure(
            "rect",
            ("N",),
            (ArrayDecl("A", (Var("N"), Var("N"))),),
            (
                do(
                    "J",
                    1,
                    "N",
                    do(
                        "I",
                        1,
                        "N",
                        assign(ref("A", "I", "J"), ref("A", "I", "J") * 2.0),
                    ),
                ),
            ),
        )
        ctx = Assumptions().assume_ge("N", 1)
        direct = unroll_and_jam(p, p.body[0], 2, ctx=ctx)
        result = run_passes(p, [("jam", {"loop": "J", "unroll": 2})], ctx=ctx)
        assert result.procedure == direct
        assert result.spans[0].status == "applied"


class TestSplitPass:
    def test_trapezoid_split_applies_to_conv(self):
        ctx = (
            Assumptions()
            .assume_ge("N1", 1)
            .assume_ge("N3", 1)
            .assume_ge("N2", 4)
            .assume_le("N2", Var("N1") - Const(1))
            .assume_le("N3", "N1")
        )
        result = run_passes(conv_ir(), [("split", {"loop": "I"})], ctx=ctx)
        span = result.spans[0]
        assert span.status == "applied"
        assert span.detail["splits"] >= 1
        assert result.procedure != conv_ir()


class TestNoopVsInfeasible:
    def test_scalars_without_reuse_is_noop(self):
        p = Procedure(
            "plain",
            ("N",),
            (ArrayDecl("A", (Var("N"),)),),
            (do("I", 1, "N", assign(ref("A", "I"), Const(0.0))),),
        )
        result = run_passes(p, ["scalars"])
        assert result.spans[0].status == "noop"
        assert result.procedure == p

    def test_missing_loop_is_infeasible_not_error(self):
        p = Procedure("empty", (), (), (assign(Var("X"), Const(1)),))
        result = run_passes(p, [("block", {"loop": "K"})], on_infeasible="skip")
        assert result.spans[0].status == "infeasible"
        assert result.procedure == p

    def test_the_reason_counts_the_loops_over_the_name(self):
        from repro.pipeline import derive

        blocked = derive("lu_nopivot").procedure  # two KK loops
        for var, reason in (("KK", "2 loops over 'KK'"), ("X", "no loop over 'X'")):
            result = run_passes(blocked, [("block", {"loop": var})])
            assert result.spans[0].status == "infeasible"
            assert result.spans[0].detail == {"reason": reason}


class TestParallelize:
    def test_registered_with_options(self):
        info = passes.get_pass("parallelize").info
        assert "loop" in info.options
        assert info.precondition

    def test_annotates_matmul(self):
        from repro.ir.stmt import ParallelLoop
        from repro.ir.visit import walk_stmts
        from repro.pipeline.workloads import get_workload

        w = get_workload("matmul")
        result = run_passes(w.build(), ["parallelize"], ctx=w.context(None))
        span = result.spans[0]
        assert span.status == "applied"
        assert span.detail["parallel"] == 2
        assert span.detail["reduction"] == 1
        assert span.detail["serial"] == 0
        marked = [s for s in walk_stmts(result.procedure)
                  if isinstance(s, ParallelLoop)]
        assert len(marked) == 3

    def test_loop_option_restricts_annotation(self):
        from repro.ir.stmt import ParallelLoop
        from repro.ir.visit import walk_stmts
        from repro.pipeline.workloads import get_workload

        w = get_workload("matmul")
        result = run_passes(
            w.build(), [("parallelize", {"loop": "J"})], ctx=w.context(None)
        )
        marked = [s for s in walk_stmts(result.procedure)
                  if isinstance(s, ParallelLoop)]
        assert [m.var for m in marked] == ["J"]

    def test_all_serial_workload_is_noop(self):
        from repro.pipeline.workloads import get_workload

        w = get_workload("lu_nopivot")
        result = run_passes(w.build(), ["parallelize"], ctx=w.context(None))
        assert result.spans[0].status == "noop"
        assert result.spans[0].detail["serial"] == 4
        assert result.procedure == w.build()

    def test_missing_loop_is_infeasible(self):
        from repro.pipeline.workloads import get_workload

        w = get_workload("matmul")
        result = run_passes(
            w.build(), [("parallelize", {"loop": "Z"})],
            ctx=w.context(None), on_infeasible="skip",
        )
        assert result.spans[0].status == "infeasible"

    def test_check_mode_accepts_the_annotation(self):
        from repro.pipeline.workloads import get_workload

        w = get_workload("conv")
        result = run_passes(
            w.build(), ["parallelize"], ctx=w.context(None), check=True
        )
        assert result.spans[0].status == "applied"
