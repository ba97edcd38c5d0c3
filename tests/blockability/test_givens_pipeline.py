"""Details of the Givens optimization pass (``givens_opt``, Sec. 5.4)."""

import numpy as np

from repro.algorithms import givens_point_ir
from repro.ir.build import assign, do, ref
from repro.ir.expr import Var
from repro.ir.stmt import ArrayDecl, If, Loop, Procedure
from repro.ir.visit import find_loops, loop_by_var, walk_stmts
from repro.machine.model import scaled_machine
from repro.machine.tracer import trace_procedure
from repro.pipeline import PassManager, PassSpec, derive
from repro.symbolic.assume import Assumptions


def optimized():
    return derive("givens").procedure


class TestPipelineSteps:
    def test_log_records_paper_order(self):
        text = " | ".join(derive("givens").span("givens_opt").detail["steps"])
        assert text.index("index-set split") < text.index("scalar-expanded")
        assert text.index("scalar-expanded") < text.index("IF-inspection")
        assert text.index("IF-inspection") < text.index("interchanged J inside K")

    def test_rotation_coefficients_become_arrays(self):
        assert {"C", "S"} <= optimized().array_names

    def test_executor_loop_order_is_k_jn_j(self):
        l_loop = loop_by_var(optimized().body, "L")
        k = next(s for s in l_loop.body if isinstance(s, Loop) and s.var == "K")
        assert [l.var for l in find_loops(k)] == ["K", "JN", "J"]

    def test_executor_is_guard_free(self):
        l_loop = loop_by_var(optimized().body, "L")
        k = next(s for s in l_loop.body if isinstance(s, Loop) and s.var == "K")
        assert not any(isinstance(s, If) for s in walk_stmts(k.body))

    def test_wrong_shape_rejected(self):
        p = Procedure(
            "x", ("N",), (ArrayDecl("A", (Var("N"),)),),
            (do("J", 1, "N", assign(ref("A", "J"), 0.0)),),
        )
        span = PassManager([PassSpec("givens_opt")], ctx=Assumptions()).run(p).spans[0]
        assert span.status == "infeasible"
        assert "Fig. 9" in span.detail["reason"]


class TestMemoryBehaviour:
    def test_stride_story(self):
        """The whole point of Fig. 10: trailing-sweep accesses to A become
        stride-one.  Count cache misses on array A for both versions."""
        from repro.bench.experiments import givens_opt_measured

        m = scaled_machine(4)
        n = 64
        rng = np.random.default_rng(1)
        a = np.asfortranarray(rng.uniform(0.1, 1.0, (n, n)))
        misses_on_a = [
            trace_procedure(proc, {"M": n, "N": n}, m, arrays={"A": a}, attribute=True)
            .attribution.by_array()["A"]["misses"]
            for proc in (givens_point_ir(), givens_opt_measured())
        ]
        assert misses_on_a[1] < misses_on_a[0] / 2
