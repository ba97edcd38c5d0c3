"""Reference interpreter semantics."""

import re
from fractions import Fraction

import numpy as np
import pytest

from repro.algorithms import lu_point_ir
from repro.errors import SemanticsError
from repro.ir.build import assign, do, if_, ref
from repro.ir.expr import ArrayRef, BinOp, Call, Const, IntDiv, Max, Min, Var
from repro.ir.stmt import ArrayDecl, BlockLoop, InLoop, Procedure
from repro.runtime.interpreter import Interpreter, execute, idiv, make_env


class TestIdiv:
    @pytest.mark.parametrize(
        "a,b,q", [(7, 2, 3), (-7, 2, -3), (7, -2, -3), (-7, -2, 3), (6, 3, 2)]
    )
    def test_truncates_toward_zero(self, a, b, q):
        assert idiv(a, b) == q

    def test_zero_divisor(self):
        with pytest.raises(SemanticsError):
            idiv(1, 0)


class TestExpressions:
    def setup_method(self):
        self.interp = Interpreter({"I": 7, "N": 10, "X": 2.5})

    def test_arith(self):
        assert self.interp.eval(Var("I") + 1) == 8
        assert self.interp.eval(Var("I") * 2 - Var("N")) == 4

    def test_integer_slash_is_integer_division(self):
        assert self.interp.eval(Var("I") / Const(2)) == 3

    def test_float_division(self):
        assert self.interp.eval(Var("X") / Const(2)) == 1.25

    def test_min_max(self):
        assert self.interp.eval(Min((Var("I"), Var("N")))) == 7
        assert self.interp.eval(Max((Var("I"), Var("N"), Const(3)))) == 10

    def test_intdiv_node(self):
        assert self.interp.eval(IntDiv(Var("N"), Const(3))) == 3

    def test_intrinsics(self):
        assert self.interp.eval(Call("SQRT", (Const(9.0),))) == 3.0
        assert self.interp.eval(Call("ABS", (Const(-4),))) == 4
        assert self.interp.eval(Call("MOD", (Const(7), Const(3)))) == 1

    def test_comparisons_and_logic(self):
        assert self.interp.eval(Var("I").lt("N")) is True
        from repro.ir.expr import LogicalOp, Not

        assert self.interp.eval(LogicalOp("and", (Var("I").lt("N"), Var("I").gt(0))))
        assert self.interp.eval(Not(Var("I").eq_(7))) is False

    def test_unbound_variable(self):
        with pytest.raises(SemanticsError, match="^unbound variable ZZZ$"):
            self.interp.eval(Var("ZZZ"))

    def test_unknown_intrinsic(self):
        # raised before its arguments run: the unbound ZZZ is never seen
        with pytest.raises(SemanticsError, match="^unknown intrinsic FOO$"):
            self.interp.eval(Call("FOO", (Var("ZZZ"),)))

    def test_faults_are_raised_in_evaluation_order(self):
        # compiling the whole tree first must not report FOO before ZZZ
        e = BinOp("+", Var("ZZZ"), Call("FOO", (Const(1),)))
        with pytest.raises(SemanticsError, match="^unbound variable ZZZ$"):
            self.interp.eval(e)

    def test_one_shot_eval_never_reuses_a_closure(self):
        """``machine/layout.py`` and ``analysis/reuse.py`` evaluate freshly
        built expressions; a dropped node's id may be handed to the next
        one, which must still get its own closure."""
        for k in range(200):
            assert Interpreter({"N": 10}).eval(BinOp("+", Var("N"), Const(k))) == 10 + k
        shared = Interpreter({"N": 10})
        for k in range(200):
            assert shared.eval(BinOp("*", Var("N"), Const(k))) == 10 * k


class TestLoops:
    def _proc(self, body):
        return Procedure("t", ("N",), (ArrayDecl("A", (Var("N"),)),), body)

    def test_zero_trip_loop(self):
        p = self._proc((do("I", 5, 4, assign(ref("A", "I"), 999.0)),))
        env = execute(p, {"N": 6}, arrays={"A": np.zeros(6)})
        assert np.all(env["A"] == 0.0)

    def test_negative_step(self):
        p = self._proc(
            (do("I", "N", 1, assign(ref("A", "I"), Var("I") * 1.0), step=-1),)
        )
        env = execute(p, {"N": 5}, arrays={"A": np.zeros(5)})
        assert list(env["A"]) == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_bounds_evaluated_once(self):
        # N is rewritten inside the loop; trip count must not change
        p = Procedure(
            "t",
            ("N",),
            (ArrayDecl("A", (Const(10),)),),
            (
                do(
                    "I",
                    1,
                    Var("M"),
                    assign(ref("A", "I"), 1.0),
                    ),
            ),
        )
        # M as a scalar set before the loop, then changed inside: emulate
        body = (
            assign("M", 3),
            do("I", 1, Var("M"), assign(ref("A", "I"), 1.0), assign("M", 9)),
        )
        p = Procedure("t", (), (ArrayDecl("A", (Const(10),)),), body)
        env = execute(p, {}, arrays={"A": np.zeros(10)})
        assert int(np.sum(env["A"])) == 3

    def test_out_of_bounds_detected(self):
        p = self._proc((do("I", 1, Var("N") + 1, assign(ref("A", "I"), 1.0)),))
        msg = re.escape("A: subscript 1 out of bounds (value 5, extent 4)")
        with pytest.raises(SemanticsError, match=msg):
            execute(p, {"N": 4})

    def test_out_of_bounds_names_the_subscript(self):
        p = Procedure("t", (), (ArrayDecl("B", (Const(3), Const(2))),),
                      (assign(ref("B", 1, 0), 0.0),))
        msg = re.escape("B: subscript 2 out of bounds (value 0, extent 2)")
        with pytest.raises(SemanticsError, match=msg):
            execute(p, {})

    def test_rank_mismatch_detected(self):
        p = self._proc((assign(ref("A", 1, 1), 0.0),))
        msg = re.escape("A: rank mismatch (2 subscripts, rank 1)")
        with pytest.raises(SemanticsError, match=msg):
            execute(p, {"N": 4})

    def test_rank_mismatch_of_a_rank_three_reference(self):
        p = self._proc((assign(ref("A", 1, 1, 1), 0.0),))
        msg = re.escape("A: rank mismatch (3 subscripts, rank 1)")
        with pytest.raises(SemanticsError, match=msg):
            execute(p, {"N": 4})

    def test_unbound_array(self):
        with pytest.raises(SemanticsError, match="^unbound array Z$"):
            execute(self._proc((assign(ref("Z", 1), 0.0),)), {"N": 4})

    def test_zero_step(self):
        p = self._proc((do("I", 1, "N", assign(ref("A", "I"), 1.0), step=0),))
        with pytest.raises(SemanticsError, match="^loop I: zero step$"):
            execute(p, {"N": 4})

    @pytest.mark.parametrize("unlowered", [
        BlockLoop("KK", Const(1), Var("N"), (assign(ref("A", 1), 0.0),)),
        InLoop("KK", "K", (assign(ref("A", 1), 0.0),)),
    ])
    def test_unlowered_block_loop(self, unlowered):
        with pytest.raises(SemanticsError, match="^BLOCK DO / IN DO must be lowered"):
            execute(self._proc((unlowered,)), {"N": 4})

    def test_inner_reference_fault_is_reported_first(self):
        """A reference's subscripts run before its own rank and bounds
        checks, so the fault inside them wins; an unbound array is
        reported before its subscripts run."""
        inner = ArrayRef("A", (Const(9),))
        both_out = (assign(ref("A", 1), ArrayRef("A", (inner,))),)
        msg = re.escape("A: subscript 1 out of bounds (value 9, extent 4)")
        with pytest.raises(SemanticsError, match=msg):
            execute(self._proc(both_out), {"N": 4})
        wrong_rank = (assign(ref("A", 1), ArrayRef("A", (inner, Const(1)))),)
        with pytest.raises(SemanticsError, match=msg):
            execute(self._proc(wrong_rank), {"N": 4})
        unbound = (assign(ref("A", 1), ArrayRef("Z", (inner,))),)
        with pytest.raises(SemanticsError, match="^unbound array Z$"):
            execute(self._proc(unbound), {"N": 4})
        # a store target's subscripts run before the right-hand side
        target_first = (assign(ArrayRef("A", (Const(0),)), ArrayRef("A", (inner,))),)
        msg = re.escape("A: subscript 1 out of bounds (value 0, extent 4)")
        with pytest.raises(SemanticsError, match=msg):
            execute(self._proc(target_first), {"N": 4})


class TestGuards:
    def test_if_else(self):
        p = Procedure(
            "t",
            ("N",),
            (ArrayDecl("A", (Var("N"),)),),
            (
                do(
                    "I",
                    1,
                    "N",
                    if_(
                        ref("A", "I").gt(0.5),
                        [assign(ref("A", "I"), 1.0)],
                        [assign(ref("A", "I"), 0.0)],
                    ),
                ),
            ),
        )
        a = np.array([0.2, 0.9, 0.7, 0.1])
        env = execute(p, {"N": 4}, arrays={"A": a})
        assert list(env["A"]) == [0.0, 1.0, 1.0, 0.0]


class TestMakeEnv:
    def test_missing_parameter(self, vecadd_proc):
        with pytest.raises(SemanticsError):
            make_env(vecadd_proc, {"N": 3})

    def test_float_parameter_preserved(self):
        p = Procedure("t", ("DT",), (ArrayDecl("A", (Const(2),)),), (assign(ref("A", 1), Var("DT")),))
        env = execute(p, {"DT": 0.25}, arrays={"A": np.zeros(2)})
        assert env["A"][0] == 0.25

    def test_shape_mismatch(self, vecadd_proc):
        with pytest.raises(SemanticsError):
            make_env(vecadd_proc, {"N": 3, "M": 4}, arrays={"A": np.zeros(7)})

    def test_random_fill_reproducible(self, vecadd_proc):
        e1 = make_env(vecadd_proc, {"N": 3, "M": 4}, seed=5)
        e2 = make_env(vecadd_proc, {"N": 3, "M": 4}, seed=5)
        assert np.array_equal(e1["A"], e2["A"])

    def test_fortran_order(self, vecadd_proc):
        env = make_env(vecadd_proc, {"N": 3, "M": 4})
        assert env["A"].flags.f_contiguous


class TestValueGeneric:
    def test_lu_on_exact_rationals(self):
        """The interpreter computes on whatever the arrays hold: point LU
        over ``Fraction`` objects is exact rational elimination."""
        n = 5
        start = [[Fraction((3 * i + 7 * j) % 11 + (10 if i == j else 1), 1 + (i + j) % 3)
                  for j in range(n)] for i in range(n)]
        a = np.empty((n, n), dtype=object, order="F")
        for i in range(n):
            for j in range(n):
                a[i, j] = start[i][j]
        Interpreter({"N": n, "A": a}).run(lu_point_ir().body)

        want = [row[:] for row in start]
        for k in range(n - 1):
            for i in range(k + 1, n):
                want[i][k] /= want[k][k]
            for j in range(k + 1, n):
                for i in range(k + 1, n):
                    want[i][j] -= want[i][k] * want[k][j]
        assert all(type(x) is Fraction for x in a.flat)
        assert a.tolist() == want


class TestTracing:
    def test_trace_order_and_kinds(self):
        events = []

        class T:
            def access(self, array, index, is_write):
                events.append((array, index, is_write))

        p = Procedure(
            "t",
            (),
            (ArrayDecl("A", (Const(3),)),),
            (assign(ref("A", 2), ref("A", 1) + 1.0),),
        )
        env = make_env(p, {}, arrays={"A": np.zeros(3)})
        Interpreter(env, T()).run(p.body)
        assert events == [("A", (1,), False), ("A", (2,), True)]


def test_only_the_oracle_users_import_the_interpreter():
    """The interpreter is the reference that compiled code is checked
    against, not an engine that produces results: outside ``runtime`` it is
    imported by the differential verifier, by the race sanitizer, which
    subclasses it, and twice for ``Interpreter.eval`` on declared extents."""
    import ast
    from pathlib import Path

    import repro

    allowed = {
        "pipeline/verify.py", "par/sanitizer.py", "machine/layout.py", "analysis/reuse.py",
    }
    root = Path(repro.__file__).parent
    importers = set()
    for path in root.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if "repro.runtime.interpreter" in modules:
                importers.add(path.relative_to(root).as_posix())
    assert {p for p in importers if not p.startswith("runtime/")} == allowed
