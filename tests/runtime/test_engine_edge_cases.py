"""Cross-engine edge cases: zero-trip DO, IntDiv on negatives, bounds-once,
zero step.

Fortran-77 semantics the two engines must agree on *exactly*:

- a DO whose iteration count is zero or negative executes its body zero
  times (DO I = 3, 2 falls straight through);
- integer division truncates toward zero, including for negative
  operands (-7/2 = -3, 7/-2 = -3, -7/-2 = 3) — *not* Python floor;
- loop bounds and step are evaluated once on entry, in that order;
  assignments to a bound variable inside the body do not change the trip
  count;
- a zero step is an error, the same one from every engine.

Each case runs plain (array results compared) and, where access order
matters, traced (tracer event sequences compared element-wise).  A traced
case also runs the address-stream flavour, whose stream must be the
callback flavour's event sequence mapped through the layout, and the
cache simulation of both engines, which must count the same.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import SemanticsError
from repro.ir.build import assign, do, if_, ref
from repro.ir.expr import BinOp, Call, Compare, Const, IntDiv, LogicalOp, Var
from repro.ir.stmt import ArrayDecl, Procedure
from repro.machine import Cache, CacheTracer, Layout, trace_procedure
from repro.runtime.codegen import compile_procedure, compile_stream
from repro.runtime.interpreter import execute, idiv
from tests.conftest import PerArrayReference, by_array_counts


class RecordingTracer:
    def __init__(self):
        self.events: list[tuple[str, tuple[int, ...], bool]] = []

    def access(self, array, index, is_write):
        self.events.append((array, tuple(index), is_write))


def stream_events(proc, sizes, layout, arrays=None, seed=0):
    """Run the stream flavour; return (env, [(address, is_write), ...])."""
    events = []
    env = compile_stream(proc)(
        sizes, layout, lambda a, w, _: events.extend(zip(a.tolist(), w.tolist())),
        arrays=arrays, seed=seed,
    )
    return env, events


def run_both(proc, sizes, tracer_pair=None, seed=0, arrays=None):
    """Execute on both engines; return (interp_env, codegen_env)."""
    if tracer_pair is None:
        ei = execute(proc, sizes, arrays=arrays, seed=seed)
        ec = compile_procedure(proc)(sizes, arrays=arrays, seed=seed)
    else:
        ti, tc = tracer_pair
        ei = execute(proc, sizes, arrays=arrays, tracer=ti, seed=seed)
        ec = compile_procedure(proc, traced=True)(sizes, arrays=arrays, tracer=tc, seed=seed)
        layout = Layout.for_procedure(proc, sizes, line_bytes=32)
        es, stream = stream_events(proc, sizes, layout, arrays=arrays, seed=seed)
        assert stream == [(layout.address(a, idx), w) for a, idx, w in tc.events]
        for a in proc.arrays:
            assert es[a.name].tobytes() == ec[a.name].tobytes(), a.name
    for a in proc.arrays:
        assert np.array_equal(ei[a.name], ec[a.name]), a.name
    return ei, ec


def assert_engines_count_alike(proc, sizes, machine, arrays=None):
    """``trace_procedure`` against the interpreter feeding ``tracer.access``."""
    tc = trace_procedure(proc, sizes, machine, arrays=arrays, attribute=True)
    layout = Layout.for_procedure(proc, sizes, line_bytes=machine.cache.line_bytes)
    tlb = Cache(machine.tlb) if machine.tlb is not None else None
    ti = CacheTracer(layout, Cache(machine.cache), tlb)
    reference = PerArrayReference(ti)
    execute(proc, sizes, arrays=arrays, tracer=reference)
    assert tc.stats == ti.stats
    assert tc.tlb_stats == ti.tlb_stats
    assert by_array_counts(tc) == reference.by_array


class TestIntDivTruncation:
    def test_idiv_helper_truncates_toward_zero(self):
        assert idiv(-7, 2) == -3
        assert idiv(7, -2) == -3
        assert idiv(-7, -2) == 3
        assert idiv(7, 2) == 3

    def test_intdiv_node_on_negative_constants(self):
        p = Procedure(
            "negdiv",
            (),
            (ArrayDecl("OUT", (Const(4),), dtype="i8"),),
            (
                assign(ref("OUT", 1), IntDiv(Const(-7), Const(2))),
                assign(ref("OUT", 2), IntDiv(Const(7), Const(-2))),
                assign(ref("OUT", 3), IntDiv(Const(-7), Const(-2))),
                assign(ref("OUT", 4), IntDiv(Const(7), Const(2))),
            ),
        )
        ei, _ = run_both(p, {})
        assert ei["OUT"].tolist() == [-3, -3, 3, 3]

    def test_int_slash_on_runtime_negatives(self):
        # (I - 5) / 2 sweeps through negative, zero, positive numerators;
        # the plain "/" BinOp on two ints must hit the same idiv path.
        p = Procedure(
            "rundiv",
            ("N",),
            (ArrayDecl("OUT", (Var("N"),), dtype="i8"),),
            (
                do(
                    "I",
                    1,
                    "N",
                    assign(
                        ref("OUT", "I"),
                        BinOp("/", Var("I") - Const(5), Const(2)),
                    ),
                ),
            ),
        )
        ei, _ = run_both(p, {"N": 7})
        assert ei["OUT"].tolist() == [-2, -1, -1, 0, 0, 0, 1]


class TestZeroTripLoops:
    def _counter_proc(self):
        # Each loop bumps its own counter; zero-trip loops must leave 0.
        return Procedure(
            "trips",
            ("N",),
            (ArrayDecl("CNT", (Const(3),), dtype="i8"),),
            (
                do("I", 3, 2, assign(ref("CNT", 1), ref("CNT", 1) + 1)),
                do(
                    "J",
                    1,
                    Var("N") - Const(1),
                    assign(ref("CNT", 2), ref("CNT", 2) + 1),
                ),
                do(
                    "K",
                    5,
                    1,
                    assign(ref("CNT", 3), ref("CNT", 3) + 1),
                    step=-1,
                ),
            ),
        )

    def test_zero_trip_bodies_never_run(self):
        ei, _ = run_both(self._counter_proc(), {"N": 1})
        # DO 3,2 -> 0 trips; DO 1,N-1 with N=1 -> 0 trips; DO 5,1,-1 -> 5.
        assert ei["CNT"].tolist() == [0, 0, 5]

    def test_symbolic_bound_becomes_positive(self):
        ei, _ = run_both(self._counter_proc(), {"N": 4})
        assert ei["CNT"].tolist() == [0, 3, 5]

    def test_zero_trip_emits_no_traced_accesses(self):
        p = Procedure(
            "zt",
            ("N",),
            (ArrayDecl("A", (Const(8),)),),
            (
                do(
                    "I",
                    1,
                    Var("N") - Const(1),
                    assign(ref("A", "I"), ref("A", "I") * 2.0),
                ),
            ),
        )
        ti, tc = RecordingTracer(), RecordingTracer()
        run_both(p, {"N": 1}, tracer_pair=(ti, tc))
        assert ti.events == []
        assert tc.events == []


class TestBoundsEvaluatedOnce:
    def _mutating_proc(self):
        # The body rewrites the loop's own upper-bound variable; F77
        # evaluates bounds once, so the trip count stays at the entry M.
        return Procedure(
            "once",
            ("M",),
            (ArrayDecl("CNT", (Const(1),), dtype="i8"),),
            (
                do(
                    "I",
                    1,
                    "M",
                    assign(Var("M"), Var("M") + 1),
                    assign(ref("CNT", 1), ref("CNT", 1) + 1),
                ),
            ),
        )

    def test_trip_count_fixed_at_entry(self):
        ei, _ = run_both(self._mutating_proc(), {"M": 4})
        assert ei["CNT"].tolist() == [4]

    def test_interpreter_sees_final_scalar(self):
        # Scalar mutation is visible in the interpreter env (codegen
        # passes scalars by value, so only arrays are comparable).
        env = execute(self._mutating_proc(), {"M": 4})
        assert env["M"] == 8


class TestStepEvaluatedOnce:
    def _proc(self):
        # DO I = 1, N, S(1): A(I) = A(I) + 1
        return Procedure(
            "stride",
            ("N",),
            (ArrayDecl("A", (Var("N"),)), ArrayDecl("S", (Const(1),), dtype="i8")),
            (do("I", 1, "N", assign(ref("A", "I"), ref("A", "I") + 1.0), step=ref("S", 1)),),
        )

    @pytest.mark.parametrize("step, touched", [(2, (1, 3, 5)), (5, (1,))])
    def test_the_step_is_loaded_once(self, step, touched, tiny_machine):
        p = self._proc()
        arrays = {"A": np.zeros(5), "S": np.array([step])}
        ti, tc = RecordingTracer(), RecordingTracer()
        # run_both: the stream is the callback trace through the layout
        ei, _ = run_both(p, {"N": 5}, tracer_pair=(ti, tc), arrays=arrays)
        assert ti.events == tc.events
        assert tc.events == [("S", (1,), False)] + [
            ("A", (i,), w) for i in touched for w in (False, True)
        ]
        assert ei["A"].tolist() == [float(i in touched) for i in range(1, 6)]
        assert_engines_count_alike(p, {"N": 5}, tiny_machine, arrays=arrays)

    def test_bounds_then_step(self):
        # DO I = LO(1), HI(1), S(1): the interpreter's order, lo, hi, step
        p = Procedure(
            "order",
            (),
            (
                ArrayDecl("A", (Const(9),)),
                ArrayDecl("LO", (Const(1),), dtype="i8"),
                ArrayDecl("HI", (Const(1),), dtype="i8"),
                ArrayDecl("S", (Const(1),), dtype="i8"),
            ),
            (
                do("I", ref("LO", 1), ref("HI", 1), assign(ref("A", "I"), Const(1.0)),
                   step=ref("S", 1)),
            ),
        )
        arrays = {"A": np.zeros(9), "LO": np.array([8]), "HI": np.array([2]),
                  "S": np.array([-3])}
        ti, tc = RecordingTracer(), RecordingTracer()
        run_both(p, {}, tracer_pair=(ti, tc), arrays=arrays)
        assert ti.events == tc.events
        assert tc.events == [("LO", (1,), False), ("HI", (1,), False), ("S", (1,), False),
                             ("A", (8,), True), ("A", (5,), True), ("A", (2,), True)]


class TestZeroStep:
    """``DO I = 1, N, 0``: every engine raises the interpreter's error."""

    def _proc(self, step):
        return Procedure(
            "stuck",
            ("N", "Z"),
            (ArrayDecl("A", (Var("N"),)),),
            (do("I", 1, "N", assign(ref("A", "I"), Const(1.0)), step=step),),
        )

    @pytest.mark.parametrize("step", [Const(0), Var("Z")], ids=["literal", "computed"])
    def test_same_error_from_every_engine(self, step):
        p, sizes = self._proc(step), {"N": 3, "Z": 0}
        layout = Layout.for_procedure(p, sizes, line_bytes=32)
        engines = {
            "interpreter": lambda: execute(p, sizes),
            "plain": lambda: compile_procedure(p)(sizes),
            "callbacks": lambda: compile_procedure(p, traced=True)(
                sizes, tracer=RecordingTracer()),
            "stream": lambda: compile_stream(p)(sizes, layout, lambda *chunk: None),
        }
        for name, run in engines.items():
            with pytest.raises(SemanticsError, match="loop I: zero step"):
                run()

    def test_unit_step_loops_carry_no_check(self):
        p = self._proc(Const(1))
        assert "_zero_step" not in compile_procedure(p).source
        assert "_zero_step" in compile_procedure(self._proc(Var("Z"))).source


class TestIEEEParity:
    """Interpreter, plain and stream leave byte-identical arrays, NaN bit
    patterns included, where IEEE arithmetic leaves the finite numbers: a
    division by ``+0.0``, ``-0.0`` and ``0/0``, a power that overflows, the
    square root of a negative, a real ``MOD`` by zero, and ``float32``
    arithmetic, which rounds after every operation.  A compiled flavour may
    read an element as a Python float, whose division by zero, overflowing
    power, negative square root and ``fmod`` by zero raise.  ``INT`` of NaN
    or an infinity is the same ``SemanticsError`` in every engine."""

    @staticmethod
    def engines(proc, sizes, arrays):
        layout = Layout.for_procedure(proc, sizes, line_bytes=32)
        envs = [
            execute(proc, sizes, arrays=arrays),
            compile_procedure(proc)(sizes, arrays=arrays),
            compile_stream(proc)(sizes, layout, lambda *chunk: None, arrays=arrays),
        ]
        for a in proc.arrays:
            assert len({env[a.name].tobytes() for env in envs}) == 1, a.name
        return envs[0]

    @staticmethod
    def loop(target, value, n, dtype="f8"):
        arrays = tuple(ArrayDecl(x, (Const(n),), dtype=dtype) for x in "ABC")
        return Procedure("ieee", (), arrays, (do("I", 1, n - 1, assign(target, value)),))

    @pytest.mark.parametrize("start, b", [
        (1.0, [0.0, -0.0, 0.0, 2.0]),
        (-1.0, [-0.0, 0.0, 3.0, -0.0]),
        (0.0, [0.0, -0.0, 0.0, 0.0]),  # 0/0, then NaN over zeros
    ])
    def test_division_by_zero_along_a_carried_chain(self, start, b):
        # A(I+1) = A(I) / B(I): each iteration reads the last one's store
        p = self.loop(ref("A", Var("I") + 1), BinOp("/", ref("A", "I"), ref("B", "I")), 5)
        a = np.array([start, 7.0, 7.0, 7.0, 7.0])
        env = self.engines(p, {}, {"A": a, "B": np.array(b + [1.0]), "C": np.zeros(5)})
        with np.errstate(divide="ignore", invalid="ignore"):
            for i in range(4):
                a[i + 1] = a[i] / b[i]
        assert env["A"].tobytes() == a.tobytes()

    def test_division_by_zero_in_place(self):
        # A(I) = A(I) / B(I): no iteration touches another's element
        p = self.loop(ref("A", "I"), BinOp("/", ref("A", "I"), ref("B", "I")), 5)
        a, b = np.array([1.0, -1.0, 0.0, 2.0, 5.0]), np.array([0.0, -0.0, 0.0, -0.0, 1.0])
        env = self.engines(p, {}, {"A": a, "B": b, "C": np.zeros(5)})
        with np.errstate(divide="ignore", invalid="ignore"):
            a[:4] /= b[:4]
        assert env["A"].tobytes() == a.tobytes()
        assert np.isnan(a[2]) and a[[0, 1, 3]].tolist() == [np.inf, np.inf, -np.inf]

    def test_power_overflows_to_infinity(self):
        p = self.loop(ref("A", Var("I") + 1), BinOp("**", ref("A", "I"), Const(400.0)), 4)
        env = self.engines(p, {}, {"A": np.array([10.0, 0.0, 0.0, 0.0])})
        assert env["A"].tolist() == [10.0, np.inf, np.inf, np.inf]

    @pytest.mark.parametrize("dtype", ["f8", "f4"])
    @pytest.mark.parametrize("name", ["SQRT", "DSQRT"])
    def test_square_root_of_a_negative_is_nan(self, name, dtype):
        a = np.array([-1.0, -0.0, 4.0, -np.inf, np.inf, np.nan, 0.0])
        p = self.loop(ref("B", "I"), Call(name, (ref("A", "I"),)), 7, dtype=dtype)
        env = self.engines(p, {}, {"A": a, "B": np.zeros(7), "C": np.zeros(7)})
        with np.errstate(invalid="ignore"):
            expect = np.sqrt(a[:6].astype(dtype))
        assert env["B"][:6].tobytes() == expect.tobytes()

    @pytest.mark.parametrize("literal", [False, True], ids=["element", "literal"])
    def test_real_mod_by_zero_is_nan(self, literal):
        a, b = np.array([1.0, -1.0, np.inf, 7.5, 0.0]), np.array([0.0, -0.0, 0.0, 2.0, 1.0])
        divisor = Const(0.0) if literal else ref("B", "I")
        p = self.loop(ref("C", "I"), Call("MOD", (ref("A", "I"), divisor)), 5)
        env = self.engines(p, {}, {"A": a, "B": b, "C": np.zeros(5)})
        with np.errstate(invalid="ignore"):
            expect = np.fmod(a[:4], 0.0 if literal else b[:4])
        assert env["C"][:4].tobytes() == expect.tobytes()

    @pytest.mark.parametrize("x", [np.nan, np.inf, -np.inf])
    def test_int_of_a_non_finite_value_raises(self, x):
        # INT(A(I) / 0.0D0) reaches the infinities from a finite element
        value = Call("INT", (BinOp("/", ref("A", "I"), Const(0.0 if np.isinf(x) else 1.0)),))
        p = self.loop(ref("B", "I"), value, 3)
        arrays = {"A": np.array([x if np.isnan(x) else np.sign(x), 0.0, 0.0]),
                  "B": np.zeros(3), "C": np.zeros(3)}
        layout = Layout.for_procedure(p, {}, line_bytes=32)
        for run in (lambda: execute(p, {}, arrays=arrays),
                    lambda: compile_procedure(p)({}, arrays=arrays),
                    lambda: compile_stream(p)({}, layout, lambda *chunk: None, arrays=arrays)):
            with pytest.raises(SemanticsError, match="INT of .*: no integer value"):
                run()

    def test_float32_rounds_after_every_operation(self):
        # inputs where float32 rounding after the product differs from one
        # rounding of the double result
        rng, c, a, b = np.random.default_rng(1), [], [], []
        while len(c) < 6:
            x, y, z = rng.uniform(-1.0, 1.0, 3).astype(np.float32)
            if np.float32(x + np.float32(y * z)) != np.float32(float(x) + float(y) * float(z)):
                c, a, b = c + [x], a + [y], b + [z]
        arrays = {"A": np.array(a + [0.0]), "B": np.array(b + [0.0]), "C": np.array(c + [0.0])}
        p = self.loop(ref("C", "I"), ref("C", "I") + ref("A", "I") * ref("B", "I"), 7, dtype="f4")
        env = self.engines(p, {}, arrays)
        expect = [np.float32(x + np.float32(y * z)) for x, y, z in zip(c, a, b)]
        assert env["C"][:6].tolist() == expect


class TestTracedAgreement:
    def test_access_sequences_identical(self):
        p = Procedure(
            "seq",
            ("N",),
            (ArrayDecl("A", (Var("N"),)), ArrayDecl("B", (Var("N"),))),
            (
                do(
                    "I",
                    1,
                    "N",
                    assign(ref("B", "I"), ref("A", "I") + ref("A", 1)),
                ),
            ),
        )
        ti, tc = RecordingTracer(), RecordingTracer()
        run_both(p, {"N": 5}, tracer_pair=(ti, tc))
        assert ti.events == tc.events
        # per iteration: read A(I), read A(1), then write B(I)
        assert ti.events[:3] == [
            ("A", (1,), False),
            ("A", (1,), False),
            ("B", (1,), True),
        ]
        assert len(ti.events) == 15

    def test_plain_compile_rejects_tracer(self):
        p = Procedure(
            "p",
            ("N",),
            (ArrayDecl("A", (Var("N"),)),),
            (do("I", 1, "N", assign(ref("A", "I"), Const(0.0))),),
        )
        run = compile_procedure(p)
        with pytest.raises(ValueError):
            run({"N": 3}, tracer=RecordingTracer())


class TestStreamOrdering:
    """Where the event order hangs on Python's evaluation order: a guard
    that short-circuits past a load, a load in a loop bound, a subscript
    that is itself a load."""

    def test_short_circuit_guard_skips_the_second_load(self, tiny_machine):
        # IF (I .GT. 2 .AND. B(I) .NE. 0) A(I) = A(I) + B(I)
        p = Procedure(
            "guard",
            ("N",),
            (ArrayDecl("A", (Var("N"),)), ArrayDecl("B", (Var("N"),))),
            (
                do(
                    "I",
                    1,
                    "N",
                    if_(
                        LogicalOp(
                            "and",
                            (
                                Compare("gt", Var("I"), Const(2)),
                                Compare("ne", ref("B", "I"), Const(0.0)),
                            ),
                        ),
                        assign(ref("A", "I"), ref("A", "I") + ref("B", "I")),
                    ),
                ),
            ),
        )
        arrays = {"A": np.ones(5), "B": np.array([1.0, 1.0, 1.0, 0.0, 2.0])}
        ti, tc = RecordingTracer(), RecordingTracer()
        run_both(p, {"N": 5}, tracer_pair=(ti, tc), arrays=arrays)
        assert ti.events == tc.events
        # I=1,2: no touch at all; I=3: guard load, then A, B, store; I=4: guard only
        assert tc.events[:5] == [
            ("B", (3,), False),
            ("A", (3,), False),
            ("B", (3,), False),
            ("A", (3,), True),
            ("B", (4,), False),
        ]
        assert_engines_count_alike(p, {"N": 5}, tiny_machine, arrays=arrays)

    def test_load_in_loop_bound_happens_once_at_entry(self, tiny_machine):
        # DO K = KLB(J), J: the bound is loaded once per J, before the body
        p = Procedure(
            "bound",
            ("N",),
            (ArrayDecl("A", (Var("N"),)), ArrayDecl("KLB", (Var("N"),), dtype="i8")),
            (
                do(
                    "J",
                    1,
                    "N",
                    do("K", ref("KLB", "J"), "J", assign(ref("A", "K"), ref("A", "K") + 1.0)),
                ),
            ),
        )
        arrays = {"A": np.zeros(4), "KLB": np.array([1, 1, 2, 5])}
        ti, tc = RecordingTracer(), RecordingTracer()
        ei, _ = run_both(p, {"N": 4}, tracer_pair=(ti, tc), arrays=arrays)
        assert ti.events == tc.events
        assert [e for e in tc.events if e[0] == "KLB"] == [
            ("KLB", (j,), False) for j in (1, 2, 3, 4)
        ]
        assert ei["A"].tolist() == [2.0, 2.0, 1.0, 0.0]  # J=4: zero-trip
        assert_engines_count_alike(p, {"N": 4}, tiny_machine, arrays=arrays)

    def test_indirect_subscript_on_the_load_side(self, tiny_machine):
        # B(I) = A(IP(I), IP(I)): each subscript load is recorded once
        p = Procedure(
            "gather",
            ("N",),
            (
                ArrayDecl("A", (Var("N"), Var("N"))),
                ArrayDecl("B", (Var("N"),)),
                ArrayDecl("IP", (Var("N"),), dtype="i8"),
            ),
            (do("I", 1, "N", assign(ref("B", "I"), ref("A", ref("IP", "I"), ref("IP", "I")))),),
        )
        arrays = {"A": np.arange(16.0).reshape(4, 4), "B": np.zeros(4),
                  "IP": np.array([3, 1, 4, 2])}
        ti, tc = RecordingTracer(), RecordingTracer()
        ei, _ = run_both(p, {"N": 4}, tracer_pair=(ti, tc), arrays=arrays)
        assert ti.events == tc.events
        assert tc.events[:4] == [
            ("IP", (1,), False),
            ("IP", (1,), False),
            ("A", (3, 3), False),
            ("B", (1,), True),
        ]
        assert ei["B"].tolist() == [10.0, 0.0, 15.0, 5.0]
        assert_engines_count_alike(p, {"N": 4}, tiny_machine, arrays=arrays)

    def test_indirect_subscript_on_the_store_side(self, tiny_machine):
        # A(IP(I)) = B(I) * 2: every engine loads the target subscript
        # before the right-hand side
        p = Procedure(
            "scatter",
            ("N",),
            (
                ArrayDecl("A", (Var("N"),)),
                ArrayDecl("B", (Var("N"),)),
                ArrayDecl("IP", (Var("N"),), dtype="i8"),
            ),
            (do("I", 1, "N", assign(ref("A", ref("IP", "I")), ref("B", "I") * 2.0)),),
        )
        arrays = {"A": np.zeros(4), "B": np.array([1.0, 2.0, 3.0, 4.0]),
                  "IP": np.array([3, 1, 4, 2])}
        ti, tc = RecordingTracer(), RecordingTracer()
        ei, _ = run_both(p, {"N": 4}, tracer_pair=(ti, tc), arrays=arrays)
        assert tc.events[:3] == [("IP", (1,), False), ("B", (1,), False), ("A", (3,), True)]
        assert ti.events == tc.events
        assert ei["A"].tolist() == [4.0, 8.0, 2.0, 6.0]
        assert_engines_count_alike(p, {"N": 4}, tiny_machine, arrays=arrays)
