"""The address-stream flavour against the callback flavour and the
interpreter, on every registered workload, point and compiler-derived, and
its block lowering of affine innermost loops against that per-touch
reference on a matrix of hand-built edge cases."""

import numpy as np
import pytest

from repro.ir.build import assign, do, if_, ref
from repro.ir.expr import Call, Compare, Const, IntDiv, LogicalOp, Min, Var
from repro.ir.stmt import ArrayDecl, Procedure
from repro.machine import Layout
from repro.pipeline import available_workloads, derive, get_workload
from repro.runtime.codegen import CHUNK, compile_procedure, compile_stream
from repro.runtime.interpreter import execute, make_env

WORKLOADS = [w.name for w in available_workloads()]


def inputs(proc, sizes):
    """Seeded inputs with zeros sprinkled in, so that a guard on an array
    value (the guarded matmul's ``B(K,J) .NE. 0``) goes both ways."""
    env = make_env(proc, sizes, seed=7)
    rng = np.random.default_rng(7)
    arrays = {}
    for a in proc.arrays:
        x = env[a.name]
        x[rng.random(x.shape) < 0.3] = 0
        arrays[a.name] = x
    return arrays


def variants(name):
    w = get_workload(name)
    sizes = w.sizes_for()
    for proc in (w.build(), derive(name).procedure):
        yield proc, {p: sizes[p] for p in proc.params}


def assert_stream_is_the_reference(proc, sizes, recorder, arrays=None, seed=7):
    """The stream, site by site, is the callback flavour's event sequence
    mapped through the layout, and both leave the interpreter's arrays.
    Returns the stream runner."""
    layout = Layout.for_procedure(proc, sizes, line_bytes=32)
    stream = []
    by_callbacks = compile_procedure(proc, traced=True)(
        sizes, arrays=arrays, tracer=recorder, seed=seed)
    run = compile_stream(proc)
    by_stream = run(
        sizes, layout, lambda a, w, s: stream.extend(zip(a.tolist(), w.tolist(), s.tolist())),
        arrays=arrays, seed=seed)
    assert [(a, w) for a, w, _ in stream] == [
        (layout.address(a, i), w) for a, i, w in recorder.events], proc.name
    assert [run.sites[s][2] for *_, s in stream] == [a for a, *_ in recorder.events], proc.name
    by_interpreter = execute(proc, sizes, arrays=arrays, seed=seed)
    for a in proc.arrays:
        assert by_stream[a.name].tobytes() == by_callbacks[a.name].tobytes(), a.name
        assert by_stream[a.name].tobytes() == by_interpreter[a.name].tobytes(), a.name
    return run


BLOCK = "_blk("  # what a loop lowered as one block of events calls


@pytest.mark.parametrize("name", WORKLOADS)
def test_stream_is_the_callback_trace_through_the_layout(name, recording_tracer):
    for proc, sizes in variants(name):
        arrays = inputs(proc, sizes) if name == "matmul" else None
        recorder = recording_tracer()
        run = assert_stream_is_the_reference(proc, sizes, recorder, arrays=arrays)
        assert recorder.events, proc.name
        # every one of them has an affine innermost loop ...
        assert BLOCK in run.source, proc.name
        if name in ("givens", "matmul"):
            # ... and these two a loop whose body is a guard on array data,
            # A(J,L) and B(K,J): it stays a loop of per-touch loads
            guarded = "J" if name == "givens" else "K"
            assert f"for {guarded} in range(" in run.source and "if ((_ap(" in run.source


def test_only_innermost_affine_loops_are_blocks():
    """lu: the scaling loop and the update's I loop, not K or J."""
    source = compile_stream(get_workload("lu_nopivot").build()).source
    assert source.count(BLOCK) == 2 and source.count("for I in _r:") == 2
    assert "for K in range(" in source and "for J in range(" in source
    assert "_ap(" not in source.split("):", 1)[1]  # no per-touch event is left


def F8(name, *dims):
    return ArrayDecl(name, tuple(Const(d) for d in dims))


def I8(name, *dims):
    return ArrayDecl(name, tuple(Const(d) for d in dims), dtype="i8")


def BUMP(target):
    return assign(target, target + 1.0)


EDGES = {
    # id: (arrays declared, body, input arrays, blocks expected)
    "zero-trip": ((F8("A", 6),), (do("J", 1, 3, do("I", 3, 2, BUMP(ref("A", "I")))),), None, 1),
    "zero-then-some-trips": (
        (F8("A", 6),),
        (do("J", 1, 4, do("I", Var("J") + 1, 3, BUMP(ref("A", "I")))),), None, 1),
    "single-trip": ((F8("A", 6),), (do("I", 4, 4, BUMP(ref("A", "I"))),), None, 1),
    "negative-step": (
        (F8("A", 9),), (do("I", 9, 2, BUMP(ref("A", "I")), step=-3),), None, 1),
    "step-over-one": (
        (F8("A", 9), F8("B", 9)),
        (do("I", 2, 9, assign(ref("A", "I"), ref("B", Var("I") - 1)), step=3),), None, 1),
    "computed-step": (
        (F8("A", 9), I8("S", 1)),
        (do("I", 1, 9, BUMP(ref("A", "I")), step=ref("S", 1)),), {"S": np.array([4])}, 1),
    "bounds-load": (  # DO K = LB(J), UB(J): both loads, then the block
        (F8("A", 6), I8("LB", 3), I8("UB", 3)),
        (do("J", 1, 3, do("K", ref("LB", "J"), ref("UB", "J"), BUMP(ref("A", "K")))),),
        {"LB": np.array([1, 4, 3]), "UB": np.array([3, 6, 2])}, 1),
    "subscript-assigned-in-body": (
        (F8("A", 8),),
        (do("I", 1, 4, assign(Var("T"), Var("I") * 2), BUMP(ref("A", "T"))),), None, 0),
    "loop-variable-assigned-in-body": (
        (F8("A", 8),),
        (do("I", 1, 4, BUMP(ref("A", "I")), assign(Var("I"), Var("I") + 1),
            BUMP(ref("A", "I"))),), None, 0),
    "intdiv-subscript": (
        (F8("A", 8),), (do("I", 1, 8, BUMP(ref("A", IntDiv(Var("I") + 1, Const(2)))),),),
        None, 0),
    "mod-subscript": (
        (F8("A", 8),),
        (do("I", 1, 8, BUMP(ref("A", Call("MOD", (Var("I"), Const(3))) + 1)),),), None, 0),
    "min-subscript": (
        (F8("A", 8),), (do("I", 1, 8, BUMP(ref("A", Min((Var("I"), Const(5))))),),), None, 0),
    "quadratic-subscript": (
        (F8("A", 9),), (do("I", 1, 3, BUMP(ref("A", Var("I") * Var("I"))),),), None, 0),
    "indirect-load": (
        (F8("A", 4), F8("B", 4), I8("IP", 4)),
        (do("K", 1, 4, assign(ref("B", "K"), ref("A", ref("IP", "K")))),),
        {"IP": np.array([3, 1, 4, 2])}, 0),
    "indirect-store": (
        (F8("A", 4), F8("B", 4), I8("IP", 4)),
        (do("K", 1, 4, assign(ref("A", ref("IP", "K")), ref("B", "K"))),),
        {"IP": np.array([3, 1, 4, 2])}, 0),
    "if-in-body": (
        (F8("A", 6),),
        (do("I", 1, 6, if_(Compare("gt", ref("A", "I"), Const(0.5)), BUMP(ref("A", "I")))),),
        None, 0),
    "short-circuit-over-loads": (  # A(I) = I > 2 .AND. B(I) .NE. 0
        (F8("A", 5), F8("B", 5)),
        (do("I", 1, 5, assign(ref("A", "I"), LogicalOp("and", (
            Compare("gt", Var("I"), Const(2)), Compare("ne", ref("B", "I"), Const(0.0)))))),),
        {"B": np.array([1.0, 1.0, 1.0, 0.0, 2.0])}, 0),
    "logical-without-loads": (
        (F8("A", 5),),
        (do("I", 1, 5, assign(ref("A", "I"), LogicalOp("or", (
            Compare("gt", Var("I"), Const(4)), Compare("lt", Var("I"), Const(2)))))),),
        None, 1),
    "loop-invariant-site": (  # A(I,K) = A(I,K) / A(K,K)
        (F8("A", 4, 4),),
        (do("K", 1, 3, do("I", Var("K") + 1, 4, assign(
            ref("A", "I", "K"), ref("A", "I", "K") / ref("A", "K", "K")))),), None, 1),
    "coefficient-is-a-product-of-names": (  # X(I*(M*N) - J): M, N fixed, J fixed in the loop
        (F8("X", 30),),
        (do("J", 0, 2, do("I", 1, 3, BUMP(ref("X", Var("I") * (Var("M") * Var("N")) - Var("J"))))),),
        None, 1),
    "scalar-carried-through-the-body": (  # T is assigned, but indexes nothing
        (F8("A", 5), F8("B", 5)),
        (assign(Var("T"), Const(0.0)),
         do("I", 1, 5, assign(Var("T"), Var("T") + ref("B", "I")), assign(ref("A", "I"), Var("T")))),
        None, 1),
    "three-dimensional": (
        (F8("A", 3, 4, 5), F8("V", 5)),
        (do("J", 1, 4, do("K", 1, 5, assign(
            ref("A", Const(2), "J", "K"), ref("A", Const(1), "J", Const(6) - Var("K")) * ref("V", "K")))),),
        None, 1),
    "float32": (
        (ArrayDecl("A", (Const(5), Const(5)), dtype="f4"), ArrayDecl("B", (Const(5),), dtype="f4")),
        (do("J", 1, 5, do("I", 1, 5, assign(
            ref("A", "I", "J"), ref("A", "I", "J") + ref("A", "J", "I") * ref("B", "I")))),),
        None, 1),
}


@pytest.mark.parametrize("case", EDGES)
def test_block_lowering_equals_the_per_touch_reference(case, recording_tracer):
    arrays, body, supplied, blocks = EDGES[case]
    proc = Procedure(case.replace("-", "_"), ("M", "N"), arrays, body)
    recorder = recording_tracer()
    run = assert_stream_is_the_reference(proc, {"M": 2, "N": 3}, recorder, arrays=supplied)
    assert run.source.count(BLOCK) == blocks, run.source
    if case != "zero-trip":
        assert recorder.events


def test_a_subscript_that_is_no_integer_fails_in_a_block_too():
    """``buf.append`` refuses a float event; so does the block."""
    proc = Procedure("frac", ("H",), (F8("A", 4),), (do("I", 1, 2, BUMP(ref("A", Var("I") * Var("H")))),))
    layout = Layout.for_procedure(proc, {"H": 0.5}, line_bytes=32)
    run = compile_stream(proc)
    assert BLOCK in run.source
    with pytest.raises(TypeError):
        run({"H": 0.5}, layout, lambda *chunk: None)


def test_chunks_are_bounded_and_in_order(recording_tracer):
    """A run long enough to flush many times: chunks overshoot ``CHUNK`` by
    at most the innermost nest's touches, and concatenate to the trace."""
    w = get_workload("lu_nopivot")
    proc, sizes = w.build(), {"N": 40}
    layout = Layout.for_procedure(proc, sizes, line_bytes=32)
    recorder, chunks = recording_tracer(), []
    compile_procedure(proc, traced=True)(sizes, tracer=recorder)
    compile_stream(proc)(sizes, layout, lambda a, w, _: chunks.append((a, w)))
    assert len(chunks) > 4
    assert max(len(a) for a, _ in chunks) <= CHUNK + 4 * sizes["N"]
    assert all(a.dtype == np.int64 and w.dtype == bool for a, w in chunks)
    assert np.concatenate([a for a, _ in chunks]).tolist() == [
        layout.address(a, i) for a, i, _ in recorder.events]
    assert np.concatenate([w for _, w in chunks]).tolist() == [w for *_, w in recorder.events]


def test_source_depends_on_the_procedure_only():
    proc = get_workload("lu_nopivot").build()
    run = compile_stream(proc)
    assert f"len(_buf) > {CHUNK}" in run.source and "_s_A_0" in run.source
    for n in (5, 9):  # one compiled kernel, two sizes and layouts
        layout = Layout.for_procedure(proc, {"N": n}, line_bytes=32)
        count = []
        run({"N": n}, layout, lambda a, w, _: count.append(len(a)))
        # per K: N-K scalings of 3 touches, (N-K)^2 updates of 4
        assert sum(count) == sum(4 * (n - k) ** 2 + 3 * (n - k) for k in range(1, n))
