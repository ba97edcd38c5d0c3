"""The address-stream flavour against the callback flavour and the
interpreter, on every registered workload, point and compiler-derived, and
its block lowering of affine innermost loops and lane lowering of the loops
around them against that per-touch reference on hand-built edge cases."""

import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro import algorithms as alg
from repro.ir.build import assign, do, if_, ref
from repro.ir.expr import BinOp, Call, Compare, Const, IntDiv, LogicalOp, Min, Var
from repro.ir.stmt import ArrayDecl, Procedure
from repro.machine import Layout
from repro.pipeline import available_workloads, derive, get_workload
from repro.runtime import codegen
from repro.runtime.codegen import CHUNK, compile_procedure, compile_stream
from repro.runtime.interpreter import execute, make_env
from tests.conftest import RecordingTracer

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


ARRAY_PATH = "if _blk("  # a block whose body may run as array statements


def array_path_checks(monkeypatch):
    """Wrap the run-time half of the array-path decision; returns the list
    of ``(trips, steps, lows, highs, address_bits, verdict)`` it is called
    with: ``highs`` is ``None`` for a block, which touches one event per
    site, and lane 0's highest events for a lane loop."""
    calls, check = [], codegen._disjoint

    def recorded(trips, steps, lows, pairs, address_bits, highs=None):
        verdict = check(trips, steps, lows, pairs, address_bits, highs)
        calls.append((trips, steps, lows, highs, address_bits, verdict))
        return verdict

    monkeypatch.setattr(codegen, "_disjoint", recorded)
    return calls


def verdicts_of(calls, lanes=False):
    """The verdicts on blocks, or with ``lanes`` on lane loops."""
    return [verdict for *_, highs, _, verdict in calls if (highs is not None) == lanes]


@pytest.mark.parametrize("name, variant, sizes, blocks", [
    ("lu_nopivot", "point", {"N": 20}, 19 + 190),  # both I loops, for every K and J
    ("lu_nopivot", "derived", None, None),  # the panel's I loops, never the trailing KK loop
    ("givens", "point", None, None),  # the K loop
    ("matmul", "point", None, "B"),  # the I loop, once for every nonzero B(K,J)
    ("matmul", "derived", None, None),  # the I loops of both K loops
    ("conv", "point", None, 0),  # F3(I) is the same element in every K
    ("conv", "derived", None, 0),  # the F3 accumulators are carried
    ("givens", "derived", None, 0),  # A(L,K) is the same element in every J
])
def test_which_blocks_run_as_array_statements(name, variant, sizes, blocks, monkeypatch):
    """A check that refuses everything fails here instead of only costing
    time: every block of the loops the simulated traces owe their speed to
    runs as array statements, and an order-sensitive loop never does."""
    proc = get_workload(name).build() if variant == "point" else derive(name).procedure
    defaults = get_workload(name).sizes_for()
    sizes = sizes or {p: defaults[p] for p in proc.params}
    arrays = inputs(proc, sizes) if name == "matmul" else None
    calls = array_path_checks(monkeypatch)
    run = compile_stream(proc)
    run(sizes, Layout.for_procedure(proc, sizes, line_bytes=32), lambda *chunk: None,
        arrays=arrays)
    verdicts = verdicts_of(calls)
    if blocks == 0:
        assert ARRAY_PATH not in run.source and verdicts == []
        return
    assert verdicts and all(verdicts)
    if blocks == "B":
        assert len(verdicts) == np.count_nonzero(arrays["B"])
    elif blocks:
        assert len(verdicts) == blocks
    if name == "lu_nopivot" and variant == "derived":
        # the trailing KK block is written twice: in the lane loop's first
        # lane and in its per-touch fallback for the others
        assert run.source.count(BLOCK) == 4 and run.source.count(ARRAY_PATH) == 2


#: what a lane loop's first lane calls before the others run
LANES = "_lanes("

PRODUCT = assign(ref("B", "I", "J"), ref("B", "I", "J") + ref("A", "I", "K") * ref("A", "K", "J"))

#: ``DO J = 1, 4 / DO I = 1, 4 / <inner>``, the J loop's per-iteration
#: events shifted copies of the first's unless a static rule says no; and
#: the loops that should run as lanes, with the run-time check's verdicts
LANE_NESTS = {
    "columns": (do("K", 1, "I", PRODUCT), ["J"], [True]),
    "columns-that-overlap": (do("K", 1, "I", assign(
        ref("B", "I", "J"), ref("B", "I", "J") + ref("B", "I", "K") * ref("A", "K", "J"))),
        ["J"], [False]),
    "lanes-that-touch-nothing": (do("K", 1, Var("I") - 4, PRODUCT), ["J"], []),
    "scalar-that-no-trip-assigns": (do("K", 1, Var("I") - 4, assign("U", ref("A", "K", "J")),
                                       assign(ref("B", "I", "J"), Var("U"))), ["J"], []),
    "bound-reads-the-lane-variable": (do("K", 1, Min((Var("I"), Var("J"))), PRODUCT), [], []),
    "bound-loads-what-the-body-writes": (
        do("K", 1, Min((Var("I"), Call("INT", (ref("B", 1, 1),)))), PRODUCT), [], []),
    "scalar-carried-between-iterations": (do("K", 1, "I", assign(
        ref("B", "I", "J"), ref("B", "I", "J") + Var("T") * ref("A", "K", "J")),
        assign("T", ref("A", "I", "K"))), [], []),
    "if-in-the-body": (
        if_(Compare("gt", ref("A", "I", "J"), Const(0.5)), do("K", 1, "I", PRODUCT)), [], []),
}

#: the simulated traces' point programs (blockbench's ``simulate``)
SIMULATED = {"lu_nopivot": alg.lu_point_ir, "givens": alg.givens_point_ir,
             "matmul": alg.matmul_guarded_ir, "conv": alg.conv_ir}
#: the lane loops of the simulated traces; conv's run no trip, as
#: ``DO I = N1 + 1, MIN(N3, N2 + 1)`` does wherever ``N1 >= N2 + 1``
LANE_LOOPS = {"lu_nopivot.derived": ["J"], "givens.derived": ["K"], "conv.derived": ["I", "I"]}


def lane_loops(source):
    """Per lane loop of ``source``, its variable and its lines."""
    return [(var, text) for _, var, text in re.findall(
        r"^( *)_l = .*\n\1if _l:\n\1    (\w+) = _l\[0\]\n((?:\1    .*\n)*)", source, re.M)]


@pytest.mark.parametrize("case", [f"{name}.{variant}" for name in SIMULATED
                                  for variant in ("point", "derived")] + list(LANE_NESTS))
def test_which_loops_run_as_lanes(case, monkeypatch):
    """Of the simulated traces, exactly lu.derived's trailing ``DO J`` and
    givens.derived's ``DO K`` run their iterations after the first as
    lanes, and the run-time check admits them every time; no lane loop
    holds a block that may run as array statements.  On the small nests,
    each static rule keeps the J loop per iteration (every inner bound
    reads I, so the I loop is no lane loop either), and the run-time check
    refuses lanes that touch each other's columns."""
    if case in LANE_NESTS:
        inner, want, verdicts = LANE_NESTS[case]
        proc = Procedure(case.replace("-", "_"), (), (F8("A", 4, 4), F8("B", 4, 4)),
                         (assign("T", 0.5), do("J", 1, 4, do("I", 1, 4, inner))))
        sizes, arrays = {}, {"B": np.full((4, 4), 2.5)}
    else:
        name, variant = case.split(".")
        proc = SIMULATED[name]() if variant == "point" else derive(name).procedure
        defaults = get_workload(name).sizes_for()
        sizes = {p: defaults[p] for p in proc.params}
        arrays = inputs(proc, sizes) if name == "matmul" else None
        want = LANE_LOOPS.get(case, [])
        verdicts = None
    calls = array_path_checks(monkeypatch)
    run = assert_stream_is_the_reference(proc, sizes, RecordingTracer(), arrays=arrays)
    lanes = lane_loops(run.source)
    assert [var for var, _ in lanes] == want and run.source.count(LANES) == len(want)
    assert not any(ARRAY_PATH in text for _, text in lanes)
    checked = verdicts_of(calls, lanes=True)
    if verdicts is None:  # a simulated trace
        runs = case in ("lu_nopivot.derived", "givens.derived")
        assert bool(checked) == runs
        verdicts = [True] * len(checked)
    assert checked == verdicts


I, T = Var("I"), Var("T0")


def loop_over(*body, lo=1, hi=10, step=1, n=24):
    """``DO I = lo, hi, step`` over 1-D arrays A, B and a 2-D array M,
    between the scalars' values before it and a record of them after it."""
    before = (assign("T0", 0.5), assign("T1", 2.0), assign("I", 0))
    after = (assign(ref("M", 1, 1), "T0"), assign(ref("M", 1, 2), "T1"),
             assign(ref("M", 2, 1), I))
    arrays = (F8("A", n), F8("B", n), F8("M", n, n))
    return Procedure("one_loop", (), arrays, before + (do("I", lo, hi, *body, step=step),) + after)


@st.composite
def one_loop(draw):
    """Every subscript either moves with I, as a*I + c, or is fixed; a value
    reads elements, constants, the scalars T0 and T1 (perhaps before the
    body assigns them) and now and then I itself."""
    step = draw(st.sampled_from([1, -1, 2, -2]))
    trips = draw(st.sampled_from([0, 1]) | st.integers(2, 40))
    span = max(trips - 1, 0) * abs(step)
    first = 1 + draw(st.integers(0, 3)) + (span if step < 0 else 0)
    low, high = (first, first + span) if step > 0 else (first - span, first)
    n = 2 * span + 6  # every subscript below stays in 1..n

    def subscript():
        a = draw(st.sampled_from([0, 1, 1, 2, -1]))
        if a == 0:
            return Const(draw(st.integers(1, n)))
        return I * a + (1 - min(a * low, a * high) + draw(st.integers(0, 2)))

    def element():
        array = draw(st.sampled_from("ABM"))
        return ref(array, subscript(), *([subscript()] if array == "M" else []))

    def term():
        kind = draw(st.sampled_from(["element", "element", "const", "scalar", "I"]))
        if kind == "const":
            return Const(draw(st.sampled_from([0.5, 1.5, 3.0])))
        return {"element": element, "scalar": lambda: Var(draw(st.sampled_from(["T0", "T1"]))),
                "I": lambda: I}[kind]()

    def value():
        left, op = term(), draw(st.sampled_from(["+", "-", "*", "/", None]))
        return left if op is None else BinOp(op, left, element() if op == "/" else term())

    body = [assign(element() if draw(st.booleans()) else Var(draw(st.sampled_from(["T0", "T1"]))),
                   value()) for _ in range(draw(st.integers(1, 3)))]
    last = first + (trips - 1) * step if trips else first - step
    return loop_over(*body, lo=first, hi=last, step=step, n=n)


@settings(max_examples=300, deadline=None)
@given(proc=one_loop())
@example(proc=loop_over(assign(ref("A", I + 1), ref("A", "I") * 1.5)))  # carried
@example(proc=loop_over(assign(ref("A", "I"), ref("A", I + 2) + 1.0)))  # carried, anti
@example(proc=loop_over(assign(ref("A", I * 2), ref("A", "I") + 1.0)))  # strided
@example(proc=loop_over(assign(ref("M", "I", 3), ref("M", 3, "I") + 1.0)))
@example(proc=loop_over(assign(ref("M", "I", 3), ref("M", "I", 3) / ref("M", 3, 3)), lo=4))
@example(proc=loop_over(assign(ref("A", 3), ref("A", 3) + ref("B", "I"))))  # one target
@example(proc=loop_over(  # a private temporary: a swap
    assign(T, ref("A", "I")), assign(ref("A", "I"), ref("B", "I") * 0.5),
    assign(ref("B", "I"), T + ref("A", "I")), lo=20, hi=2, step=-2))
def test_array_statements_are_the_scalar_loop(proc):
    """Whichever way a block's body runs, the stream, the callback trace, the
    interpreter and the plain flavour agree byte for byte; and when it runs
    as array statements, brute force over the block's touched elements
    finds none that one iteration writes and another touches."""
    with pytest.MonkeyPatch.context() as patch:
        calls = array_path_checks(patch)
        assert_stream_is_the_reference(proc, {}, RecordingTracer(), seed=3)
    plain, interpreted = compile_procedure(proc)({}, seed=3), execute(proc, {}, seed=3)
    for a in proc.arrays:
        assert plain[a.name].tobytes() == interpreted[a.name].tobytes(), a.name
    for trips, steps, firsts, highs, address_bits, verdict in calls:
        assert highs is None  # one loop: no lanes
        if not verdict:
            continue
        writers, touchers = {}, {}
        for first, step in zip(firsts, steps):
            for k in range(trips):
                address = ((first & address_bits) >> 1) + k * (step >> 1)
                touchers.setdefault(address, set()).add(k)
                if first & 1:
                    writers.setdefault(address, set()).add(k)
        assert not any(len(touchers[address]) > 1 for address in writers), proc


def test_a_subscript_that_is_no_integer_fails_in_a_block_too():
    """``buf.append`` refuses a float event; so does the block."""
    proc = Procedure("frac", ("H",), (F8("A", 4),), (do("I", 1, 2, BUMP(ref("A", Var("I") * Var("H")))),))
    layout = Layout.for_procedure(proc, {"H": 0.5}, line_bytes=32)
    run = compile_stream(proc)
    assert BLOCK in run.source
    with pytest.raises(TypeError):
        run({"H": 0.5}, layout, lambda *chunk: None)


def chunks_in_order(proc, sizes, recorder):
    """The stream's chunks of ``proc``, once their concatenation is checked
    against the trace; and the stream runner."""
    layout = Layout.for_procedure(proc, sizes, line_bytes=32)
    chunks = []
    compile_procedure(proc, traced=True)(sizes, tracer=recorder)
    run = compile_stream(proc)
    run(sizes, layout, lambda a, w, _: chunks.append((a, w)))
    assert len(chunks) > 4
    assert all(a.dtype == np.int64 and w.dtype == bool for a, w in chunks)
    assert np.concatenate([a for a, _ in chunks]).tolist() == [
        layout.address(a, i) for a, i, _ in recorder.events]
    assert np.concatenate([w for _, w in chunks]).tolist() == [w for *_, w in recorder.events]
    return [len(a) for a, _ in chunks], run


def test_chunks_are_bounded_and_in_order(recording_tracer):
    """A run long enough to flush many times: chunks overshoot ``CHUNK`` by
    at most the innermost nest's touches, and concatenate to the trace."""
    sizes = {"N": 40}
    chunks, _ = chunks_in_order(get_workload("lu_nopivot").build(), sizes, recording_tracer())
    assert max(chunks) <= CHUNK + 4 * sizes["N"]


def test_lane_chunks_are_bounded_and_in_order(recording_tracer):
    """lu.derived's trailing update is a lane loop: its first lane is
    appended without a flush and the others in groups, so a chunk
    overshoots by at most one lane (``DO I / DO KK``, four touches) more."""
    sizes = {"N": 40, "KS": 8}
    chunks, run = chunks_in_order(derive("lu_nopivot").procedure, sizes, recording_tracer())
    assert LANES in run.source
    assert max(chunks) <= CHUNK + 4 * sizes["N"] + 4 * sizes["N"] * sizes["KS"]


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
