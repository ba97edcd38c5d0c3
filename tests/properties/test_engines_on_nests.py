"""Property: the execution engines agree on generated nests.

The scalar-replacement oracle's ``nests`` (``DO I / DO J / A(w) = A(r1) +
A(r2)`` over every Sec. 3 shape, shifted into ``A(EXTENT)``) get their
steps redrawn, the inner one from {±1, ±2} and the outer one from
{1, -1, 2}, and half of them a guard on array data around the body.  A
negative step runs its loop from the drawn upper bound down to the
lower one, so every touch stays in the shifted range.  The dependence
oracle's ``deep_nests`` (one to three deep, one or two statements a
body) are shifted the same way.  On each:

- the stream's events are the callback trace through the layout, and the
  stream, callback and interpreter bytes are equal
  (``assert_stream_is_the_reference``);
- the plain compiled engine leaves the interpreter's bytes.

Unguarded inner loops are lowered as one block of events, and those whose
blocks the run-time check admits run as array statements; guarded ones
stay loops of per-touch loads.  A rectangular nest whose inner block
writes one element throughout is a lane loop over ``I``: its lanes after
the first run as array statements where the run-time check admits them,
and as the first did where it refuses.  The fixed seeds reach all four,
and two three-deep nests pin both lane outcomes one level further out.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ir.build import assign, do, if_, ref
from repro.ir.expr import ArrayRef, Compare, Const, Var
from repro.ir.stmt import ArrayDecl, Procedure
from repro.ir.visit import NodeTransformer
from repro.runtime import compile_procedure, execute
from tests.conftest import RecordingTracer
from tests.properties.test_dependence_oracle import deep_nests, nests
from tests.properties.test_scalars_oracle import EXTENT, FAMILIES, SHIFT, shifted
from tests.runtime.test_stream_codegen import (
    ARRAY_PATH, LANES, array_path_checks, assert_stream_is_the_reference, verdicts_of,
)

#: the guard: an array value, so each trip of the inner loop may go either way
GUARD = Compare("gt", ref("A", Var("J") + SHIFT), Const(0.0))
GUARDED_LOOP = "if ((_ap("  # a per-touch load inside a loop's condition


def restepped(loop, step):
    """``loop`` with ``step``, running its drawn range in that direction."""
    lo, hi = (loop.lo, loop.hi) if step > 0 else (loop.hi, loop.lo)
    return loop.with_bounds(lo, hi, step)


def engine_case(case, inner_step, outer_step, guarded):
    proc, _ = shifted(case)
    (outer,) = proc.body
    (inner,) = outer.body
    body = (if_(GUARD, inner.body),) if guarded else inner.body
    inner = restepped(inner.with_body(body), inner_step)
    return proc.with_body((restepped(outer.with_body((inner,)), outer_step),))


def assert_engines_agree(proc, extent):
    """The four engines agree on ``proc`` over a random ``A(extent)``;
    returns the stream runner and the array-path checks it made."""
    arrays = {"A": np.random.default_rng(7).standard_normal(extent)}
    with pytest.MonkeyPatch.context() as patch:
        calls = array_path_checks(patch)
        run = assert_stream_is_the_reference(proc, {}, RecordingTracer(), arrays=arrays)
    plain = compile_procedure(proc)({}, arrays=arrays)["A"]
    assert plain.tobytes() == execute(proc, {}, arrays=arrays)["A"].tobytes()
    return run, calls


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_engines_agree_on_generated_nests(family):
    seen = {"array statements": 0, "guarded loop": 0}
    if family == "rectangular":  # the one shape whose inner bounds leave I alone
        seen.update({"lanes as array statements": 0, "lanes refused": 0})

    @settings(max_examples=100, derandomize=True, deadline=None, database=None)
    @given(nests(shapes=FAMILIES[family]), st.sampled_from([1, -1, 2, -2]),
           st.sampled_from([1, -1, 2]), st.booleans())
    def check(case, inner_step, outer_step, guarded):
        run, calls = assert_engines_agree(engine_case(case, inner_step, outer_step, guarded),
                                          EXTENT)
        seen["array statements"] += ARRAY_PATH in run.source and any(verdicts_of(calls))
        seen["guarded loop"] += GUARDED_LOOP in run.source
        lanes = verdicts_of(calls, lanes=True)
        if lanes:
            seen["lanes as array statements"] += all(lanes)
            seen["lanes refused"] += not any(lanes)

    check()
    assert all(seen.values()), seen


#: ``deep_nests`` subscripts span -51..57
DEEP_SHIFT, DEEP_EXTENT = 60, 128


class _Shifted(NodeTransformer):
    rewrite_exprs = True

    def visit_expr(self, e):
        if isinstance(e, ArrayRef):
            return ArrayRef(e.array, tuple(i + DEEP_SHIFT for i in e.index))
        return e


def deep_procedure(nest):
    return Procedure("deep", (), (ArrayDecl("A", (Const(DEEP_EXTENT),)),),
                     (_Shifted().visit(nest),))


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(deep_nests())
def test_engines_agree_on_deep_nests(nest):
    """One to three deep, strided and reversed outer loops, statements
    between the loops."""
    assert_engines_agree(deep_procedure(nest), DEEP_EXTENT)


@pytest.mark.parametrize("read, admitted", [
    (Var("L") + 40, True),  # elements no lane writes
    (Const(4) * Var("I") + Var("J") + 4, False),  # the next lane's elements
], ids=["reads-its-own-lane", "reads-the-next-lane"])
def test_three_deep_lanes(read, admitted):
    """``DO I = 1, 3 / DO J = 1, 3 / DO L = 1, J / A(4I+J) = A(4I+J) +
    A(read)``: the L loop writes one element throughout and its bound reads
    J, so ``DO I`` is the lane loop, each lane on its own four elements."""
    w = ref("A", Const(4) * Var("I") + Var("J"))
    nest = do("I", 1, 3, do("J", 1, 3, do("L", 1, "J", assign(w, w + ref("A", read)))))
    run, calls = assert_engines_agree(deep_procedure(nest), DEEP_EXTENT)
    assert run.source.count(LANES) == 1 and verdicts_of(calls, lanes=True) == [admitted]
