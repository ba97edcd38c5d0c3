"""Property: the execution engines agree on generated nests.

The scalar-replacement oracle's ``nests`` (``DO I / DO J / A(w) = A(r1) +
A(r2)`` over every Sec. 3 shape, shifted into ``A(EXTENT)``) get their
steps redrawn, the inner one from {±1, ±2} and the outer one from
{1, -1, 2}, and half of them a guard on array data around the body.  A
negative step runs its loop from the drawn upper bound down to the
lower one, so every touch stays in the shifted range.  On each:

- the stream's events are the callback trace through the layout, and the
  stream, callback and interpreter bytes are equal
  (``assert_stream_is_the_reference``);
- the plain compiled engine leaves the interpreter's bytes.

Unguarded inner loops are lowered as one block of events, and those whose
blocks the run-time check admits run as array statements; guarded ones
stay loops of per-touch loads.  The fixed seeds reach both.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ir.build import if_, ref
from repro.ir.expr import Compare, Const, Var
from repro.runtime import compile_procedure, execute
from tests.conftest import RecordingTracer
from tests.properties.test_dependence_oracle import nests
from tests.properties.test_scalars_oracle import EXTENT, FAMILIES, SHIFT, shifted
from tests.runtime.test_stream_codegen import (
    ARRAY_PATH, array_path_checks, assert_stream_is_the_reference,
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


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_engines_agree_on_generated_nests(family):
    seen = {"array statements": 0, "guarded loop": 0}

    @settings(max_examples=100, derandomize=True, deadline=None, database=None)
    @given(nests(shapes=FAMILIES[family]), st.sampled_from([1, -1, 2, -2]),
           st.sampled_from([1, -1, 2]), st.booleans())
    def check(case, inner_step, outer_step, guarded):
        proc = engine_case(case, inner_step, outer_step, guarded)
        arrays = {"A": np.random.default_rng(7).standard_normal(EXTENT)}
        with pytest.MonkeyPatch.context() as patch:
            calls = array_path_checks(patch)
            run = assert_stream_is_the_reference(proc, {}, RecordingTracer(), arrays=arrays)
        seen["array statements"] += ARRAY_PATH in run.source and any(v for *_, v in calls)
        seen["guarded loop"] += GUARDED_LOOP in run.source
        plain = compile_procedure(proc)({}, arrays=arrays)["A"]
        assert plain.tobytes() == execute(proc, {}, arrays=arrays)["A"].tobytes()

    check()
    assert all(seen.values()), seen
