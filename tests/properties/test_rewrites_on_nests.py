"""Property: the one builder per rewrite keeps the bytes on generated nests.

The scalar-replacement oracle's ``nests`` (``DO I / DO J / A(w) = A(r1) +
A(r2)``, shifted into ``A(EXTENT)``) go through two passes:

- ``split`` on the trapezoidal shapes, MIN and MAX alike, which
  ``split_trapezoid`` cuts into triangle and rectangle;
- ``jam`` on the triangular-lo, triangular-hi and rhomboidal shapes at
  unroll 2, 3 or 4, which ``triangular_unroll_jam`` rewrites into the
  remainder pre-loop and the head/mid/tail blocks.

An applied pass must leave the untransformed nest's bytes under the
interpreter and under the compiled engine.  A pass may refuse a draw (a
dependence the jam would reverse, a band narrower than the unroll
factor); the fixed seeds' refusal counts are pinned so that a builder
that starts refusing, or accepting, more draws shows here.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.pipeline import AnalysisCache, PassSpec, run_passes
from repro.runtime import compile_procedure, execute
from tests.properties.test_dependence_oracle import nests
from tests.properties.test_scalars_oracle import same_bytes, shifted

#: (pass, shape) -> (applied, refused) on the fixed seeds' 100 draws
CASES = {
    ("split", "trapezoidal-min"): (100, 0),
    ("split", "trapezoidal-max"): (100, 0),
    ("jam", "triangular-lo"): (87, 13),
    ("jam", "triangular-hi"): (90, 10),
    ("jam", "rhomboidal"): (38, 62),
}


@pytest.mark.parametrize("name,shape", sorted(CASES))
def test_rewrite_keeps_the_bytes_on_generated_nests(name, shape):
    seen = {"applied": 0, "refused": 0}

    @settings(max_examples=100, derandomize=True, deadline=None, database=None)
    @given(nests(shapes=(shape,)), st.sampled_from((2, 3, 4)))
    def check(case, unroll):
        proc, _ = shifted(case)
        options = {"loop": "I", "unroll": unroll} if name == "jam" else {"loop": "I"}
        result = run_passes(proc, [PassSpec(name, options)], cache=AnalysisCache())
        (span,) = result.spans
        if span.status != "applied":
            seen["refused"] += 1
            return
        seen["applied"] += 1
        out = result.procedure
        same_bytes(proc, out, lambda p, a: execute(p, {}, arrays={"A": a})["A"])
        same_bytes(proc, out, lambda p, a: compile_procedure(p)({}, arrays={"A": a})["A"])

    check()
    assert (seen["applied"], seen["refused"]) == CASES[name, shape], seen
