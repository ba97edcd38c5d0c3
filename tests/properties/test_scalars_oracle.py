"""Property: scalar replacement keeps the bytes, and its constant-offset
alias test is exact, on the dependence oracle's random two-deep nests.

``nests`` draws ``DO I / DO J / A(w) = A(r1) + A(r2)`` over every Sec. 3
shape; its subscripts span -29..35, so each is shifted by ``SHIFT`` into
the declared ``A(EXTENT)`` and the nest runs without an out-of-range
touch.  ``scalar_replace`` then works on the innermost ``DO J``:

- its output leaves the input's bytes, under the interpreter and under
  the compiled engine;
- every reference pair ``constant_offset_apart`` separates touches
  disjoint elements over ``Domain.points()`` at every fixed ``I``.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings

from repro.ir.build import assign, ref
from repro.ir.expr import Const
from repro.ir.stmt import ArrayDecl, Procedure
from repro.runtime import compile_procedure, execute
from repro.transform.scalars import constant_offset_apart, scalar_replace
from tests.properties.domain import Domain
from tests.properties.test_dependence_oracle import build_expr, ci_eval, nests

SHIFT, EXTENT = 30, 66

FAMILIES = {
    "rectangular": ("rectangular",),
    "triangular": ("triangular-lo", "triangular-hi"),
    "trapezoidal": ("trapezoidal-min", "trapezoidal-max"),
    "rhomboidal": ("rhomboidal",),
    "disjunctive": ("min-lower", "max-upper"),
}


def shifted(case):
    """The drawn nest with every subscript moved into ``A(1:EXTENT)``, as a
    procedure, and its three shifted subscripts."""
    nest, subs = case
    (inner,) = nest.body
    w, r1, r2 = ((ci, cj, off + SHIFT) for ci, cj, off in subs)
    body = assign(ref("A", build_expr(*w)), ref("A", build_expr(*r1)) + ref("A", build_expr(*r2)))
    nest = nest.with_body((inner.with_body((body,)),))
    return Procedure("nest", (), (ArrayDecl("A", (Const(EXTENT),)),), (nest,)), (w, r1, r2)


def same_bytes(before, after, run):
    a = np.random.default_rng(7).standard_normal(EXTENT)
    assert run(before, a).tobytes() == run(after, a).tobytes()


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_scalar_replacement_is_exact_on_random_nests(family):
    seen = {"replaced": 0, "apart": 0}

    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @given(nests(shapes=FAMILIES[family]))
    def check(case):
        proc, subs = shifted(case)
        out, reports = scalar_replace(proc)
        seen["replaced"] += bool(reports)
        same_bytes(proc, out, lambda p, a: execute(p, {}, arrays={"A": a})["A"])
        same_bytes(proc, out, lambda p, a: compile_procedure(p)({}, arrays={"A": a})["A"])

        points = list(Domain.of(proc.body[0]).points())
        for s, t in itertools.combinations(sorted(set(subs)), 2):
            if not constant_offset_apart(ref("A", build_expr(*s)), ref("A", build_expr(*t)), "J"):
                continue
            seen["apart"] += 1
            for i, group in itertools.groupby(points, key=lambda p: p[0]):
                js = [j for _, j in group]
                touched = {ci_eval(s, i, j) for j in js}
                assert touched.isdisjoint(ci_eval(t, i, j) for j in js), (s, t, i)

    check()
    # the run exercised both halves (counts are those of the fixed seeds)
    assert seen["replaced"] and seen["apart"], seen
