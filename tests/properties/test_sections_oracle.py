"""Property: a subscript's section contains every element the access touches.

``expr_range`` over ``ranges_for_loops`` is the section algebra behind
``_ranges_disjoint``, the section-style refutation that drops a dependence
once index-set splitting has separated two references (Sec. 3.3/5.4).  A
range that leaves out one realised value makes that refutation unsound.
For the dependence oracle's generated nests, over every Sec. 3 shape, the
subscripts are evaluated by the reference interpreter at every point of
``Domain.points()``: each value must lie inside its range, and no pair with
a write that touches a common element may be refuted — over the whole nest,
nor relative to the J loop with I held fixed.
"""

from hypothesis import given, settings

from repro.analysis.context import context_for_path
from repro.analysis.dependence import _ranges_disjoint
from repro.analysis.refs import collect_accesses
from repro.analysis.sections import expr_range, ranges_for_loops
from repro.runtime.interpreter import Interpreter
from repro.symbolic.assume import Assumptions
from tests.properties.domain import Domain
from tests.properties.test_dependence_oracle import SHAPES, nests


def touched(nest, accesses) -> list[dict]:
    """Per access, ``{i: set of elements touched while I == i}``: each
    access's own subscript, evaluated by the interpreter at every point."""
    dom = Domain.of(nest)
    out = [{} for _ in accesses]
    for point in dom.points():
        at = Interpreter(dict(zip(dom.vars, point)))
        for k, acc in enumerate(accesses):
            out[k].setdefault(point[0], set()).add(at.eval(acc.ref.index[0]))
    return out


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(nests(shapes=tuple(SHAPES)))
def test_a_section_encloses_every_touched_element(case):
    nest, _ = case
    accesses = collect_accesses((nest,))
    for acc, by_i in zip(accesses, touched(nest, accesses)):
        rng = expr_range(acc.ref.index[0], ranges_for_loops(acc.loops), Assumptions())
        if rng is None or not by_i:
            continue  # no claim made, or nothing touched
        at = Interpreter({})
        lo, hi = at.eval(rng[0]), at.eval(rng[1])
        values = set().union(*by_i.values())
        assert lo <= min(values) and max(values) <= hi, (acc.ref, (lo, hi), sorted(values))


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(nests(shapes=tuple(SHAPES)))
def test_no_write_pair_touching_a_common_element_is_refuted(case):
    nest, _ = case
    (inner,) = nest.body
    accesses = collect_accesses((nest,))
    sets = touched(nest, accesses)
    ctxs = (Assumptions(), context_for_path((nest,), inner))
    for x, (a, ta) in enumerate(zip(accesses, sets)):
        for b, tb in list(zip(accesses, sets))[x:]:
            if not (a.is_write or b.is_write):
                continue
            ea, eb = a.ref.index[0], b.ref.index[0]
            anywhere = set().union(*ta.values()) & set().union(*tb.values())
            same_i = any(ta[i] & tb.get(i, set()) for i in ta)
            for ctx in ctxs:
                if anywhere:
                    assert not _ranges_disjoint(ea, eb, a, b, ctx), (ea, eb)
                if same_i:
                    assert not _ranges_disjoint(ea, eb, a, b, ctx, within=inner), (ea, eb)
