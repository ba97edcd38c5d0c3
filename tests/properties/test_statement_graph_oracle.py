"""Property: the distribution view drops no real ordering.

``DependenceGraph.statement_graph(DO I)`` is what distribution and
IndexSetSplit trust, and it is built from the loop's *relative*
dependences after ``_orientation_possible`` prunes the orientations it
proves impossible.  Pruning is only sound if it never drops an edge a run
realises: for generated ``DO I / { DO J ...; DO J ... }`` nests (the J
bounds drawn from the Sec. 3 shapes of the dependence oracle) with one
statement over ``A`` in each child, every pair of events in different
children that touches one element, with at least one write, must appear
as an edge from the child that runs first to the one that runs second —
loop-independent (same I) or carried by I.
"""

from hypothesis import given, settings, strategies as st

from repro.analysis.context import context_for_path
from repro.analysis.graph import DependenceGraph
from repro.ir.build import assign, do, ref
from repro.ir.expr import Const
from tests.properties.domain import Domain
from tests.properties.test_dependence_oracle import SHAPES, build_expr, ci_eval, subscript


@st.composite
def split_nests(draw):
    """DO I = 1, n / { DO J: A(w0) = A(r0) + 1; DO J: A(w1) = A(r1) + 1 },
    each child's J bounds from its own Sec. 3 shape."""
    n = draw(st.integers(min_value=1, max_value=4))
    children, subs = [], []
    for _ in range(2):
        w, r = draw(subscript), draw(subscript)
        lo, hi = SHAPES[draw(st.sampled_from(sorted(SHAPES)))](
            draw(st.integers(min_value=-1, max_value=1)),
            draw(st.integers(min_value=1, max_value=4)),
            draw(st.integers(min_value=0, max_value=2)),
        )
        body = assign(ref("A", build_expr(*w)), ref("A", build_expr(*r)) + Const(1.0))
        children.append(do("J", lo, hi, body))
        subs.append((w, r))
    return do("I", 1, n, *children), subs


def realised_orderings(nest, subs) -> set[tuple[int, int]]:
    """(first child, second child) of every cross-child event pair that
    touches one element with at least one write, in execution order."""
    events = []  # (child, element, is_write), in execution order
    for (i,) in Domain(("I",), ((nest.lo, nest.hi, nest.step),)).points():
        for c, (child, (w, r)) in enumerate(zip(nest.body, subs)):
            for _, j in Domain.of(do("I", i, i, child)).points():
                events += [(c, ci_eval(r, i, j), False), (c, ci_eval(w, i, j), True)]
    out = set()
    for k, (c1, e1, w1) in enumerate(events):
        for c2, e2, w2 in events[k + 1:]:
            if c1 != c2 and e1 == e2 and (w1 or w2):
                out.add((c1, c2))
    return out


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(split_nests())
def test_every_realised_cross_child_ordering_is_an_edge(case):
    nest, subs = case
    sg = DependenceGraph((nest,), context_for_path((nest,), nest)).statement_graph(nest)
    missing = {(u, v) for u, v in realised_orderings(nest, subs) if not sg.has_edge(u, v)}
    assert not missing, f"statement graph dropped realised orderings {missing}"
