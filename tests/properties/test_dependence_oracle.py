"""Property: the dependence tester is SOUND against a brute-force oracle.

Random two-deep affine loop nests — over the paper's Sec. 3 iteration
spaces: rectangular, triangular, trapezoidal (MIN/MAX arms, conjunctive and
disjunctive) and rhomboidal — are executed abstractly: every (array,
element, is_write, time, iteration) event is enumerated, ground-truth
dependence pairs derived, and each must be covered by some analytic
dependence between the same two references.  (The analytic answer may
contain extra dependences — it is conservative — but may never miss one.)
The same enumeration checks Fourier–Motzkin: a direction vector realised
by two enumerated iterations may never be declared infeasible.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.context import context_for_path
from repro.analysis.dependence import dependences_between
from repro.analysis.feasibility import direction_feasible
from repro.analysis.refs import collect_accesses
from repro.ir.build import assign, do, ref
from repro.ir.expr import Const, Max, Min, Var
from repro.ir.stmt import ArrayDecl, Procedure
from repro.ir.visit import substitute
from repro.runtime.interpreter import execute
from tests.properties.domain import Domain

subscript = st.tuples(
    st.integers(min_value=-2, max_value=2),  # coefficient of I
    st.integers(min_value=-2, max_value=2),  # coefficient of J
    st.integers(min_value=-3, max_value=9),  # offset
)


def build_expr(c_i, c_j, off):
    return Const(c_i) * Var("I") + Const(c_j) * Var("J") + Const(off)


#: the J loop's (lo, hi) per Sec. 3 shape, from the coupling offset ``b``,
#: the invariant extent ``m`` and the band width ``k``
SHAPES = {
    "rectangular": lambda b, m, k: (Const(1), Const(m)),
    "triangular-lo": lambda b, m, k: (Var("I") + b, Const(m)),
    "triangular-hi": lambda b, m, k: (Const(1), Var("I") + b),
    "trapezoidal-min": lambda b, m, k: (Const(1), Min((Var("I") + b, Const(m)))),
    "trapezoidal-max": lambda b, m, k: (Max((Var("I") + b, Const(1))), Const(m)),
    "rhomboidal": lambda b, m, k: (Var("I") + b, Var("I") + (b + k)),
    # disjunctive arms: some arm bounds J, the analysis enumerates which
    "min-lower": lambda b, m, k: (Min((Var("I") + b, Const(2))), Const(m)),
    "max-upper": lambda b, m, k: (Const(1), Max((Var("I") + b, Const(m - 2)))),
}


@st.composite
def nests(draw, shapes=("rectangular",)):
    """DO I / DO J / A(w) = A(r1) + A(r2), with random affine subscripts
    and the J loop's bounds drawn from ``shapes``."""
    w = draw(subscript)
    r1 = draw(subscript)
    r2 = draw(subscript)
    n = draw(st.integers(min_value=1, max_value=5))
    m = draw(st.integers(min_value=1, max_value=5))
    lo, hi = SHAPES[draw(st.sampled_from(shapes))](
        draw(st.integers(min_value=-1, max_value=1)), m,
        draw(st.integers(min_value=0, max_value=2)),
    )
    body = assign(
        ref("A", build_expr(*w)),
        ref("A", build_expr(*r1)) + ref("A", build_expr(*r2)),
    )
    return do("I", 1, n, do("J", lo, hi, body)), (w, r1, r2)


@st.composite
def deep_nests(draw):
    """DO I [/ DO J [/ DO L]] with one or two statements per body: ``DO
    I`` steps by 1, 2 or -1, each inner loop takes a ``SHAPES`` shape
    coupled to its parent, and every statement is ``A(w) = A(r1) +
    A(r2)`` with affine subscripts in the loops around it."""
    names = ("I", "J", "L")[: draw(st.integers(min_value=1, max_value=3))]

    def statement(depth):
        def sub():
            e = Const(draw(st.integers(min_value=-3, max_value=9)))
            for v in names[:depth]:
                e = Const(draw(st.integers(min_value=-2, max_value=2))) * Var(v) + e
            return e

        return assign(ref("A", sub()), ref("A", sub()) + ref("A", sub()))

    body = [statement(len(names)) for _ in range(draw(st.integers(min_value=1, max_value=2)))]
    for depth in range(len(names) - 1, 0, -1):
        bounds = SHAPES[draw(st.sampled_from(tuple(SHAPES)))](
            draw(st.integers(min_value=-1, max_value=1)),
            draw(st.integers(min_value=1, max_value=5)),
            draw(st.integers(min_value=0, max_value=2)),
        )
        parent = {"I": Var(names[depth - 1])}
        body = [do(names[depth], *(substitute(e, parent) for e in bounds), *body)]
        side = draw(st.sampled_from((None, "before", "after")))
        if side is not None:
            body.insert(0 if side == "before" else 1, statement(depth))
    n = draw(st.integers(min_value=1, max_value=5))
    step = draw(st.sampled_from((1, 2, -1)))
    return do("I", n, 1, *body, step=-1) if step == -1 else do("I", 1, n, *body, step=step)


def label(kind, sub):
    """Canonical reference label: reads with identical subscript
    expressions are indistinguishable to the analysis, so the oracle must
    not distinguish them either."""
    return (kind, sub)


def enumerate_events(nest, subs):
    """(ref_label, element, is_write, time, (i, j)) for every iteration of
    the nest's actual iteration space, in evaluation order: the two reads,
    then the write."""
    w, r1, r2 = subs
    events = []
    t = 0
    for i, j in Domain.of(nest).points():
        for kind, sub in (("r", r1), ("r", r2), ("w", w)):
            events.append((label(kind, sub), ci_eval(sub, i, j), kind == "w", t, (i, j)))
            t += 1
    return events


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_domain_counts_what_the_interpreter_runs(shape):
    """``len(Domain)`` of every Sec. 3 shape equals the number of times
    the interpreter executes the nest's body."""
    count = ref("C", Const(1))
    for n, b, m, k in itertools.product((1, 3, 5), (-1, 0, 1), (1, 3, 5), (0, 2)):
        lo, hi = SHAPES[shape](b, m, k)
        nest = do("I", 1, n, do("J", lo, hi, assign(count, count + 1.0)))
        proc = Procedure("count", (), (ArrayDecl("C", (Const(1),)),), (nest,))
        brute = execute(proc, {}, arrays={"C": np.zeros(1)})["C"][0]
        assert len(Domain.of(nest)) == brute, (shape, n, b, m, k)


def test_domain_equality_is_by_points():
    body = assign(ref("A", Const(1)), Const(0.0))
    tri = Domain.of(do("I", 1, 4, do("J", Var("I"), 4, body)))
    assert tri == Domain.of(do("I", 1, 4, do("J", Max((Var("I"), Const(1))), 4, body)))
    assert tri != Domain.of(do("I", 1, 4, do("J", 1, 4, body)))


def ci_eval(sub, i, j):
    ci, cj, off = sub
    return ci * i + cj * j + off


def ground_truth_pairs(events):
    """Set of (source_pos, sink_pos) with at least one write touching the
    same element at different times (source first)."""
    pairs = set()
    for k1, (p1, e1, w1, *_) in enumerate(events):
        for p2, e2, w2, *_ in events[k1 + 1 :]:
            if e1 == e2 and (w1 or w2):
                pairs.add((p1, p2))
    return pairs


@settings(max_examples=120, deadline=None)
@given(nests(shapes=tuple(SHAPES)))
def test_analysis_covers_every_real_dependence(case):
    nest, subs = case
    events = enumerate_events(nest, subs)
    truth = ground_truth_pairs(events)

    accs = collect_accesses((nest,))
    # map accesses to oracle labels by matching subscript expressions
    w, r1, r2 = subs
    by_expr = {build_expr(*r1): label("r", r1), build_expr(*r2): label("r", r2)}

    def pos_of(acc):
        if acc.is_write:
            return label("w", w)
        return by_expr[acc.ref.index[0]]

    found = set()
    for i in range(len(accs)):
        for j in range(i, len(accs)):
            for d in dependences_between(accs[i], accs[j]):
                found.add((pos_of(d.source), pos_of(d.sink)))
                # conservative vectors cover both orders
                if any(x == "*" for x in d.direction):
                    found.add((pos_of(d.sink), pos_of(d.source)))

    missing = set()
    for s, k in truth:
        if s == k and (s, k) not in found:
            # self pairs: same textual ref touching one element twice
            missing.add((s, k))
        elif s != k and (s, k) not in found and (k, s) not in found:
            # cross pairs must be covered in at least one orientation —
            # orientation of equal-time textual ordering is checked below
            missing.add((s, k))
    assert not missing, f"analysis missed real dependences: {missing}"


def relation(src: int, snk: int) -> str:
    """Direction entry for a source iteration ``src`` and a sink ``snk``."""
    return "<" if src < snk else "=" if src == snk else ">"


@settings(max_examples=60, deadline=None)
@given(nests(shapes=tuple(SHAPES)))
def test_a_realised_direction_vector_is_never_infeasible(case):
    """Infeasible is a proof, feasible may be conservative: whenever two
    enumerated iterations touch one element, Fourier–Motzkin over the true
    iteration space (bounds lowered arm by arm, context facts of the path)
    must admit their direction vector — exactly, with any entry widened to
    ``*``, and relative to the J loop with I pinned."""
    nest, subs = case
    (inner,) = nest.body
    ctx = context_for_path((nest,), inner)
    acc_of = {}
    for acc in collect_accesses((nest,)):
        kind = "w" if acc.is_write else "r"
        sub = next(s for s in subs if build_expr(*s) == acc.ref.index[0])
        acc_of.setdefault(label(kind, sub), acc)

    realised = set()  # (source label, sink label, I relation, J relation)
    events = enumerate_events(nest, subs)
    for p1, e1, _, _, (i1, j1) in events:
        for p2, e2, _, _, (i2, j2) in events:
            if e1 == e2:
                realised.add((p1, p2, relation(i1, i2), relation(j1, j2)))

    for p1, p2, di, dj in sorted(realised):
        a, b = acc_of[p1], acc_of[p2]
        for dirs in ((di, dj), ("*", dj), (di, "*")):
            assert direction_feasible(a, b, dirs, (nest, inner), ctx), (p1, p2, dirs)
        if di == "=":
            assert direction_feasible(a, b, (dj,), (inner,), ctx, pinned=("I",)), (p1, p2, dj)


@settings(max_examples=60, deadline=None)
@given(nests(shapes=tuple(SHAPES)))
def test_reported_loop_independent_deps_are_textually_ordered(case):
    nest, subs = case
    accs = collect_accesses((nest,))
    for i in range(len(accs)):
        for j in range(i, len(accs)):
            for d in dependences_between(accs[i], accs[j]):
                if d.loop_independent and d.source is not d.sink:
                    assert d.source.position <= d.sink.position
