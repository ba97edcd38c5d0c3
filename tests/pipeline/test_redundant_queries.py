"""Each symbolic question is answered once — counted, not timed.

Before the memoising ``Assumptions`` one cold ``derive("lu_pivot")``
made 120 146 bound evaluations for 742 distinct questions and 15 490
range evaluations for 72; these pin evaluations == distinct questions.
Before the integer-first ``Affine`` the same derivation built 511 230
``Fraction`` objects (lu_nopivot: 85 686, 103 954 with its lint verdict)
for rationals that never occurred; the last test pins that count.
Before the relative-dependence memo one cold ``derive("lu_pivot")``
asked for a loop's relative dependences 40 times and computed them each
time, for 8 distinct (loop, context facts) pairs (lu_nopivot: 8 for 3);
since ``distribute`` builds one statement graph and asks it everything,
it asks 24 times (lu_nopivot: 3).
"""

from fractions import Fraction

import pytest

from repro.analysis import graph, sections
from repro.check import lint_blockability
from repro.pipeline import AnalysisCache, derive
from repro.pipeline.workloads import get_workload
from repro.symbolic.affine import Affine
from repro.symbolic.assume import Assumptions


def test_derive_evaluates_each_bound_and_range_question_once(monkeypatch):
    bounds, ranges = [], []
    alive = []  # the contexts asked: ids must stay distinct while we count
    real_bounds = Assumptions._const_bounds
    real_range = sections._expr_range_uncached

    def const_bounds(self, aff, want_upper, depth, seen):
        if not seen:  # a root evaluation, not a step of the substitution
            alive.append(self)
            bounds.append((id(self), self.facts_key(), want_upper, aff))
        return real_bounds(self, aff, want_upper, depth, seen)

    def expr_range(e, rngs, ctx):
        alive.append(ctx)
        ranges.append((id(ctx), ctx.facts_key(), e, tuple(rngs.items())))
        return real_range(e, rngs, ctx)

    monkeypatch.setattr(Assumptions, "_const_bounds", const_bounds)
    monkeypatch.setattr(sections, "_expr_range_uncached", expr_range)
    derive("lu_nopivot", cache=AnalysisCache())

    assert len(bounds) > 50 and len(ranges) > 10  # the wrappers saw the work
    assert len(bounds) == len(set(bounds))
    assert len(ranges) == len(set(ranges))


def test_derive_and_its_verdict_construct_no_fraction(monkeypatch):
    """Subscripts and bounds are integers: only a division by a coefficient
    other than ±1 may make a ``Fraction``, and block LU has none.  A count,
    so a reintroduced ``Fraction`` fails in seconds, not as a timing."""
    made = []
    real = Fraction.__new__

    def counting(cls, *args, **kwargs):
        made.append(args)
        return real(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    derive("lu_nopivot", cache=AnalysisCache())
    w = get_workload("lu_nopivot")
    lint_blockability(w.build(), w.context(None))
    assert made == []  # at most 100 is the budget; 0 is what was found
    # and the wrapper does count: a rational appears exactly where asked for
    assert type((Affine.variable("I") * Fraction(1, 2)).coeff("I")) is Fraction
    assert made


@pytest.mark.parametrize("name, asked, pairs", [("lu_nopivot", 3, 3), ("lu_pivot", 24, 8)])
def test_derive_computes_each_loops_relative_deps_once(name, asked, pairs, monkeypatch):
    """Distribution, IndexSetSplit's preventing edges and the
    commutativity retry all ask for the statement graph of the same
    strip loop: the memo computes it once per (loop id, facts_key)."""
    asks, computed, alive = [], [], []
    real_ask = graph.DependenceGraph.relative_deps
    real_compute = graph._relative_deps_uncached

    def ask(self, loop):
        asks.append(1)
        return real_ask(self, loop)

    def compute(loop, ctx):
        alive.append(loop)
        computed.append((id(loop), ctx.facts_key()))
        return real_compute(loop, ctx)

    monkeypatch.setattr(graph.DependenceGraph, "relative_deps", ask)
    monkeypatch.setattr(graph, "_relative_deps_uncached", compute)
    derive(name, cache=AnalysisCache())
    assert len(asks) == asked
    assert len(computed) == len(set(computed)) == pairs
