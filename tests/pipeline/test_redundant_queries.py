"""Each symbolic question is answered once — counted, not timed.

Before the memoising ``Assumptions`` one cold ``derive("lu_pivot")``
made 120 146 bound evaluations for 742 distinct questions and 15 490
range evaluations for 72; these pin evaluations == distinct questions.
"""

from repro.analysis import sections
from repro.pipeline import AnalysisCache, derive
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
