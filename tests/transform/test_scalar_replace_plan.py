"""Scalar replacement plans every innermost loop from one walk.

``scalar_replace`` collects the accesses once, consumes one set of taken
names in loop order, and answers an alias question with the exact
constant-offset test before it asks Fourier–Motzkin.  Two pins hold that
in place:

- ``scalar_replace_table.json`` is what the per-loop implementation it
  replaced produced for conv, aconv and matmul at every unroll factor the
  tests use: the derived program's fingerprint and every
  ``ReplacementReport``.  The planner must reproduce it exactly, names of
  the temporaries included.
- the cold ``direction``/``feasibility`` miss counts: counted, not timed.
  The per-loop version asked 52/28 (conv), 26/14 (aconv) and 1/1 (matmul);
  48 of conv's 52 direction queries compared subscripts a nonzero constant
  apart.
"""

import json
from pathlib import Path

import pytest

from repro.ir.expr import ArrayRef
from repro.ir.fingerprint import ir_fingerprint
from repro.ir.pretty import fmt_expr
from repro.pipeline import AnalysisCache, derive

TABLE = json.loads((Path(__file__).parent / "scalar_replace_table.json").read_text())


def render(reports) -> list[str]:
    return [
        f"{r.loop_var}: " + " ".join(fmt_expr(ArrayRef(a, idx)) for a, idx in r.replaced)
        for r in reports
    ]


@pytest.mark.parametrize("case", sorted(TABLE))
def test_the_plan_reproduces_the_committed_table(case):
    name, unroll = case.split("/")
    result = derive(name, unroll=int(unroll), cache=AnalysisCache())
    assert ir_fingerprint(result.procedure) == TABLE[case]["fingerprint"]
    assert render(result.artifact("scalars")) == TABLE[case]["reports"]


@pytest.mark.parametrize("name, direction, feasibility", [
    ("conv", 4, 4), ("aconv", 2, 2), ("matmul", 1, 1),
])
def test_a_cold_derive_asks_fm_only_what_the_offset_test_cannot_answer(
    name, direction, feasibility
):
    cache = AnalysisCache()
    derive(name, cache=cache)
    stats = cache.stats()
    assert (stats["direction"]["misses"], stats["feasibility"]["misses"]) == (
        direction, feasibility)
