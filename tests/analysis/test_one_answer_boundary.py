"""One answer per iteration-space question: each of these was answered by
several pasted copies (three bound lowerings, four swap rules, six searches
for a region loop in ``acc.loops``); the boundary tests keep it at one per
layer."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

import repro
from repro.analysis.refs import collect_accesses
from repro.ir.build import assign, do, ref
from repro.ir.expr import Var
from repro.ir.stmt import ArrayDecl, Procedure
from repro.pipeline.passes import get_pass
from repro.transform.interchange import interchange
from repro.transform.unroll_jam import triangular_unroll_jam, unroll_and_jam

SRC = Path(repro.__file__).parent


def hits(pattern: str) -> dict[str, int]:
    """``{module: count}`` of regex matches over the source tree."""
    out = {}
    for path in SRC.rglob("*.py"):
        n = len(re.findall(pattern, path.read_text(encoding="utf-8")))
        if n:
            out[path.relative_to(SRC).as_posix()] = n
    return out


def test_bounds_are_lowered_to_constraints_once():
    assert hits(r"def _bound_constraints") == {"analysis/feasibility.py": 1}
    # ... over the one MIN/MAX arm walk, which the loop-fact context shares
    assert hits(r"\bbound_arms\(") == {"analysis/context.py": 2, "analysis/feasibility.py": 1}
    assert "analysis/feasibility.py" not in hits(r"\b(Min|Max)\b")


def test_one_swap_rule_per_layer():
    # transform/ decides; check/ re-derives it independently, on purpose
    assert hits(r"dirs\[p\], dirs\[q\]") == {
        "transform/interchange.py": 1, "check/legality.py": 1,
    }


def test_the_region_loop_is_searched_for_in_one_place():
    # RefAccess.loops_from is the only walk of an access's loop stack; the
    # two others walk a Dependence's common loops (the carried-at-level
    # test, one copy in par/ and check/'s own)
    assert hits(r"enumerate\([\w.]*\bloops\)") == {
        "analysis/refs.py": 1, "par/detect.py": 1, "check/legality.py": 1,
    }
    assert hits(r"enumerate\(dep\.loops\)") == {"par/detect.py": 1, "check/legality.py": 1}
    assert hits(r"\.loops_from\(").keys() == {
        "analysis/sections.py", "analysis/dependence.py", "analysis/graph.py",
        "analysis/reuse.py", "transform/index_set_split.py",
    }


def test_memo_dispatch_is_written_once():
    # hook-or-compute, observed-or-not: no analysis calls its own memo hook
    # (sections' unobserved one aside), the three observed ones go through
    # memo_query
    assert {m: n for m, n in hits(r"_memo_hook\(").items() if m.startswith("analysis/")} == {
        "analysis/sections.py": 1,
    }
    assert hits(r"memo_query\(") == {"analysis/feasibility.py": 3, "analysis/dependence.py": 1}


def nest():
    inner = do("J", 1, "N", assign(ref("A", "I", "J"), ref("A", "I", "J") + 1.0))
    outer = do("I", 1, "N", inner)
    return Procedure("p", ("N",), (ArrayDecl("A", (Var("N"), Var("N"))),), (outer,)), outer


@pytest.mark.parametrize("transform, args", [
    (interchange, ()), (unroll_and_jam, (2,)), (triangular_unroll_jam, (2,)),
])
def test_legality_cannot_be_bypassed(transform, args):
    proc, outer = nest()
    with pytest.raises(TypeError, match="check"):
        transform(proc, outer, *args, check=False)


def test_the_interchange_pass_has_no_check_option():
    assert get_pass("interchange").info.options == ("loop",)


def test_bound_refs_are_not_an_option():
    proc, _ = nest()
    with pytest.raises(TypeError, match="include_bound_refs"):
        collect_accesses(proc, include_bound_refs=True)
