"""One answer per iteration-space question: each of these was answered by
several pasted copies (three bound lowerings, four swap rules, six searches
for a region loop in ``acc.loops``); the boundary tests keep it at one, in
the layer that decides it."""

from __future__ import annotations

import ast
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
    # transform/ decides; check/ and the linter ask its swap_witnesses
    assert hits(r"dirs\[p\], dirs\[q\]") == {"transform/interchange.py": 1}


def test_the_region_loop_is_searched_for_in_one_place():
    # RefAccess.loops_from is the only walk of an access's loop stack; the
    # other walks a Dependence's common loops (the carried-at-level test,
    # par/'s loop_carried, which the marker audit in check/ asks)
    assert hits(r"enumerate\([\w.]*\bloops\)") == {
        "analysis/refs.py": 1, "par/detect.py": 1,
    }
    assert hits(r"enumerate\(dep\.loops\)") == {"par/detect.py": 1}
    assert hits(r"\.loops_from\(").keys() == {
        "analysis/sections.py", "analysis/dependence.py", "analysis/graph.py",
        "analysis/reuse.py", "transform/index_set_split.py",
    }


def test_memo_dispatch_is_written_once():
    # hook-or-compute, observed-or-not: every analysis query, the section
    # query included, goes through memo_query
    assert hits(r"memo_query\(") == {
        "analysis/feasibility.py": 3, "analysis/dependence.py": 1,
        "analysis/graph.py": 1, "analysis/sections.py": 1,
    }


def test_analysis_is_memoized_through_one_hook():
    # one module slot holds the installed cache ...
    slots = hits(r"(?m)^_\w*(?:memo|hook)\w* = None")
    assert slots == {"analysis/feasibility.py": 1}
    # ... memo_query is its only reader (install/uninstall write it) ...
    readers = set()
    for path in SRC.rglob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(fn):
                    name = getattr(node, "id", None) or getattr(node, "attr", None)
                    if name == "_memo_cache" and isinstance(node.ctx, ast.Load):
                        readers.add((path.relative_to(SRC).as_posix(), fn.name))
    assert readers == {("analysis/feasibility.py", "memo_query")}
    # ... and every memo is a plain dict under one bound, not an LRU
    assert "OrderedDict" not in (SRC / "pipeline" / "cache.py").read_text(encoding="utf-8")


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
