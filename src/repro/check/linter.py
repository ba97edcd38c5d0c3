"""Layer 3 of :mod:`repro.check`: the blockability linter.

A *static* classifier for the paper's central question — can this loop
nest be blocked? — that never runs a transformation.  The criterion is
the escape analysis distilled from the Sec. 3–5 derivations:

1. An innermost target loop is not blockable: blocking means sinking the
   strip loop below some inner loop, and there is nothing to sink below.
2. Otherwise build the target loop's statement graph (the distribution
   view of :class:`~repro.analysis.graph.DependenceGraph`).  A
   loop-statement *escapes* when distribution followed by index-set
   splitting can isolate it from every dependence cycle it sits in:

   - it is alone in its strongly connected component (distribution
     already isolates it), or
   - a single *carved region* — one section dimension, indexed by one of
     the statement's own inner-loop variables, restricted to its low or
     high side — avoids every incident cycle edge in **one** direction
     (all outgoing or all incoming).  One-directional cross-piece
     dependences do not prevent distribution; they only order the
     pieces, which is exactly what Fig. 3's IndexSetSplit exploits
     (panel columns ``[K, K+KS-1]`` versus trailing columns
     ``[K+KS, N]`` in block LU).

   Scalar flow edges cannot be carved (splitting an index set does not
   separate a scalar), and sections must be computable on both
   endpoints.
3. If no statement escapes under pure dependence reasoning, retry with
   the Sec. 5.2 commutativity oracle dropping recognized
   row-interchange/column-update dependences — LU with partial pivoting
   becomes blockable exactly here.
4. Otherwise the nest is not blockable; the diagnostic names a
   transformation-preventing dependence.

The verdict strings deliberately equal
:class:`repro.blockability.driver.Verdict` values so
``tests/blockability/test_verdicts.py`` can assert the linter and the
transforming driver agree (single source of truth).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import networkx as nx

from repro.analysis.commutativity import commutativity_oracle
from repro.analysis.context import context_for_path
from repro.analysis.graph import DependenceGraph
from repro.analysis.sections import section_of_ref
from repro.check.diagnostics import Diagnostic, diag
from repro.check.legality import swap_witnesses
from repro.errors import AnalysisError
from repro.ir.expr import free_vars
from repro.ir.pretty import fmt_expr
from repro.ir.stmt import Loop, Procedure
from repro.ir.visit import walk_stmts
from repro.obs import core as _obs
from repro.pipeline.cache import scoped as _analysis_cache
from repro.symbolic.assume import Assumptions
from repro.transform.base import sole_inner_loop

#: Verdict strings; equal to ``repro.blockability.driver.Verdict`` values.
BLOCKABLE = "blockable"
BLOCKABLE_WITH_COMMUTATIVITY = "blockable-with-commutativity"
NOT_BLOCKABLE = "not-blockable"

_VERDICT_RULE = {
    BLOCKABLE: "lint/blockable",
    BLOCKABLE_WITH_COMMUTATIVITY: "lint/blockable-with-commutativity",
    NOT_BLOCKABLE: "lint/not-blockable",
}


@dataclass(frozen=True)
class LintResult:
    """Classification of one target loop."""

    procedure: str
    loop_var: str
    verdict: str
    reason: str
    escapes: tuple[str, ...] = ()  #: loop statements that escape the cycle
    preventing: Optional[str] = None  #: named preventing dependence

    def diagnostic(self) -> Diagnostic:
        msg = self.reason
        if self.preventing:
            msg += f"; preventing dependence: {self.preventing}"
        return diag(
            _VERDICT_RULE[self.verdict],
            f"{self.procedure}/DO {self.loop_var}",
            msg,
        )


def _inner_loop_vars(stmt) -> set[str]:
    return {l.var for l in walk_stmts(stmt) if isinstance(l, Loop)}


def _carvable(n, stmt, scc, sg, loop, local, direction) -> bool:
    """Can one carved region (dim indexed by the statement's own inner
    loops, one side) avoid every incident cycle edge in ``direction``?"""
    inner_vars = _inner_loop_vars(stmt)
    pairs = []  # (my endpoint access, other endpoint access)
    for u, v, data in sg.subgraph(scc).edges(data=True):
        if u == v:
            continue
        if direction == "out" and u != n:
            continue
        if direction == "in" and v != n:
            continue
        d = data.get("dep")
        if d is None:
            return False  # scalar flow: splitting index sets cannot carve it
        pairs.append((d.source, d.sink) if u == n else (d.sink, d.source))
    if not pairs:
        return True
    rank = max(len(mine.ref.index) for mine, _ in pairs)
    for dim in range(rank):
        for side in ("lo", "hi"):
            ok = True
            for mine, other in pairs:
                if len(mine.ref.index) <= dim or not (
                    free_vars(mine.ref.index[dim]) & inner_vars
                ):
                    ok = False
                    break
                try:
                    ms = section_of_ref(mine, loop, local)
                    ots = section_of_ref(other, loop, local)
                except AnalysisError:
                    ok = False
                    break
                if ms is None or ots is None or \
                        len(ms.dims) <= dim or len(ots.dims) <= dim:
                    ok = False
                    break
                mt, ot = ms.dims[dim], ots.dims[dim]
                if side == "lo" and local.compare(mt.lo, ot.lo) != "<":
                    ok = False
                    break
                if side == "hi" and local.compare(ot.hi, mt.hi) != "<":
                    ok = False
                    break
            if ok:
                return True
    return False


def _sink_blocked(proc, target, inner, local) -> bool:
    """Is some dependence realizable with direction ``(target:<,
    inner:>)``?  If so the strip of ``target`` cannot legally
    interchange past ``inner``."""
    return next(swap_witnesses(proc, target, inner, local), None) is not None


def _sink_chain(stmt) -> Optional[list]:
    """The loops the strip must interchange past to reach the innermost
    position of ``stmt``, or ``None`` when the nest is too imperfect to
    sink through — an inner loop buried under a conditional or among
    sibling statements cannot receive the strip (the Givens Sec. 5.4
    obstruction: ``DO K`` lives inside ``IF (A(J,L) .NE. 0.0)``)."""
    chain = []
    cur = stmt
    while True:
        chain.append(cur)
        nxt = sole_inner_loop(cur)
        if nxt is not None:
            cur = nxt
            continue
        if any(isinstance(s, Loop) for s in walk_stmts(cur.body)):
            return None
        return chain


def _escaped_loops(
    proc, loop, graph, local, use_commutativity, allow_carve=True
) -> list[Loop]:
    """Loop statements of ``loop.body`` that escape every dependence
    cycle *and* admit the strip loop innermost;
    ``allow_carve=False`` disables the index-set-split region
    argument (distribution only — the ``max_splits=0`` regime)."""
    drop = None
    if use_commutativity:
        drop = lambda d: commutativity_oracle(proc, loop, d)  # noqa: E731
    sg = graph.statement_graph(loop, drop_dep=drop)
    out: list[Loop] = []
    for scc in nx.strongly_connected_components(sg):
        for n in scc:
            stmt = sg.nodes[n]["stmt"]
            if not isinstance(stmt, Loop):
                continue
            escaped = (
                len(scc) == 1
                or (allow_carve and (
                    _carvable(n, stmt, scc, sg, loop, local, "out")
                    or _carvable(n, stmt, scc, sg, loop, local, "in")
                ))
            )
            if not escaped:
                continue
            # Escaping the cycle lets the strip loop *enter* the
            # statement; blocking also needs it to sink to the
            # innermost position — the nest must be perfect enough to
            # sink through, and every interchange on the way down must
            # pass the (<, >) direction-vector rule.
            chain = _sink_chain(stmt)
            if chain is not None and not any(
                _sink_blocked(proc, loop, l, local) for l in chain
            ):
                out.append(stmt)
    return out


def _dep_str(dep) -> str:
    kind = getattr(dep.kind, "value", dep.kind)
    return (
        f"{kind} on {dep.array} ({fmt_expr(dep.source.ref)} -> "
        f"{fmt_expr(dep.sink.ref)}, direction {','.join(dep.direction)})"
    )


def lint_loop(
    proc: Procedure,
    loop: Loop | str,
    ctx: Optional[Assumptions] = None,
    allow_commutativity: bool = True,
) -> LintResult:
    """Classify one target loop; see the module docstring for the rule."""
    from repro.ir.visit import loop_by_var

    if isinstance(loop, str):
        loop = loop_by_var(proc.body, loop)
    with _obs.span("check:lint", cat="check",
                   procedure=proc.name, loop=loop.var) as args, _analysis_cache():
        result = _lint_loop(proc, loop, ctx, allow_commutativity)
        args["verdict"] = result.verdict
        _obs.count(f"check.lint.{result.verdict}")
    return result


def _lint_loop(proc, loop, ctx, allow_commutativity) -> LintResult:
    local = context_for_path(proc, loop, ctx or Assumptions())
    if not any(isinstance(s, Loop) for s in walk_stmts(loop.body)):
        return LintResult(
            proc.name, loop.var, NOT_BLOCKABLE,
            f"DO {loop.var} is innermost — blocking has no inner loop to "
            f"sink the strip below",
        )
    graph = DependenceGraph(proc, local)
    escaped = _escaped_loops(proc, loop, graph, local, use_commutativity=False)
    if escaped:
        return LintResult(
            proc.name, loop.var, BLOCKABLE,
            f"inner loop(s) {', '.join(f'DO {l.var}' for l in escaped)} "
            f"escape every dependence cycle by distribution and "
            f"index-set splitting",
            escapes=tuple(f"DO {l.var} = {fmt_expr(l.lo)}, {fmt_expr(l.hi)}"
                          for l in escaped),
        )
    if allow_commutativity:
        escaped = _escaped_loops(
            proc, loop, graph, local, use_commutativity=True
        )
        if escaped:
            return LintResult(
                proc.name, loop.var, BLOCKABLE_WITH_COMMUTATIVITY,
                f"inner loop(s) "
                f"{', '.join(f'DO {l.var}' for l in escaped)} escape only "
                f"when Sec. 5.2 commutativity drops the "
                f"row-interchange/column-update dependences",
                escapes=tuple(f"DO {l.var} = {fmt_expr(l.lo)}, {fmt_expr(l.hi)}"
                              for l in escaped),
            )
    preventing = graph.preventing_dependences(loop)
    named = _dep_str(preventing[0]) if preventing else None
    return LintResult(
        proc.name, loop.var, NOT_BLOCKABLE,
        f"no inner loop of DO {loop.var} escapes the dependence cycle",
        preventing=named,
    )


def lint_blockability(
    proc: Procedure,
    ctx: Optional[Assumptions] = None,
    allow_commutativity: bool = True,
) -> list[LintResult]:
    """Classify every outermost loop of ``proc``, all under one analysis
    cache (the installed one, e.g. inside ``derive(check=True)``)."""
    with _analysis_cache():
        return [
            lint_loop(proc, s, ctx, allow_commutativity)
            for s in proc.body
            if isinstance(s, Loop)
        ]


# ---------------------------------------------------------------------------
# lint/par-* : loop-parallelism classifications (repro.par detector)
# ---------------------------------------------------------------------------

_PAR_RULE = {
    "parallel": "lint/par-parallel",
    "reduction": "lint/par-reduction",
    "serial": "lint/par-serial",
}


def lint_parallelism(proc: Procedure,
                     ctx: Optional[Assumptions] = None) -> list[Diagnostic]:
    """One ``lint/par-*`` diagnostic per DO loop in ``proc``.

    Thin adapter over :func:`repro.par.detect.classify_procedure`: the
    verdict (PARALLEL / REDUCTION / SERIAL) becomes the rule id, the
    reason becomes the message, and a SERIAL verdict's witness names the
    blocking dependence edge and its direction vector.
    """
    from repro.par.detect import classify_procedure

    out = []
    with _obs.span(f"lint:par:{proc.name}", cat="check"):
        for v in classify_procedure(proc, ctx):
            msg = v.reason
            if v.witness:
                w = v.witness
                if "array" in w:
                    msg += (
                        f"; witness: {w['kind']} dependence on {w['array']} "
                        f"({w['source']} -> {w['sink']}, "
                        f"direction {'/'.join(w['direction'])})"
                    )
                elif "scalar" in w:
                    msg += f"; witness: scalar recurrence on {w['scalar']}"
                elif "ops" in w:
                    msg += (
                        "; witness: non-commuting accumulation operators "
                        f"{{{', '.join(w['ops'])}}}"
                    )
            if v.reductions:
                msg += f"; accumulators: {', '.join(v.reductions)}"
            path = "/".join(v.path)
            out.append(diag(_PAR_RULE[v.verdict],
                            f"{proc.name}/DO {path}", msg))
    return out
