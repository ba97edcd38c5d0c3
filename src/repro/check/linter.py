"""Layer 3 of :mod:`repro.check`: the blockability linter.

A *static* classifier for the paper's central question — can this loop
nest be blocked? — that never runs a transformation.  The criterion is
the escape analysis distilled from the Sec. 3–5 derivations:

1. A target loop with a non-unit step is not blockable: blocking
   strip-mines it, which needs step 1.  Nor is an innermost one:
   blocking means sinking the strip loop below some inner loop, and
   there is nothing to sink below.
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
4. Otherwise the nest is not blockable.  The reason names the predicate
   that failed and the witness what it blames: the statement an
   imperfect nest buries its inner loop under, the ``(<, >)`` edge an
   interchange on the way down would reverse, or — when no inner loop
   escapes the cycle at all — a transformation-preventing dependence.

This is the one verdict: the ``block`` pass derives the program, and
``tests/check/test_lint_is_block.py`` holds the two to the same answer —
``blockable`` when a strip loop reaches the innermost position on
dependences alone, ``blockable-with-commutativity`` when it needs the
oracle.  When the checked ``block`` pass finds its result unblocked, its
finding explains why with :func:`why_not_blockable`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.analysis.commutativity import commutativity_oracle
from repro.analysis.context import context_for_path
from repro.analysis.graph import DependenceGraph, strongly_connected_components
from repro.analysis.sections import section_of_ref
from repro.check.diagnostics import Diagnostic, diag
from repro.errors import AnalysisError
from repro.ir.expr import free_vars
from repro.ir.pretty import fmt_stmt
from repro.ir.stmt import Loop, Procedure
from repro.ir.visit import walk_stmts
from repro.obs import core as _obs
from repro.pipeline.cache import scoped as _analysis_cache
from repro.symbolic.assume import Assumptions
from repro.transform.base import non_comment, sole_inner_loop
from repro.transform.interchange import swap_witnesses
from repro.transform.stripmine import unit_step_reason

#: The Sec. 5 taxonomy; the suffixes of the ``lint/*`` verdict rules.
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
    #: witness of what prevents blocking: an edge or the obstructing statement
    preventing: Optional[dict] = None

    def diagnostic(self) -> Diagnostic:
        return diag(
            _VERDICT_RULE[self.verdict],
            f"{self.procedure}/DO {self.loop_var}",
            self.reason,
            self.preventing,
        )


def _inner_loop_vars(stmt) -> set[str]:
    return {l.var for l in walk_stmts(stmt) if isinstance(l, Loop)}


def _carvable(n, stmt, scc, sg, loop, local, direction) -> bool:
    """Can one carved region (dim indexed by the statement's own inner
    loops, one side) avoid every incident cycle edge in ``direction``?"""
    inner_vars = _inner_loop_vars(stmt)
    pairs = []  # (my endpoint access, other endpoint access)
    for u, v, data in sg.edges():
        if u == v or u not in scc or v not in scc:
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


def _sink_obstacle(proc, target, stmt, local) -> Optional[tuple[str, dict]]:
    """(reason, witness) why the strip of ``target`` cannot sink to the
    innermost position of ``stmt``, or None when it can: an inner loop
    buried under a conditional or among siblings (Givens, Sec. 5.4:
    ``DO K`` lives inside ``IF (A(J,L) .NE. 0.0)``) names that statement;
    a ``(<, >)`` interchange on the way down names the edge it reverses."""
    chain = [stmt]
    while (nxt := sole_inner_loop(chain[-1])) is not None:
        chain.append(nxt)
    body = non_comment(chain[-1].body)
    if any(isinstance(s, Loop) for s in walk_stmts(body)):
        at = next((s for s in body if not isinstance(s, Loop)), body[-1])
        return (f"DO {stmt.var} escapes every dependence cycle, but the nest "
                f"under it is too imperfect for the strip of DO {target.var} "
                f"to sink through", {"kind": "imperfect-nest", "stmt": fmt_stmt(at)})
    for inner in chain:
        dep = next(swap_witnesses(proc, target, inner, local), None)
        if dep is not None:
            return (f"DO {stmt.var} escapes every dependence cycle, but the strip "
                    f"of DO {target.var} cannot interchange past DO {inner.var}",
                    dep.witness())
    return None


def _escaped_loops(proc, loop, graph, local, use_commutativity):
    """Loop statements of ``loop.body`` that escape every dependence
    cycle *and* admit the strip loop innermost, and the first
    :func:`_sink_obstacle` of one that only escapes the cycle (or None)."""
    drop = None
    if use_commutativity:
        drop = lambda d: commutativity_oracle(proc, loop, d)  # noqa: E731
    sg = graph.statement_graph(loop, drop_dep=drop)
    out: list[Loop] = []
    obstacle = None
    for scc in strongly_connected_components(sg):
        for n in scc:
            stmt = sg.body[n]
            if not isinstance(stmt, Loop):
                continue
            escaped = (
                len(scc) == 1
                or _carvable(n, stmt, scc, sg, loop, local, "out")
                or _carvable(n, stmt, scc, sg, loop, local, "in")
            )
            if not escaped:
                continue
            # Escaping the cycle lets the strip loop *enter* the
            # statement; blocking also needs it to sink to the
            # innermost position.
            why = _sink_obstacle(proc, loop, stmt, local)
            if why is None:
                out.append(stmt)
            elif obstacle is None:
                obstacle = why
    return out, obstacle


def why_not_blockable(
    proc: Procedure, loop: Loop, ctx: Assumptions, allow_commutativity: bool
) -> tuple[str, Optional[dict]]:
    """Why the ``block`` pass left no strip loop of ``loop`` innermost, as
    the checked pass reports it: the linter's reason and witness when it
    says not-blockable too, else ``loop``'s first transformation-preventing
    edge (its first dependence when no cycle has one).  Only a refused
    ``block`` asks, so a clean checked run does no analysis for it."""
    result = _lint_loop(proc, loop, ctx, allow_commutativity)
    if result.verdict == NOT_BLOCKABLE:
        return result.reason, result.preventing
    graph = DependenceGraph(proc, context_for_path(proc, loop, ctx))
    deps = graph.preventing_dependences(loop) or graph.relative_deps(loop)
    return (f"no strip loop of DO {loop.var} reached the innermost position",
            deps[0].witness() if deps else None)


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
    reason = unit_step_reason(loop)
    if reason is not None:
        return LintResult(proc.name, loop.var, NOT_BLOCKABLE, reason)
    local = context_for_path(proc, loop, ctx or Assumptions())
    if not any(isinstance(s, Loop) for s in walk_stmts(loop.body)):
        return LintResult(
            proc.name, loop.var, NOT_BLOCKABLE,
            f"DO {loop.var} is innermost — blocking has no inner loop to "
            f"sink the strip below",
        )
    graph = DependenceGraph(proc, local)
    escaped, obstacle = _escaped_loops(proc, loop, graph, local, use_commutativity=False)
    if escaped:
        return LintResult(
            proc.name, loop.var, BLOCKABLE,
            f"inner loop(s) {', '.join(f'DO {l.var}' for l in escaped)} "
            f"escape every dependence cycle by distribution and "
            f"index-set splitting",
            escapes=tuple(fmt_stmt(l) for l in escaped),
        )
    if allow_commutativity:
        escaped, obstacle = _escaped_loops(
            proc, loop, graph, local, use_commutativity=True
        )
        if escaped:
            return LintResult(
                proc.name, loop.var, BLOCKABLE_WITH_COMMUTATIVITY,
                f"inner loop(s) "
                f"{', '.join(f'DO {l.var}' for l in escaped)} escape only "
                f"when Sec. 5.2 commutativity drops the "
                f"row-interchange/column-update dependences",
                escapes=tuple(fmt_stmt(l) for l in escaped),
            )
    if obstacle is None:
        preventing = graph.preventing_dependences(loop)
        obstacle = (f"no inner loop of DO {loop.var} escapes the dependence cycle",
                    preventing[0].witness() if preventing else None)
    reason, witness = obstacle
    return LintResult(proc.name, loop.var, NOT_BLOCKABLE, reason, preventing=witness)


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
    reason becomes the message, and a SERIAL verdict's witness becomes
    the diagnostic's.
    """
    from repro.par.detect import classify_procedure

    out = []
    with _obs.span(f"lint:par:{proc.name}", cat="check"):
        for v in classify_procedure(proc, ctx):
            msg = v.reason
            if v.reductions:
                msg += f"; accumulators: {', '.join(v.reductions)}"
            out.append(diag(_PAR_RULE[v.verdict],
                            f"{proc.name}/DO {'/'.join(v.path)}", msg, v.witness))
    return out
