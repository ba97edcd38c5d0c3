"""Layer 2 of :mod:`repro.check`: transformation-legality findings.

Each legality question is one function, written in the layer that
decides it; a check here *reports* that function's answer as a
diagnostic with a witness and keeps no copy of it:

- **interchange / jam** — the direction-vector rule
  (:func:`repro.transform.interchange.swap_witnesses`: an edge realizable
  with ``(=,...,=,<,>)`` on the (outer, inner) pair, in the true
  iteration space) and the written-bounds rule
  (:func:`~repro.transform.interchange.written_bound`); jam asks
  :func:`repro.transform.unroll_jam.jam_witnesses` for every loop nested
  in each nest the pass would jam (:func:`repro.pipeline.passes.jam_targets`);
- **parallelize** — a ``PARALLEL [REDUCTION] DO`` marker is held to
  :func:`repro.par.detect.classify_loop`'s verdict for its loop;
- **stripmine / block** — unit-step and factor sanity; ``block`` is
  then judged on its *result*: a target with inner loops must have a
  strip loop innermost (``place_strips``, the driver's own count), so
  the check cannot veto a derivation that blocks, and only a refused one
  asks :func:`repro.check.linter.why_not_blockable` why;
- **distribute** — the Allen–Kennedy condition, checked on the *result*:
  statements of one strongly connected component (recurrence) of the
  original statement graph must land in the same piece;
- **split** — pieces must partition the original range: a newly created
  adjacent pair must not *provably* overlap or gap at the meeting
  point ``hi + 1``;
- **if_inspection** — the guarded single-IF body shape
  (:func:`repro.transform.if_inspection.guarded_if`).

The result postchecks (``distribute``, ``split``, ``block``), the
interpreter-vs-codegen verifier and the race sanitizer are the evidence
that does not come from the deciding rule itself.

:func:`precheck` runs on the input procedure before a pass,
:func:`postcheck` on (before, after) once it applied; both return
:class:`~repro.check.diagnostics.Diagnostic` lists and never raise on
illegal input — policy belongs to the caller (`PassManager` in
``--check`` mode raises :class:`~repro.errors.CheckError` on
error-severity findings).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from repro.analysis.commutativity import commutativity_oracle
from repro.analysis.context import context_for_path
from repro.analysis.dependence import all_dependences
from repro.analysis.graph import DependenceGraph, strongly_connected_components
from repro.check.diagnostics import Diagnostic, Severity, counted, diag
from repro.ir.expr import Const
from repro.ir.pretty import fmt_expr, fmt_stmt
from repro.ir.stmt import Loop, ParallelLoop, Procedure
from repro.ir.visit import find_loops, walk_stmts
from repro.obs import core as _obs
from repro.par.detect import PARALLEL, SERIAL, classify_loop, loop_carried
from repro.pipeline.passes import jam_targets, target_loop
from repro.symbolic.assume import Assumptions
from repro.transform.base import fresh_var, non_comment, sole_inner_loop, used_names
from repro.transform.blocking import place_strips
from repro.transform.if_inspection import guarded_if
from repro.transform.interchange import swap_witnesses, written_bound, written_bound_message
from repro.transform.stripmine import unit_step_reason
from repro.transform.unroll_jam import jam_witnesses


def _swap_diag(proc: Procedure, outer: Loop, inner: Loop, dep, rule_id: str) -> Diagnostic:
    """The finding for one swap-rule edge of (outer, inner)."""
    return diag(
        rule_id, f"{proc.name}/DO {outer.var}/DO {inner.var}",
        f"a dependence is realizable with ({outer.var}:<, {inner.var}:>) — "
        f"reordering {outer.var}/{inner.var} iterations reverses it",
        dep.witness(),
    )


# ---------------------------------------------------------------------------
# per-pass prechecks
# ---------------------------------------------------------------------------

def _pre_interchange(proc, ctx, options):
    loop = target_loop(proc, options)[0]
    if loop is None:
        return []
    inner = sole_inner_loop(loop)
    if inner is None:
        return []
    out = []
    bound = written_bound(loop, inner)
    if bound is not None:
        out.append(diag("legal/interchange-bounds", f"{proc.name}/DO {loop.var}",
                        written_bound_message(*bound)))
    local = context_for_path(proc, loop, ctx)
    return out + [
        _swap_diag(proc, loop, inner, dep, "legal/interchange-direction")
        for dep in swap_witnesses(proc, loop, inner, local)
    ]


def _pre_jam(proc, ctx, options):
    """The nests the jam pass would unroll, judged by its own rule."""
    out: list[Diagnostic] = []
    for loop in jam_targets(proc, options):
        try:
            local = context_for_path(proc, loop, ctx)
        except KeyError:
            continue
        out += [
            _swap_diag(proc, loop, inner, dep, "legal/jam-carried-race")
            for inner, dep in jam_witnesses(proc, loop, local)
        ]
    return out


def _pre_stripmine(proc, ctx, options):
    loop = target_loop(proc, options)[0]
    out: list[Diagnostic] = []
    if loop is None:
        return out
    path = f"{proc.name}/DO {loop.var}"
    reason = unit_step_reason(loop)
    if reason is not None:
        out.append(diag("legal/stripmine-step", path, reason))
    factor = options.get("factor", 2)
    if isinstance(factor, int) and factor < 1:
        out.append(diag(
            "legal/stripmine-factor", path, f"factor {factor} < 1",
        ))
    return out


def _pre_ifinsp(proc, ctx, options):
    var = options.get("loop")
    if var is None:
        return []
    loop = next((l for l in find_loops(proc) if l.var == var), None)
    if loop is None or guarded_if(loop) is not None:
        return []
    return [diag(
        "legal/if-inspection-shape", f"{proc.name}/DO {loop.var}",
        "IF-inspection needs a loop body that is a single IF-THEN "
        "without ELSE",
    )]


# ---------------------------------------------------------------------------
# PARALLEL DO marker audit (pre: stale markers in the input; post: markers
# the parallelize pass just planted)
# ---------------------------------------------------------------------------

def _par_marker_violations(proc, ctx) -> list[Diagnostic]:
    """Audit every ``PARALLEL [REDUCTION] DO`` marker in ``proc`` against
    the detector's verdict for its loop: a PARALLEL marker needs a
    PARALLEL verdict, a REDUCTION marker anything but SERIAL."""
    out: list[Diagnostic] = []
    for loop in find_loops(proc):
        if not isinstance(loop, ParallelLoop):
            continue
        deps = all_dependences(proc, context_for_path(proc, loop, ctx))
        v = classify_loop(proc, loop, ctx, deps)
        if loop.kind == PARALLEL and v.verdict != PARALLEL:
            witness = v.witness or next(
                (d.witness() for d in deps if loop_carried(d, loop)), None)
            out.append(diag(
                "legal/par-carried-dep", f"{proc.name}/PARALLEL DO {loop.var}",
                f"marked PARALLEL but the detector says {v.verdict}: {v.reason}",
                witness,
            ))
        elif loop.kind != PARALLEL and v.verdict == SERIAL:
            out.append(diag(
                "legal/par-reduction-shape",
                f"{proc.name}/PARALLEL REDUCTION DO {loop.var}",
                f"marked PARALLEL REDUCTION but the detector says serial: {v.reason}",
                v.witness,
            ))
    return out


def _pre_parallelize(proc, ctx, options):
    return _par_marker_violations(proc, ctx)


def _post_parallelize(before, after, ctx, options):
    return _par_marker_violations(after, ctx)


_PRECHECKS = {
    "interchange": _pre_interchange,
    "jam": _pre_jam,
    "stripmine": _pre_stripmine,
    "block": _pre_stripmine,
    "if_inspection": _pre_ifinsp,
    "parallelize": _pre_parallelize,
}


# ---------------------------------------------------------------------------
# per-pass postchecks
# ---------------------------------------------------------------------------

def _post_distribute(before, after, ctx, options):
    """Allen–Kennedy on the result: each SCC of the original statement
    graph must stay within a single distributed piece."""
    loop = target_loop(before, options)[0]
    if loop is None:
        return []
    local = context_for_path(before, loop, ctx)
    graph = DependenceGraph(before, local)
    drop = None
    if options.get("commutativity"):
        drop = lambda d: commutativity_oracle(before, loop, d)  # noqa: E731
    sg = graph.statement_graph(loop, drop_dep=drop)
    sccs = [sorted(c) for c in strongly_connected_components(sg) if len(c) > 1]
    if not sccs:
        return []
    # where did each original body statement land?
    pieces = [l for l in find_loops(after) if l.var == loop.var]
    out: list[Diagnostic] = []
    for scc in sccs:
        homes = set()
        for k in scc:
            stmt = loop.body[k]
            for pi, piece in enumerate(pieces):
                if any(s == stmt for s in piece.body):
                    homes.add(pi)
                    break
        if len(homes) > 1:
            stmts = "; ".join(fmt_stmt(loop.body[k]) for k in scc)
            out.append(diag(
                "legal/distribution-cycle",
                f"{before.name}/DO {loop.var}",
                f"recurrence statements ({stmts}) were separated into "
                f"{len(homes)} loops — the dependence cycle is broken",
            ))
    return out


def _post_block(before, after, ctx, options):
    """Did a strip loop of a target with inner loops reach the innermost
    position?  The strip loop is found by the name ``strip_mine`` gives it."""
    loop = target_loop(before, options)[0]
    if loop is None or not any(isinstance(s, Loop) for s in walk_stmts(loop.body)):
        return []  # innermost target: blocking is a plain strip-mine, legal
    if place_strips(after, loop.var, fresh_var(loop.var, used_names(before)))[0]:
        return []
    from repro.check.linter import why_not_blockable

    commutativity = bool(options.get("commutativity"))
    reason, witness = why_not_blockable(before, loop, ctx, commutativity)
    return [diag(
        "legal/block-carried-recurrence",
        f"{before.name}/DO {loop.var}",
        f"{reason} (splits budget {int(options.get('max_splits', 6))}, "
        f"commutativity {'on' if commutativity else 'off'})",
        witness,
    )]


def _adjacent_same_var_pairs(proc):
    """(left, right) for every pair of consecutive same-variable loops
    anywhere in ``proc`` — the shape index-set splitting produces."""
    pairs = []
    for host in [proc] + list(find_loops(proc)):
        body = [s for s in non_comment(host.body) if not isinstance(s, str)]
        for s, t in zip(body, body[1:]):
            if isinstance(s, Loop) and isinstance(t, Loop) and s.var == t.var:
                pairs.append((s, t))
    return pairs


def _post_split(before, after, ctx, options):
    """Pieces the split created must partition the original range: each
    piece must have unit step (``left.hi + 1`` is off a strided loop's
    lattice), and a right piece must start at ``left.hi + 1``.  Only
    *provably* wrong
    meeting points are flagged (``compare`` yields a strict inequality
    — overlap or gap); symbolic bounds the assumption context cannot
    order, such as trapezoid MIN/MAX endpoints, stay silent.  Pairs of
    same-variable loops that were already adjacent in the input are not
    pieces of this split and are ignored."""
    var = options.get("loop")
    preexisting = {
        (l.var, l.lo, l.hi, r.lo, r.hi)
        for l, r in _adjacent_same_var_pairs(before)
    }
    out: list[Diagnostic] = []
    for left, right in _adjacent_same_var_pairs(after):
        if var is not None and left.var != var:
            continue
        if (left.var, left.lo, left.hi, right.lo, right.hi) in preexisting:
            continue
        strided = next((p for p in (left, right) if p.step != Const(1)), None)
        if strided is not None:
            out.append(diag(
                "legal/split-partition",
                f"{after.name}/DO {left.var}",
                f"a piece of DO {left.var} has step {fmt_expr(strided.step)}: "
                f"the second piece starts at {fmt_expr(right.lo)}, off the "
                f"original iteration lattice",
            ))
            continue
        if ctx.compare(right.lo, left.hi + Const(1)) in ("<", ">"):
            out.append(diag(
                "legal/split-partition",
                f"{after.name}/DO {left.var}",
                f"pieces of DO {left.var} do not meet: second piece "
                f"starts at {fmt_expr(right.lo)}, first ends at "
                f"{fmt_expr(left.hi)} (overlap or gap)",
            ))
    return out


_POSTCHECKS = {
    "block": _post_block,
    "distribute": _post_distribute,
    "split": _post_split,
    "parallelize": _post_parallelize,
}


# ---------------------------------------------------------------------------
# public surface
# ---------------------------------------------------------------------------

def precheck(
    name: str, proc: Procedure, ctx: Optional[Assumptions] = None,
    options: Optional[dict] = None,
) -> list[Diagnostic]:
    """Is applying pass ``name`` with ``options`` to ``proc`` legal?"""
    fn = _PRECHECKS.get(name)
    if fn is None:
        return []
    with _obs.span(f"check:legality:{name}", cat="check") as args:
        out = counted(fn(proc, ctx or Assumptions(), options or {}))
        args["diagnostics"] = len(out)
    return out


#: Passes that test per-nest legality themselves and *skip* illegal
#: targets rather than transform them (the jam sweep).  In pipeline
#: ``--check`` mode their precheck findings are advisory — the pass
#: declining is correct behaviour, not a miscompile — so error-severity
#: findings are demoted to warnings.
SELF_GUARDING = frozenset({"jam"})


def precheck_for_pipeline(
    name: str, proc: Procedure, ctx: Optional[Assumptions] = None,
    options: Optional[dict] = None,
) -> list[Diagnostic]:
    """Like :func:`precheck`, with self-guarding passes demoted to
    warnings (used by ``PassManager(check=True)``)."""
    out = precheck(name, proc, ctx, options)
    if name in SELF_GUARDING:
        out = [
            replace(d, severity=Severity.WARNING)
            if d.severity == Severity.ERROR else d
            for d in out
        ]
    return out


def postcheck(
    name: str, before: Procedure, after: Procedure,
    ctx: Optional[Assumptions] = None, options: Optional[dict] = None,
) -> list[Diagnostic]:
    """Did pass ``name`` leave structural postconditions intact?"""
    fn = _POSTCHECKS.get(name)
    if fn is None:
        return []
    with _obs.span(f"check:legality:{name}", cat="check") as args:
        out = counted(fn(before, after, ctx or Assumptions(), options or {}))
        args["diagnostics"] = len(out)
    return out
