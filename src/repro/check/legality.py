"""Layer 2 of :mod:`repro.check`: independent transformation-legality
predicates.

Each registered pipeline pass gets a legality predicate *re-derived from
first principles* on :mod:`repro.analysis.dependence` /
:mod:`repro.analysis.feasibility` — deliberately not calling the
transform's own guard code, so a bug there (a guard accidentally
weakened, a missed direction vector) is caught by redundancy:

- **interchange / jam** — the direction-vector rule: the swap (or the
  fusion of unrolled outer iterations) is illegal exactly when some
  dependence is realizable with direction ``(=,...,=,<,>)`` on the
  (outer, inner) pair, tested in the true iteration space
  (Fourier–Motzkin, bounds included);
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
- **if_inspection** — the inspector/executor split needs the guarded
  single-IF body shape.

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
from repro.analysis.dependence import Dependence, DependenceKind
from repro.analysis.feasibility import direction_feasible
from repro.analysis.graph import DependenceGraph, strongly_connected_components
from repro.analysis.refs import collect_accesses
from repro.check.diagnostics import Diagnostic, Severity, counted, diag
from repro.ir.expr import Const, Var, free_vars
from repro.ir.pretty import fmt_expr, fmt_stmt
from repro.ir.stmt import Assign, If, Loop, Procedure
from repro.ir.visit import find_loops, walk_stmts
from repro.obs import core as _obs
from repro.pipeline.passes import target_loop
from repro.symbolic.assume import Assumptions
from repro.transform.base import fresh_var, non_comment, sole_inner_loop, used_names
from repro.transform.blocking import place_strips


# ---------------------------------------------------------------------------
# the (<, >) direction-vector rule, shared by interchange and jam
# ---------------------------------------------------------------------------

def swap_witnesses(proc: Procedure, outer: Loop, inner: Loop, ctx: Assumptions):
    """Yield, for every access pair under ``inner`` with a dependence
    realizable as ``(=,...,=,<,>)`` at (outer, inner), that edge (entries
    the rule leaves open are ``*``).  Lazy, so the linter can stop at the
    first."""
    accs = [a for a in collect_accesses(proc) if any(l is inner for l in a.loops)]
    for i in range(len(accs)):
        for j in range(i, len(accs)):
            a, b = accs[i], accs[j]
            if a.array != b.array or not (a.is_write or b.is_write):
                continue
            common = a.common_loops(b)
            try:
                p = next(k for k, l in enumerate(common) if l is outer)
                q = next(k for k, l in enumerate(common) if l is inner)
            except StopIteration:
                continue
            dirs = ["*"] * len(common)
            for k in range(p):
                dirs[k] = "="
            dirs[p], dirs[q] = "<", ">"
            if direction_feasible(a, b, dirs, common, ctx):
                src, snk = a, b
            elif a is not b and direction_feasible(b, a, dirs, common, ctx):
                src, snk = b, a
            else:
                continue
            yield Dependence(
                src, snk, DependenceKind.of(src.is_write, snk.is_write), common,
                tuple(0 if d == "=" else None for d in dirs), tuple(dirs),
            )


def _swap_violations(
    proc: Procedure, outer: Loop, inner: Loop, ctx: Assumptions, rule_id: str
) -> list[Diagnostic]:
    """One diagnostic per :func:`swap_witnesses` edge."""
    path = f"{proc.name}/DO {outer.var}/DO {inner.var}"
    return [
        diag(
            rule_id, path,
            f"a dependence is realizable with ({outer.var}:<, "
            f"{inner.var}:>) — reordering {outer.var}/{inner.var} "
            f"iterations reverses it",
            dep.witness(),
        )
        for dep in swap_witnesses(proc, outer, inner, ctx)
    ]


def _bounds_written(proc: Procedure, outer: Loop, inner: Loop) -> list[Diagnostic]:
    written = {
        s.target.name
        for s in walk_stmts(outer)
        if isinstance(s, Assign) and isinstance(s.target, Var)
    }
    out = []
    for e in (outer.lo, outer.hi, inner.lo, inner.hi):
        clash = free_vars(e) & written
        if clash:
            out.append(diag(
                "legal/interchange-bounds",
                f"{proc.name}/DO {outer.var}",
                f"loop bound {fmt_expr(e)} uses scalars written in the "
                f"nest: {sorted(clash)}",
            ))
    return out


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
    local = context_for_path(proc, loop, ctx)
    return _bounds_written(proc, loop, inner) + _swap_violations(
        proc, loop, inner, local, "legal/interchange-direction"
    )


def _pre_jam(proc, ctx, options):
    var = options.get("loop")
    out: list[Diagnostic] = []
    for loop in find_loops(proc):
        if var is not None and loop.var != var:
            continue
        inner = sole_inner_loop(loop)
        if inner is None:
            continue
        try:
            local = context_for_path(proc, loop, ctx)
        except KeyError:
            continue
        out += _swap_violations(proc, loop, inner, local, "legal/jam-carried-race")
    return out


def _pre_stripmine(proc, ctx, options):
    loop = target_loop(proc, options)[0]
    out: list[Diagnostic] = []
    if loop is None:
        return out
    path = f"{proc.name}/DO {loop.var}"
    if loop.step != Const(1):
        out.append(diag(
            "legal/stripmine-step", path,
            f"step is {fmt_expr(loop.step)}, strip-mining needs 1",
        ))
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
    if loop is None:
        return []
    body = non_comment(loop.body)
    if len(body) == 1 and isinstance(body[0], If) and not body[0].els:
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

def _par_carried(dep, loop) -> bool:
    """Re-derived carried-at-level test (mirrors, but does not call, the
    detector's criterion): the direction entry at ``loop`` admits two
    distinct iterations while every outer entry admits equality."""
    for j, l in enumerate(dep.loops):
        if l is loop:
            return dep.direction[j] != "=" and all(
                d in ("=", "*") for d in dep.direction[:j]
            )
    return False


def _par_marker_violations(proc, ctx) -> list[Diagnostic]:
    """Audit every ``PARALLEL [REDUCTION] DO`` marker in ``proc``.

    The dependence set is re-derived here from
    :func:`repro.analysis.dependence.all_dependences` — deliberately not
    through :mod:`repro.par.detect` — so a detector bug that plants a wrong
    marker is caught by redundancy, per this module's charter.
    """
    from repro.analysis.commutativity import (
        accumulations_commute,
        match_reduction_update,
    )
    from repro.analysis.dependence import all_dependences
    from repro.analysis.graph import _scalars_written, _upward_exposed_scalars
    from repro.ir.stmt import ParallelLoop

    out: list[Diagnostic] = []
    for loop in find_loops(proc):
        if not isinstance(loop, ParallelLoop):
            continue
        local = context_for_path(proc, loop, ctx)
        carried = [d for d in all_dependences(proc, local) if _par_carried(d, loop)]
        loop_vars = {l.var for l in walk_stmts(loop) if isinstance(l, Loop)}
        hazards = sorted(
            (_scalars_written(walk_stmts(loop)) & _upward_exposed_scalars(loop)) - loop_vars
        )
        kw = "PARALLEL DO" if loop.kind == "parallel" else "PARALLEL REDUCTION DO"
        path = f"{proc.name}/{kw} {loop.var}"
        if loop.kind == "parallel":
            if carried:
                out.append(diag(
                    "legal/par-carried-dep", path,
                    "marked PARALLEL but carries a dependence across "
                    "iterations", carried[0].witness(),
                ))
            elif hazards:
                out.append(diag(
                    "legal/par-carried-dep", path,
                    f"marked PARALLEL but scalar(s) {', '.join(hazards)} are "
                    "written and read across iterations",
                ))
            continue
        # reduction marker: every carried endpoint must be a commutative
        # accumulation of the touched location, with mutually commuting ops
        ops: list[str] = []
        for dep in carried:
            for end in (dep.source, dep.sink):
                red = match_reduction_update(end.stmt)
                if red is None or end.ref != red.target:
                    out.append(diag(
                        "legal/par-reduction-shape", path,
                        "a carried dependence is not absorbed by an "
                        "acc = acc op term accumulation", dep.witness(),
                    ))
                    break
                ops.append(red.op)
            else:
                continue
            break
        else:
            for name in hazards:
                writes = [
                    s for s in walk_stmts(loop)
                    if isinstance(s, Assign)
                    and isinstance(s.target, Var) and s.target.name == name
                ]
                reds = [match_reduction_update(s) for s in writes]
                if any(r is None for r in reds):
                    out.append(diag(
                        "legal/par-reduction-shape", path,
                        f"scalar {name} is carried across iterations by a "
                        "non-accumulation write",
                    ))
                    break
                ops.extend(r.op for r in reds)
            else:
                if any(
                    not accumulations_commute(a, b)
                    for i, a in enumerate(ops) for b in ops[i + 1:]
                ):
                    out.append(diag(
                        "legal/par-reduction-shape", path,
                        f"accumulation operators {sorted(set(ops))} do not "
                        "commute with each other",
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
