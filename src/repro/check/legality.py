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
- **stripmine / block** — unit-step and factor sanity; for ``block``
  additionally the Sec. 3/5 resolution argument (shared with the
  linter's escape analysis): some inner loop of the target must escape
  every dependence cycle by distribution plus index-set splitting
  (when the split budget allows) or commutativity knowledge;
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

from typing import Optional

from repro.analysis.commutativity import commutativity_oracle
from repro.analysis.context import context_for_path
from repro.analysis.feasibility import direction_feasible
from repro.analysis.graph import DependenceGraph
from repro.analysis.refs import collect_accesses
from repro.check.diagnostics import Diagnostic, Severity, diag
from repro.ir.expr import Const, Var, free_vars
from repro.ir.pretty import fmt_expr
from repro.ir.stmt import Assign, If, Loop, Procedure
from repro.ir.visit import find_loops, walk_stmts
from repro.obs import core as _obs
from repro.symbolic.assume import Assumptions
from repro.transform.base import non_comment, sole_inner_loop

import networkx as nx


def _target_loop(proc: Procedure, options: dict) -> Optional[Loop]:
    var = options.get("loop")
    loops = find_loops(proc)
    if var is None:
        return loops[0] if loops else None
    return next((l for l in loops if l.var == var), None)


def _dep_str(dep) -> str:
    kind = getattr(dep.kind, "value", dep.kind)
    return (
        f"{kind} dependence on {dep.array} "
        f"({fmt_expr(dep.source.ref)} -> {fmt_expr(dep.sink.ref)}, "
        f"direction {','.join(dep.direction)})"
    )


# ---------------------------------------------------------------------------
# the (<, >) direction-vector rule, shared by interchange and jam
# ---------------------------------------------------------------------------

def swap_witnesses(proc: Procedure, outer: Loop, inner: Loop, ctx: Assumptions):
    """Yield the array of every access pair under ``inner`` with a
    dependence realizable as ``(=,...,=,<,>)`` at (outer, inner).  Lazy, so
    the linter can stop at the first."""
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
            if direction_feasible(a, b, dirs, common, ctx) or (
                a is not b and direction_feasible(b, a, dirs, common, ctx)
            ):
                yield a.array


def _swap_violations(
    proc: Procedure, outer: Loop, inner: Loop, ctx: Assumptions, rule_id: str
) -> list[Diagnostic]:
    """One diagnostic per :func:`swap_witnesses` pair."""
    path = f"{proc.name}/DO {outer.var}/DO {inner.var}"
    return [
        diag(
            rule_id, path,
            f"dependence on {array} is realizable with "
            f"({outer.var}:<, {inner.var}:>) — reordering "
            f"{outer.var}/{inner.var} iterations reverses it",
        )
        for array in swap_witnesses(proc, outer, inner, ctx)
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
    loop = _target_loop(proc, options)
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
    loop = _target_loop(proc, options)
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


def _pre_block(proc, ctx, options):
    out = _pre_stripmine(proc, ctx, options)
    loop = _target_loop(proc, options)
    if loop is None or out:
        return out
    if not any(isinstance(s, Loop) for s in walk_stmts(loop.body)):
        return out  # innermost loop: blocking is a plain strip-mine, legal
    from repro.check.linter import _escaped_loops

    local = context_for_path(proc, loop, ctx)
    graph = DependenceGraph(proc, local)
    max_splits = int(options.get("max_splits", 6))
    commutativity_on = bool(options.get("commutativity")) or (
        options.get("ignore_dep") is not None
    )
    # Sec. 3/5 resolution argument, shared with the linter: blocking is
    # legal when some inner loop escapes every dependence cycle by
    # distribution plus (if the budget allows) index-set splitting,
    # optionally after the commutativity oracle drops recognized
    # dependences.
    carve = max_splits > 0
    if _escaped_loops(proc, loop, graph, local,
                      use_commutativity=False, allow_carve=carve):
        return out
    if commutativity_on and _escaped_loops(
        proc, loop, graph, local, use_commutativity=True, allow_carve=carve
    ):
        return out
    preventing = graph.preventing_dependences(loop)
    named = f": {_dep_str(preventing[0])}" if preventing else ""
    out.append(diag(
        "legal/block-carried-recurrence",
        f"{proc.name}/DO {loop.var}",
        f"no inner loop of DO {loop.var} escapes the carried recurrence "
        f"(splits budget {max_splits}, commutativity "
        f"{'on' if commutativity_on else 'off'}){named}",
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
            (_scalars_written(loop) & _upward_exposed_scalars(loop)) - loop_vars
        )
        kw = "PARALLEL DO" if loop.kind == "parallel" else "PARALLEL REDUCTION DO"
        path = f"{proc.name}/{kw} {loop.var}"
        if loop.kind == "parallel":
            if carried:
                out.append(diag(
                    "legal/par-carried-dep", path,
                    f"marked PARALLEL but carries {_dep_str(carried[0])}",
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
                        f"carried {_dep_str(dep)} is not absorbed by an "
                        "acc = acc op term accumulation",
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
    "block": _pre_block,
    "if_inspection": _pre_ifinsp,
    "parallelize": _pre_parallelize,
}


# ---------------------------------------------------------------------------
# per-pass postchecks
# ---------------------------------------------------------------------------

def _post_distribute(before, after, ctx, options):
    """Allen–Kennedy on the result: each SCC of the original statement
    graph must stay within a single distributed piece."""
    loop = _target_loop(before, options)
    if loop is None:
        return []
    local = context_for_path(before, loop, ctx)
    graph = DependenceGraph(before, local)
    sg = graph.statement_graph(loop)
    drop = None
    if options.get("commutativity"):
        drop = lambda d: commutativity_oracle(before, loop, d)  # noqa: E731
        sg = graph.statement_graph(loop, drop_dep=drop)
    sccs = [sorted(c) for c in nx.strongly_connected_components(sg) if len(c) > 1]
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
            stmts = ", ".join(
                fmt_expr(loop.body[k].target)
                if isinstance(loop.body[k], Assign)
                else f"DO {loop.body[k].var}"
                for k in scc
                if isinstance(loop.body[k], (Assign, Loop))
            )
            out.append(diag(
                "legal/distribution-cycle",
                f"{before.name}/DO {loop.var}",
                f"recurrence statements ({stmts}) were separated into "
                f"{len(homes)} loops — the dependence cycle is broken",
            ))
    return out


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
    """Pieces the split created must partition the original range: a
    right piece must start at ``left.hi + 1``.  Only *provably* wrong
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
        out = fn(proc, ctx or Assumptions(), options or {})
        args["diagnostics"] = len(out)
        _obs.count("check.diagnostics", len(out))
        for d in out:
            _obs.count(f"check.rule.{d.rule}")
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
            Diagnostic(d.rule, Severity.WARNING, d.path, d.message)
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
        out = fn(before, after, ctx or Assumptions(), options or {})
        args["diagnostics"] = len(out)
        _obs.count("check.diagnostics", len(out))
        for d in out:
            _obs.count(f"check.rule.{d.rule}")
    return out
