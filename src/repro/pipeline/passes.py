"""Named, introspectable passes over the existing transformations.

Every transformation in :mod:`repro.transform` (plus the composed Givens
treatment, ``givens_opt``) is wrapped as a *pass*:
a named unit with a declared precondition check, a uniform ``run``
signature, and a structured :class:`PassOutcome`.  The
:class:`~repro.pipeline.manager.PassManager` sequences passes by name;
the CLI lists them; the cache memoizes whole outcomes by input
fingerprint.

A pass never mutates its inputs.  Context growth (e.g. blocking learns
``KS >= 2`` when strip-mining by a symbolic factor) is *returned* as
``ctx_facts`` for the manager to apply — that keeps cached replays and
fresh runs on identical contexts.

Registry surface: :func:`register`, :func:`get_pass`,
:func:`available_passes`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.analysis.commutativity import commutativity_oracle
from repro.analysis.context import context_for_path
from repro.analysis.shape import LoopShape, classify_loop_shape
from repro.errors import PipelineError, TransformError
from repro.ir.expr import Const, Var
from repro.ir.stmt import If, Loop, Procedure
from repro.ir.visit import find_loops, loop_by_var
from repro.symbolic.assume import Assumptions
from repro.transform import (
    block_loop,
    distribute,
    if_inspect,
    interchange,
    scalar_expand,
    scalar_replace,
    split_index_set,
    split_trapezoid,
    strip_mine,
    unroll_and_jam,
    triangular_unroll_jam,
)
from repro.transform.base import non_comment, sole_inner_loop
from repro.transform.if_inspection import guarded_distribute_with_inspection, guarded_if
from repro.transform.index_set_split import eliminate_single_trip
from repro.transform.stripmine import unit_step_reason


@dataclass(frozen=True)
class PassInfo:
    """Introspection record for one registered pass."""

    name: str
    summary: str
    options: tuple[str, ...] = ()
    precondition: str = ""


@dataclass
class PassOutcome:
    """What one pass application produced.

    ``applied`` is False for a clean no-op (nothing to do — distinct from
    an *infeasible* precondition, which the precheck reports before the
    pass runs).  ``detail`` is JSON-serializable and lands in the trace;
    ``artifact`` may hold a richer object (e.g. a
    :class:`~repro.transform.blocking.BlockingReport`) kept out of the
    trace.  ``ctx_facts`` are ``("ge"|"le", left, right)`` triples the
    manager folds into the running context.
    """

    procedure: Procedure
    applied: bool
    detail: dict = field(default_factory=dict)
    artifact: object = None
    ctx_facts: tuple = ()


Precheck = Callable[[Procedure, Assumptions, dict], Optional[str]]
Run = Callable[[Procedure, Assumptions, dict], PassOutcome]


@dataclass(frozen=True)
class PassDef:
    info: PassInfo
    precheck: Precheck
    run: Run


_REGISTRY: dict[str, PassDef] = {}


def register(info: PassInfo, precheck: Precheck, run: Run) -> None:
    if info.name in _REGISTRY:
        raise PipelineError(f"pass {info.name!r} registered twice")
    _REGISTRY[info.name] = PassDef(info, precheck, run)


def get_pass(name: str) -> PassDef:
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise PipelineError(f"unknown pass {name!r} (known: {known})") from None


def available_passes() -> list[PassInfo]:
    return [d.info for _, d in sorted(_REGISTRY.items())]


# ---------------------------------------------------------------------------
# helpers shared by several passes
# ---------------------------------------------------------------------------

def _opt_loop_var(proc: Procedure, options: dict) -> Optional[str]:
    """The target loop variable: options["loop"], else the first loop's."""
    var = options.get("loop")
    if var is not None:
        return var
    loops = find_loops(proc)
    return loops[0].var if loops else None


def target_loop(proc: Procedure, options: dict) -> tuple[Optional[Loop], Optional[str]]:
    """``(loop, None)`` for the one loop over the target variable, else
    ``(None, reason)``: no loops, no loop over it, or ``n`` loops over it.
    The single-loop passes and their legality checks all look it up here."""
    var = _opt_loop_var(proc, options)
    if var is None:
        return None, "procedure has no loops"
    hits = [l for l in find_loops(proc) if l.var == var]
    if len(hits) == 1:
        return hits[0], None
    return None, f"{len(hits)} loops over {var!r}" if hits else f"no loop over {var!r}"


def _unit_step_precheck(proc: Procedure, ctx: Assumptions, options: dict) -> Optional[str]:
    """stripmine's and block's precheck: the target loop has unit step."""
    loop, reason = target_loop(proc, options)
    return reason if loop is None else unit_step_reason(loop)


# ---------------------------------------------------------------------------
# split — Sec. 3.2 complete trapezoid splitting (Fig. 3's dependence
# splitting runs inside ``block``)
# ---------------------------------------------------------------------------

def _split_precheck(proc: Procedure, ctx: Assumptions, options: dict) -> Optional[str]:
    return target_loop(proc, options)[1]


def _split_run(proc: Procedure, ctx: Assumptions, options: dict) -> PassOutcome:
    outer_var = target_loop(proc, options)[0].var
    rounds = 0
    for _ in range(8):  # at most eight rounds, one split each
        changed = False
        for l in find_loops(proc):
            if l.var != outer_var:
                continue
            try:
                proc, _pieces = split_trapezoid(proc, l, context_for_path(proc, l, ctx))
            except TransformError:
                continue
            changed = True
            rounds += 1
            break
        if not changed:
            break
    return PassOutcome(proc, rounds > 0, {"mode": "trapezoid", "splits": rounds})


register(
    PassInfo(
        "split",
        "index-set splitting: trapezoid MIN/MAX pieces (Sec. 3.2)",
        options=("loop",),
        precondition="a loop over the target variable exists",
    ),
    _split_precheck,
    _split_run,
)


# ---------------------------------------------------------------------------
# stripmine
# ---------------------------------------------------------------------------

def _stripmine_run(proc: Procedure, ctx: Assumptions, options: dict) -> PassOutcome:
    loop = target_loop(proc, options)[0]
    factor = options.get("factor", 2)
    new, info = strip_mine(proc, loop, factor, ctx=ctx)
    facts = ()
    if isinstance(info.factor, Var):
        # a symbolic block size is only meaningful when at least 2
        facts = (("ge", info.factor.name, 2),)
    return PassOutcome(
        new,
        True,
        {"loop": loop.var, "block_var": info.block_var, "strip_var": info.strip_var},
        artifact=info,
        ctx_facts=facts,
    )


register(
    PassInfo(
        "stripmine",
        "strip-mine a loop by a literal or symbolic factor",
        options=("loop", "factor"),
        precondition="target loop exists and has unit step",
    ),
    _unit_step_precheck,
    _stripmine_run,
)


# ---------------------------------------------------------------------------
# interchange
# ---------------------------------------------------------------------------

def _interchange_precheck(proc: Procedure, ctx: Assumptions, options: dict) -> Optional[str]:
    loop, reason = target_loop(proc, options)
    if loop is not None and sole_inner_loop(loop) is None:
        return f"loop {loop.var} is not perfectly nested"
    return reason


def _interchange_run(proc: Procedure, ctx: Assumptions, options: dict) -> PassOutcome:
    loop = target_loop(proc, options)[0]
    local = context_for_path(proc, loop, ctx)
    new = interchange(proc, loop, local)
    return PassOutcome(new, True, {"outer": loop.var, "inner": sole_inner_loop(loop).var})


register(
    PassInfo(
        "interchange",
        "swap a loop with its sole inner loop (triangular/rhomboidal "
        "bound rewrites included)",
        options=("loop",),
        precondition="target loop is perfectly nested over one inner loop",
    ),
    _interchange_precheck,
    _interchange_run,
)


# ---------------------------------------------------------------------------
# jam — unroll-and-jam every eligible (outer_var, inner) nest
# ---------------------------------------------------------------------------

def jam_targets(proc: Procedure, options: dict) -> list[Loop]:
    """The unit-step loops over the target variable with a sole inner
    loop: the nests the jam pass unrolls and jams."""
    var = _opt_loop_var(proc, options)
    return [
        l
        for l in find_loops(proc)
        if l.var == var and l.step == Const(1) and sole_inner_loop(l) is not None
    ]


def _jam_precheck(proc: Procedure, ctx: Assumptions, options: dict) -> Optional[str]:
    var = _opt_loop_var(proc, options)
    if var is None:
        return "procedure has no loops"
    if not jam_targets(proc, options):
        return f"no unit-step loop over {var!r} with a sole inner loop"
    return None


def _jam_run(proc: Procedure, ctx: Assumptions, options: dict) -> PassOutcome:
    outer_var = _opt_loop_var(proc, options)
    u = options.get("unroll", 4)
    # Snapshot targets before any unrolling: UJ introduces remainder
    # pre-loops over the same variable that must not be unrolled again.
    targets = jam_targets(proc, options)
    jammed, skipped = [], []
    for target in targets:
        live = next((l for l in find_loops(proc) if l == target), None)
        if live is None:
            skipped.append("gone")
            continue
        try:
            local = context_for_path(proc, live, ctx)
        except KeyError:
            skipped.append("no-context")
            continue
        shape = classify_loop_shape(sole_inner_loop(live), outer_var)
        try:
            if shape.kind == LoopShape.RECTANGULAR:
                proc = unroll_and_jam(proc, live, u, local)
                jammed.append("rectangular")
            else:
                proc = triangular_unroll_jam(proc, live, u, local)
                jammed.append(shape.kind.name.lower())
        except (TransformError, ValueError):
            skipped.append(shape.kind.name.lower())
            continue
    return PassOutcome(
        proc,
        bool(jammed),
        {"loop": outer_var, "unroll": u, "jammed": jammed, "skipped": skipped},
    )


register(
    PassInfo(
        "jam",
        "unroll-and-jam every eligible nest over the target variable "
        "(rectangular or triangular per shape analysis)",
        options=("loop", "unroll"),
        precondition="a unit-step loop over the target variable with a "
        "sole inner loop exists",
    ),
    _jam_precheck,
    _jam_run,
)


# ---------------------------------------------------------------------------
# if_inspection — Sec. 4 inspector/executor
# ---------------------------------------------------------------------------

def _ifinsp_target(proc: Procedure, options: dict) -> Optional[Loop]:
    var = options.get("loop")
    return next((
        l for l in find_loops(proc)
        if (var is None or l.var == var) and guarded_if(l) is not None
    ), None)


def _ifinsp_precheck(proc: Procedure, ctx: Assumptions, options: dict) -> Optional[str]:
    if _ifinsp_target(proc, options) is None:
        return "no loop whose body is a single IF-THEN"
    return None


def _ifinsp_run(proc: Procedure, ctx: Assumptions, options: dict) -> PassOutcome:
    loop = _ifinsp_target(proc, options)
    local = context_for_path(proc, loop, ctx)
    new, executor = if_inspect(proc, loop, local)
    return PassOutcome(
        new, True, {"loop": loop.var, "executor": executor.var}, artifact=executor
    )


register(
    PassInfo(
        "if_inspection",
        "split a guarded loop into inspector + executor (Sec. 4)",
        options=("loop",),
        precondition="a loop whose body is a single IF-THEN (no ELSE)",
    ),
    _ifinsp_precheck,
    _ifinsp_run,
)


# ---------------------------------------------------------------------------
# scalars — scalar replacement
# ---------------------------------------------------------------------------

def _scalars_precheck(proc: Procedure, ctx: Assumptions, options: dict) -> Optional[str]:
    if not find_loops(proc):
        return "procedure has no loops"
    return None


def _scalars_run(proc: Procedure, ctx: Assumptions, options: dict) -> PassOutcome:
    new, reports = scalar_replace(proc, ctx)
    return PassOutcome(
        new,
        new != proc,
        {"replacements": len(reports)},
        artifact=reports,
    )


register(
    PassInfo(
        "scalars",
        "scalar replacement of loop-invariant array references",
        options=(),
        precondition="procedure has loops",
    ),
    _scalars_precheck,
    _scalars_run,
)


# ---------------------------------------------------------------------------
# distribute — Allen–Kennedy distribution
# ---------------------------------------------------------------------------

def _distribute_precheck(proc: Procedure, ctx: Assumptions, options: dict) -> Optional[str]:
    loop, reason = target_loop(proc, options)
    if loop is not None and len(non_comment(loop.body)) < 2:
        return f"loop {loop.var} body has a single statement group"
    return reason


def _distribute_run(proc: Procedure, ctx: Assumptions, options: dict) -> PassOutcome:
    loop = target_loop(proc, options)[0]
    local = context_for_path(proc, loop, ctx)
    drop_dep = None
    if options.get("commutativity"):
        drop_dep = lambda dep: commutativity_oracle(proc, loop, dep)  # noqa: E731
    new, pieces = distribute(proc, loop, local, drop_dep=drop_dep)
    return PassOutcome(
        new, len(pieces) > 1, {"loop": loop.var, "pieces": len(pieces)}, artifact=pieces
    )


register(
    PassInfo(
        "distribute",
        "Allen–Kennedy loop distribution into recurrence components",
        options=("loop", "commutativity"),
        precondition="target loop has at least two statement groups",
    ),
    _distribute_precheck,
    _distribute_run,
)


# ---------------------------------------------------------------------------
# block — the full strip-mine-and-interchange driver
# ---------------------------------------------------------------------------

def _block_run(proc: Procedure, ctx: Assumptions, options: dict) -> PassOutcome:
    var = target_loop(proc, options)[0].var
    factor = options.get("factor", "KS")
    local = ctx.copy()  # block_loop grows its ctx; keep the manager's copy clean
    new, report = block_loop(
        proc,
        var,
        factor,
        ctx=local,
        ignore_dep=commutativity_oracle if options.get("commutativity") else None,
        max_splits=int(options.get("max_splits", 6)),
    )
    facts = ()
    if isinstance(report.factor, Var):
        facts = (("ge", report.factor.name, 2),)
    return PassOutcome(
        new,
        report.blocked_innermost > 0 or new != proc,
        {
            "loop": var,
            "factor": str(report.factor),
            "blocked_innermost": report.blocked_innermost,
            "residual_point_loops": report.residual_point_loops,
            "used_index_set_split": report.used_index_set_split,
            "used_commutativity": report.used_commutativity,
            "used_scalar_expansion": report.used_scalar_expansion,
            "steps": list(report.steps),
        },
        artifact=report,
        ctx_facts=facts,
    )


register(
    PassInfo(
        "block",
        "strip-mine-and-interchange blocking (distribution, Fig. 3 "
        "splitting, and scalar expansion as needed)",
        options=("loop", "factor", "commutativity", "max_splits"),
        precondition="target loop exists and has unit step",
    ),
    _unit_step_precheck,
    _block_run,
)


# ---------------------------------------------------------------------------
# givens_opt — the composed Sec. 5.4 treatment (Fig. 9 -> Fig. 10)
# ---------------------------------------------------------------------------
#
# No block algorithm is known for Givens QR; the paper instead fixes its
# memory behaviour with the same toolkit.  Interchanging J innermost gives
# stride-one A(J,K) and an invariant A(L,K), but the interchange is blocked
# by (a) a recurrence that exists only for the element A(L,L), (b) scalars
# C/S carried from the rotation setup into the sweep, and (c) the guard,
# whose operand the rotation itself zeroes.  The pass removes them in the
# paper's order: index-set split of K at L (then unroll the peel, the A1/A2
# block), scalar expansion of C, S, distribution of J with fused
# IF-inspection, and two interchanges putting K outermost over (JN, J).

def _givens_sweep(proc: Procedure) -> Optional[Loop]:
    """The K sweep of Fig. 9's single guarded rotation body under the
    one loop over J, or None when ``proc`` does not have that shape."""
    try:
        j_loop = loop_by_var(proc.body, "J")
    except (KeyError, ValueError):
        return None
    body = non_comment(j_loop.body)
    if len(body) != 1 or not isinstance(body[0], If):
        return None
    return next((s for s in non_comment(body[0].then) if isinstance(s, Loop)), None)


def _givens_precheck(proc: Procedure, ctx: Assumptions, options: dict) -> Optional[str]:
    if _givens_sweep(proc) is None:
        return "expected Fig. 9: one DO J whose body is a guarded rotation with a K sweep"
    return None


def _givens_run(proc: Procedure, ctx: Assumptions, options: dict) -> PassOutcome:
    steps: list[str] = []
    k_loop = _givens_sweep(proc)
    # 1. IndexSetSplit of K at L: the A(L,L) recurrence is confined to the
    #    first iteration, which is then fully unrolled.
    proc, (peel, _rest) = split_index_set(
        proc, k_loop, k_loop.lo, context_for_path(proc, k_loop, ctx))
    steps.append(f"index-set split {k_loop.var} at {k_loop.lo!r} (A(L,L) recurrence)")
    peel = next(l for l in find_loops(proc) if l == peel)
    proc = eliminate_single_trip(proc, peel, context_for_path(proc, peel, ctx))
    steps.append("unrolled the peeled first iteration (the A1/A2 block)")

    # 2. scalar expansion of the rotation coefficients over J
    proc = scalar_expand(proc, loop_by_var(proc.body, "J"), ("C", "S"))
    steps.append("scalar-expanded C, S -> C(J), S(J)")

    # 3. distribution of J with fused IF-inspection
    j_loop = loop_by_var(proc.body, "J")
    then = non_comment(j_loop.body)[0].then
    split_at = next(k for k, s in enumerate(then) if isinstance(s, Loop))
    proc, executor = guarded_distribute_with_inspection(
        proc, j_loop, split_at, context_for_path(proc, j_loop, ctx))
    steps.append("distributed J with fused IF-inspection (guard operand is zeroed)")

    # 4. interchange J past K, then JN past K: K becomes outermost of the
    #    executor, giving stride-one A(J,K) and invariant A(L,K).
    inner_j = sole_inner_loop(next(l for l in find_loops(proc) if l == executor))
    proc = interchange(proc, inner_j, context_for_path(proc, inner_j, ctx))
    steps.append("interchanged J inside K")
    executor = next(l for l in find_loops(proc) if l.var == executor.var)
    proc = interchange(proc, executor, context_for_path(proc, executor, ctx))
    steps.append("interchanged JN inside K (K now outermost of the sweep)")
    return PassOutcome(proc, True, {"steps": steps})


register(
    PassInfo(
        "givens_opt",
        "the composed Givens QR treatment (Sec. 5.4): distribution, "
        "interchange, fusion back to Fig. 10 form",
        options=(),
        precondition="Fig. 9's shape: one loop over J whose body is a "
        "guarded rotation containing the K sweep",
    ),
    _givens_precheck,
    _givens_run,
)


# ---------------------------------------------------------------------------
# parallelize — mark proved loops PARALLEL [REDUCTION] DO (repro.par)
# ---------------------------------------------------------------------------

def _parallelize_precheck(proc: Procedure, ctx: Assumptions, options: dict) -> Optional[str]:
    if not find_loops(proc):
        return "procedure has no loops"
    only = options.get("loop")
    if only is not None and not any(l.var == only for l in find_loops(proc)):
        return f"no loop over {only!r}"
    return None


def _parallelize_run(proc: Procedure, ctx: Assumptions, options: dict) -> PassOutcome:
    from repro.par.detect import annotate_procedure, verdict_counts

    only = options.get("loop")
    new, verdicts = annotate_procedure(
        proc, ctx, loops=None if only is None else (only,)
    )
    detail = verdict_counts(v.verdict for v in verdicts)
    detail["loops"] = [v.to_dict() for v in verdicts]
    return PassOutcome(new, new != proc, detail)


register(
    PassInfo(
        "parallelize",
        "classify every loop PARALLEL / REDUCTION / SERIAL by loop-carried "
        "dependence (repro.par) and annotate proved loops with "
        "PARALLEL [REDUCTION] DO markers",
        options=("loop",),
        precondition="procedure has loops",
    ),
    _parallelize_precheck,
    _parallelize_run,
)
