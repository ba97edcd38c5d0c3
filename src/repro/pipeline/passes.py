"""Named, introspectable passes over the existing transformations.

Every transformation in :mod:`repro.transform` (plus the composed Givens
treatment from :mod:`repro.blockability.givens`) is wrapped as a *pass*:
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
    index_set_split_for_dependence,
    interchange,
    scalar_replace,
    split_trapezoid_max,
    split_trapezoid_min,
    strip_mine,
    unroll_and_jam,
    triangular_unroll_jam,
)
from repro.transform.base import non_comment, sole_inner_loop


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

def _opt_loop_var(proc: Procedure, options: dict, default_outermost: bool = True) -> Optional[str]:
    """The target loop variable: options["loop"], else the first loop."""
    var = options.get("loop")
    if var is not None:
        return var
    if not default_outermost:
        return None
    loops = find_loops(proc)
    return loops[0].var if loops else None


def _require_loop(proc: Procedure, options: dict) -> Optional[str]:
    var = _opt_loop_var(proc, options)
    if var is None:
        return "procedure has no loops"
    try:
        loop_by_var(proc.body, var)
    except Exception:
        return f"no loop over {var!r}"
    return None


# ---------------------------------------------------------------------------
# split — Sec. 3.2 complete trapezoid splitting / Fig. 3 dependence splitting
# ---------------------------------------------------------------------------

def _split_precheck(proc: Procedure, ctx: Assumptions, options: dict) -> Optional[str]:
    return _require_loop(proc, options)


def _split_run(proc: Procedure, ctx: Assumptions, options: dict) -> PassOutcome:
    mode = options.get("mode", "trapezoid")
    outer_var = _opt_loop_var(proc, options)
    if mode == "deps":
        # Fig. 3: split on a preventing dependence whose endpoint sections
        # differ; first splittable dependence wins.
        from repro.analysis.graph import DependenceGraph

        loop = loop_by_var(proc.body, outer_var)
        local = context_for_path(proc, loop, ctx)
        graph = DependenceGraph(proc, local)
        reasons = []
        for dep in graph.preventing_dependences(loop):
            try:
                new, reports = index_set_split_for_dependence(proc, loop, dep, local)
            except TransformError as e:
                reasons.append(str(e))
                continue
            return PassOutcome(
                new,
                True,
                {
                    "mode": mode,
                    "splits": [
                        {"loop": r.loop_var, "at": str(r.point)} for r in reports
                    ],
                },
                artifact=reports,
            )
        return PassOutcome(proc, False, {"mode": mode, "reasons": reasons})
    if mode != "trapezoid":
        raise PipelineError(f"split: unknown mode {mode!r}")
    rounds = 0
    for _ in range(int(options.get("max_rounds", 8))):
        changed = False
        for l in find_loops(proc):
            if l.var != outer_var:
                continue
            inner = sole_inner_loop(l)
            if inner is None:
                continue
            shape = classify_loop_shape(inner, outer_var)
            local = context_for_path(proc, l, ctx)
            try:
                if shape.kind == LoopShape.TRAPEZOIDAL_MIN:
                    proc, _pieces = split_trapezoid_min(proc, l, local)
                elif shape.kind == LoopShape.TRAPEZOIDAL_MAX:
                    proc, _pieces = split_trapezoid_max(proc, l, local)
                else:
                    continue
            except TransformError:
                continue
            changed = True
            rounds += 1
            break
        if not changed:
            break
    return PassOutcome(proc, rounds > 0, {"mode": mode, "splits": rounds})


register(
    PassInfo(
        "split",
        "index-set splitting: trapezoid MIN/MAX pieces (Sec. 3.2) or "
        "dependence-directed splitting (Fig. 3, mode=deps)",
        options=("loop", "mode", "max_rounds"),
        precondition="a loop over the target variable exists",
    ),
    _split_precheck,
    _split_run,
)


# ---------------------------------------------------------------------------
# stripmine
# ---------------------------------------------------------------------------

def _stripmine_precheck(proc: Procedure, ctx: Assumptions, options: dict) -> Optional[str]:
    err = _require_loop(proc, options)
    if err:
        return err
    loop = loop_by_var(proc.body, _opt_loop_var(proc, options))
    if loop.step != Const(1):
        return f"loop {loop.var} has non-unit step"
    return None


def _stripmine_run(proc: Procedure, ctx: Assumptions, options: dict) -> PassOutcome:
    var = _opt_loop_var(proc, options)
    loop = loop_by_var(proc.body, var)
    factor = options.get("factor", 2)
    new, info = strip_mine(proc, loop, factor, strip_var=options.get("strip_var"), ctx=ctx)
    facts = ()
    if isinstance(info.factor, Var):
        # a symbolic block size is only meaningful when at least 2
        facts = (("ge", info.factor.name, 2),)
    return PassOutcome(
        new,
        True,
        {"loop": var, "block_var": info.block_var, "strip_var": info.strip_var},
        artifact=info,
        ctx_facts=facts,
    )


register(
    PassInfo(
        "stripmine",
        "strip-mine a loop by a literal or symbolic factor",
        options=("loop", "factor", "strip_var"),
        precondition="target loop exists and has unit step",
    ),
    _stripmine_precheck,
    _stripmine_run,
)


# ---------------------------------------------------------------------------
# interchange
# ---------------------------------------------------------------------------

def _interchange_precheck(proc: Procedure, ctx: Assumptions, options: dict) -> Optional[str]:
    err = _require_loop(proc, options)
    if err:
        return err
    loop = loop_by_var(proc.body, _opt_loop_var(proc, options))
    if sole_inner_loop(loop) is None:
        return f"loop {loop.var} is not perfectly nested"
    return None


def _interchange_run(proc: Procedure, ctx: Assumptions, options: dict) -> PassOutcome:
    var = _opt_loop_var(proc, options)
    loop = loop_by_var(proc.body, var)
    local = context_for_path(proc, loop, ctx)
    new = interchange(proc, loop, local)
    return PassOutcome(new, True, {"outer": var, "inner": sole_inner_loop(loop).var})


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

def _jam_precheck(proc: Procedure, ctx: Assumptions, options: dict) -> Optional[str]:
    var = _opt_loop_var(proc, options)
    if var is None:
        return "procedure has no loops"
    targets = [
        l
        for l in find_loops(proc)
        if l.var == var and l.step == Const(1) and sole_inner_loop(l) is not None
    ]
    if not targets:
        return f"no unit-step loop over {var!r} with a sole inner loop"
    return None


def _jam_run(proc: Procedure, ctx: Assumptions, options: dict) -> PassOutcome:
    outer_var = _opt_loop_var(proc, options)
    u = int(options.get("unroll", 4))
    # Snapshot targets before any unrolling: UJ introduces remainder
    # pre-loops over the same variable that must not be unrolled again.
    targets = [
        l
        for l in find_loops(proc)
        if l.var == outer_var and l.step == Const(1) and sole_inner_loop(l) is not None
    ]
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
    for l in find_loops(proc):
        if var is not None and l.var != var:
            continue
        body = non_comment(l.body)
        if len(body) == 1 and isinstance(body[0], If) and not body[0].els:
            return l
    return None


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
    err = _require_loop(proc, options)
    if err:
        return err
    loop = loop_by_var(proc.body, _opt_loop_var(proc, options))
    if len(non_comment(loop.body)) < 2:
        return f"loop {loop.var} body has a single statement group"
    return None


def _distribute_run(proc: Procedure, ctx: Assumptions, options: dict) -> PassOutcome:
    var = _opt_loop_var(proc, options)
    loop = loop_by_var(proc.body, var)
    local = context_for_path(proc, loop, ctx)
    drop_dep = None
    if options.get("commutativity"):
        drop_dep = lambda dep: commutativity_oracle(proc, loop, dep)  # noqa: E731
    new, pieces = distribute(proc, loop, local, drop_dep=drop_dep)
    return PassOutcome(
        new, len(pieces) > 1, {"loop": var, "pieces": len(pieces)}, artifact=pieces
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

def _block_precheck(proc: Procedure, ctx: Assumptions, options: dict) -> Optional[str]:
    err = _require_loop(proc, options)
    if err:
        return err
    loop = loop_by_var(proc.body, _opt_loop_var(proc, options))
    if loop.step != Const(1):
        return f"loop {loop.var} has non-unit step"
    return None


def _block_run(proc: Procedure, ctx: Assumptions, options: dict) -> PassOutcome:
    var = _opt_loop_var(proc, options)
    factor = options.get("factor", "KS")
    ignore_dep = options.get("ignore_dep")
    if ignore_dep is None and options.get("commutativity"):
        ignore_dep = commutativity_oracle
    local = ctx.copy()  # block_loop grows its ctx; keep the manager's copy clean
    new, report = block_loop(
        proc,
        var,
        factor,
        ctx=local,
        ignore_dep=ignore_dep,
        max_rounds=int(options.get("max_rounds", 64)),
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
        options=(
            "loop",
            "factor",
            "commutativity",
            "ignore_dep",
            "max_rounds",
            "max_splits",
        ),
        precondition="target loop exists and has unit step",
    ),
    _block_precheck,
    _block_run,
)


# ---------------------------------------------------------------------------
# givens_opt — the composed Sec. 5.4 treatment
# ---------------------------------------------------------------------------

def _givens_precheck(proc: Procedure, ctx: Assumptions, options: dict) -> Optional[str]:
    if not find_loops(proc):
        return "procedure has no loops"
    return None


def _givens_run(proc: Procedure, ctx: Assumptions, options: dict) -> PassOutcome:
    from repro.blockability.givens import optimize_givens

    log: list[str] = []
    new = optimize_givens(proc, ctx, log=log)
    return PassOutcome(new, new != proc, {"steps": log})


register(
    PassInfo(
        "givens_opt",
        "the composed Givens QR treatment (Sec. 5.4): distribution, "
        "interchange, fusion back to Fig. 10 form",
        options=(),
        precondition="procedure has loops",
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
    detail = dict(verdict_counts(verdicts))
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
