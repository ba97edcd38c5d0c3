"""The ``pipeline`` command: ``python -m repro pipeline``.

Examples::

    python -m repro pipeline --list-algorithms
    python -m repro pipeline --list-passes
    python -m repro pipeline --algorithm lu_nopivot --passes split,block,jam \
        --trace out.json --verify
    python -m repro pipeline --algorithm conv --verify --print-ir
    python -m repro pipeline --algorithm givens --cache-stats

Exit status: 0 on success, 1 when differential verification or a
``--check`` legality check fails, 2 for usage errors (unknown
algorithm/pass, bad sizes, infeasible pass under ``--on-infeasible
raise``).  The trace file is written even when verification or the check
fails, so the failing span is inspectable offline.
"""

from __future__ import annotations

import sys
from typing import Optional

from repro import cli
from repro.errors import CheckError, PipelineError, VerificationError
from repro.ir.pretty import to_fortran
from repro.pipeline.cache import AnalysisCache
from repro.pipeline.manager import PassManager, PipelineResult
from repro.pipeline.passes import available_passes
from repro.pipeline.trace import CHECK_FAILED, SCHEMA
from repro.pipeline.verify import DifferentialVerifier
from repro.pipeline.workloads import available_workloads, get_workload


def _span_line(span) -> str:
    mark = {
        "applied": "+", "noop": ".", "infeasible": "-", "error": "!",
        CHECK_FAILED: "!",
    }[span.status]
    cached = " (cached)" if span.cached else ""
    delta = span.ir_size_after - span.ir_size_before
    extra = ""
    if span.status == "infeasible":
        extra = f"  [{span.detail.get('reason', '')}]"
    elif span.status in ("error", CHECK_FAILED):
        extra = f"  [{span.error}]"
    verified = "  verified" if span.verify and span.verify.get("ok") else ""
    return (
        f"  {mark} {span.index}: {span.name:<14} {span.status:<10} "
        f"{span.wall_s * 1000:8.1f} ms  ir {span.ir_size_before}->"
        f"{span.ir_size_after} ({delta:+d}){cached}{verified}{extra}"
    )


def register(sub) -> None:
    p = sub.add_parser(
        "pipeline",
        description="run instrumented pass pipelines over the paper's algorithms",
    )
    p.add_argument("--algorithm", "-a", help="workload name (see --list-algorithms)")
    cli.passes_flag(p)
    p.add_argument("--trace", dest="out", metavar="PATH",
                   help="write the JSON trace here")
    p.add_argument(
        "--verify",
        action="store_true",
        help="differentially verify after every applied pass",
    )
    p.add_argument(
        "--check",
        action="store_true",
        help="run the repro.check IR verifier and legality predicates "
        "before/after every pass; exit 1 on any error-severity diagnostic",
    )
    p.add_argument(
        "--on-infeasible",
        choices=("skip", "stop", "raise"),
        default="skip",
        help="policy for passes whose preconditions fail (default: skip)",
    )
    p.add_argument("--unroll", type=int, help="override the jam unroll factor")
    p.add_argument("--factor", type=_factor_arg,
                   help="override the block/stripmine factor: an integer >= 1 or a symbol name")
    cli.sizes_flag(p)
    p.add_argument(
        "--snapshots",
        action="store_true",
        help="embed a pretty-printed IR snapshot in every span",
    )
    p.add_argument(
        "--print-ir", action="store_true", help="print the final procedure"
    )
    p.add_argument(
        "--cache-stats", action="store_true", help="print analysis-cache counters"
    )
    p.add_argument(
        "--list-algorithms", action="store_true", help="list workloads and exit"
    )
    p.add_argument("--list-passes", action="store_true", help="list passes and exit")
    p.set_defaults(fn=run)


def _factor_arg(text: str) -> int | str:
    """A digit string is a numeric factor; anything else stays a name
    for :meth:`Workload.resolve_specs` to accept or refuse."""
    return int(text) if text.isdecimal() else text


def run(args) -> int:
    if args.list_algorithms:
        for w in available_workloads():
            print(f"{w.name:<12} {w.title}")
            print(f"{'':<12}   default passes: {', '.join(w.default_passes)}")
        return 0
    if args.list_passes:
        for info in available_passes():
            print(f"{info.name:<14} {info.summary}")
            if info.options:
                print(f"{'':<14}   options: {', '.join(info.options)}")
            if info.precondition:
                print(f"{'':<14}   requires: {info.precondition}")
        return 0
    if not args.algorithm:
        raise PipelineError("--algorithm is required (or --list-algorithms)")

    workload = get_workload(args.algorithm)
    ctx = workload.context(args.unroll)
    specs = workload.resolve_specs(
        cli.split_passes(args.passes), unroll=args.unroll, factor=args.factor
    )
    sizes = cli.resolve_sizes(args.sizes, workload, ctx, factor=args.factor)
    proc = workload.build()

    verifier = DifferentialVerifier(proc, sizes) if args.verify else None

    manager = PassManager(
        specs,
        ctx=ctx,
        on_infeasible=args.on_infeasible,
        cache=AnalysisCache(),  # fresh per CLI run: honest cold counters
        verifier=verifier,
        trace_snapshots=args.snapshots,
        algorithm=workload.name,
        check=args.check,
    )

    status = 0
    result: Optional[PipelineResult] = None
    try:
        result = manager.run(proc)
    except VerificationError as e:
        print(f"VERIFICATION FAILED: {e}", file=sys.stderr)
        result = getattr(e, "result", None)
        status = 1
    except CheckError as e:
        print(f"CHECK FAILED: {e}", file=sys.stderr)
        for d in e.diagnostics:
            print(f"  {d.pretty()}", file=sys.stderr)
        result = getattr(e, "result", None)
        status = 1
    except PipelineError as e:
        print(f"error: {e}", file=sys.stderr)
        result = getattr(e, "result", None)
        status = 2

    if result is not None:
        print(f"{workload.name}: {len(result.spans)} pass(es)")
        for span in result.spans:
            print(_span_line(span))
        if result.stopped:
            print("  (stopped early by --on-infeasible stop)")
        if args.out:
            cli.emit(args, result.trace, SCHEMA, what="trace")
        if args.cache_stats:
            for region, stats in result.trace["cache"].items():
                print(
                    f"  cache[{region}]: {stats['hits']} hits / "
                    f"{stats['misses']} misses ({stats['hit_rate']:.0%})"
                )
        if args.check and result.check_diagnostics:
            shown = [
                d for d in result.check_diagnostics
                if d.severity.value != "info"
            ]
            for d in shown:
                print(f"  check: {d.pretty()}")
        if args.print_ir and status == 0:
            print(to_fortran(result.procedure))
    return status
