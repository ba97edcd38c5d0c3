"""The ``matrix`` command: ``python -m repro matrix``.

Subcommands::

    run [SPEC.json] [--factor NAME=V1,V2 ...]   expand a grid and sweep it
    report [ARTIFACT]                           re-analyze a sweep artifact

Examples::

    python -m repro matrix run examples/matrix_demo_grid.json --workers 4
    python -m repro matrix run --factor workload=lu_nopivot,conv \\
        --factor b=2,4,8 --factor cache_kb=1,2 --factor n=16,24
    python -m repro matrix report --only b
    python -m repro matrix report 9f31 --only cache_kb --metric miss_ratio

``run`` executes through the ``repro.serve`` worker pool against the
shared artifact store, validates the ``repro.matrix/1`` artifact, and
writes it (default ``BENCH_matrix.json``).  The store is the sweep's
memory: rerunning a grid — finished or killed half way — resolves every
cell it already computed as a store hit (``attempts=0``) and computes
the rest; ``python -m repro artifacts ls`` shows what is there, and
``--no-store`` remembers nothing.

``report`` re-analyzes the rows of a ``repro.matrix/1`` artifact, named
by file path or store digest prefix (default ``BENCH_matrix.json``).
``--only FACTOR`` restricts the sensitivity section to one factor,
mirroring ``repro report --only``: naming a factor that is absent or
does not vary in the rows exits 2 with the list of varied factors.

Exit status: 0 when every cell lands, 1 when any cell is ``timeout`` /
``failed``, 2 for usage errors or an artifact that fails validation.
"""

from __future__ import annotations

import json

from repro import cli
from repro.artifacts import require_valid, resolve_artifact, schema_id_of
from repro.errors import MatrixError
from repro.matrix.analysis import METRICS
from repro.matrix.grid import FACTOR_ORDER, GridSpec
from repro.matrix.report import SCHEMA, build_report, render
from repro.matrix.runner import run_grid

DEFAULT_OUT = "BENCH_matrix.json"


def register(sub) -> None:
    p = sub.add_parser(
        "matrix",
        description="declarative experiment grids over the repro.serve "
        "worker pool and the artifact store",
    )
    cmds = p.add_subparsers(dest="command", required=True)

    run = cmds.add_parser("run", help="expand a grid and sweep it")
    run.add_argument("spec", nargs="?", metavar="SPEC.json",
                     help="grid spec file; omit when using --factor")
    run.add_argument("--factor", action="append", default=[],
                     metavar="NAME=V1,V2",
                     help=f"one factor and its levels (repeatable); "
                     f"factors: {', '.join(FACTOR_ORDER)}")
    cli.pool_flags(run)
    run.add_argument("--timeout", type=float, default=600.0, metavar="S",
                     help="per-cell timeout in seconds (default 600)")
    cli.store_flags(run, no_store=True)
    run.add_argument("--progress", action="store_true",
                     help="print one line per cell as it resolves")
    cli.observe_flags(run)
    run.set_defaults(fn=_run_sweep)

    report = cmds.add_parser("report", help="re-analyze a sweep artifact")
    report.add_argument("artifact", nargs="?", metavar="ARTIFACT",
                        default=DEFAULT_OUT,
                        help="a repro.matrix/1 file, or a store digest "
                        f"prefix (default {DEFAULT_OUT})")
    cli.store_flags(report)
    report.set_defaults(fn=_report)

    for q, default in ((run, DEFAULT_OUT), (report, None)):
        cli.output_flags(q, out="repro.matrix/1 artifact", default=default)
        q.add_argument("--metric", choices=METRICS, default="speedup",
                       help="metric for sensitivity/best-blocking "
                       "(default speedup)")
        q.add_argument("--only", metavar="FACTOR",
                       help="restrict sensitivity to one factor (exit 2 when "
                       "it is absent or does not vary)")


def _grid_from_run(args) -> GridSpec:
    if args.spec and args.factor:
        raise MatrixError("give either SPEC.json or --factor, not both")
    if args.spec:
        try:
            with open(args.spec, encoding="utf-8") as fh:
                doc = json.load(fh)
        except OSError as e:
            raise MatrixError(f"cannot read grid spec: {e}") from e
        except json.JSONDecodeError as e:
            raise MatrixError(f"grid spec is not valid JSON: {e}") from e
        return GridSpec.from_json(doc)
    if args.factor:
        return GridSpec.from_cli(args.factor)
    raise MatrixError("give a SPEC.json or at least --factor workload=...")


def _progress_printer(total: int):
    seen = [0]

    def on_row(row: dict) -> None:
        seen[0] += 1
        tail = f"  [{row['error']}]" if row.get("error") else ""
        speedup = row.get("speedup")
        mid = f"speedup {speedup:.3f}" if speedup is not None else "--"
        print(
            f"  [{seen[0]}/{total}] {row['status']:<9} "
            f"{row['workload']}:{row['recipe']} n={row['n']} b={row['b']} "
            f"{row['cache_kb']}KB  {mid}{tail}",
            flush=True,
        )

    return on_row


def _run_sweep(args) -> int:
    grid = _grid_from_run(args)
    store = cli.open_store(args)
    meta = {"tool": __package__, "command": args.command,
            "grid": grid.digest()[:12]}

    with cli.observed(args, meta):
        doc = run_grid(
            grid,
            workers=args.workers,
            store=store,
            timeout_s=args.timeout,
            meta=meta,
            metric=args.metric,
            only=[args.only] if args.only else None,
            # cells that coalesce onto one digest print (and count) once
            on_row=_progress_printer(grid.n_cells()) if args.progress else None,
        )

    print(render(doc))
    if args.out:
        # land the sweep artifact in the store the cells ran against
        cli.emit(args, doc, SCHEMA, store=store)
    run = doc["run"]
    bad = sum(run.get(s, 0) for s in ("timeout", "failed"))
    return 1 if bad else 0


def _report(args) -> int:
    store = cli.open_store(args)
    env = require_valid(resolve_artifact(store, args.artifact))
    if schema_id_of(env) != SCHEMA:
        raise MatrixError(
            f"{args.artifact} is a {schema_id_of(env)} artifact, want {SCHEMA}"
        )
    source = env["payload"]
    doc = build_report(
        source["rows"],
        grid=source["grid"],
        meta={"tool": __package__, "command": "report"},
        metric=args.metric,
        only=[args.only] if args.only else None,
    )
    print(render(doc))
    if args.out:
        cli.emit(args, doc, SCHEMA, store=store)
    return 0
