"""The ``matrix`` command: ``python -m repro matrix``.

Subcommands::

    run [SPEC.json] [--factor NAME=V1,V2 ...]   expand a grid and sweep it
    resume [SWEEP]                              continue a recorded sweep
    status                                      list recorded sweeps
    report [SWEEP]                              re-analyze recorded rows

Examples::

    python -m repro matrix run examples/matrix_demo_grid.json --workers 4
    python -m repro matrix run --factor workload=lu_nopivot,conv \\
        --factor b=2,4,8 --factor cache_kb=1,2 --factor n=16,24
    python -m repro matrix resume 9f31
    python -m repro matrix status
    python -m repro matrix report 9f31 --only b
    python -m repro matrix report --only cache_kb --metric miss_ratio

``run`` executes through the ``repro.serve`` worker pool against the
shared artifact store, records one sqlite row per cell as it resolves,
validates the ``repro.matrix/1`` artifact, and writes it (default
``BENCH_matrix.json``).  A rerun of the same grid recomputes zero cells:
finished cells are skipped from the database, and ``--fresh`` reruns
still resolve warm cells as store hits (``attempts=0``).

``report --only FACTOR`` restricts the sensitivity section to one
factor, mirroring ``repro report --only``: naming a factor that is
absent or does not vary in the selected rows exits 2 with the list of
varied factors.

Exit status: 0 when every cell lands, 1 when any cell is ``timeout`` /
``failed``, 2 for usage errors or a report that fails validation.
"""

from __future__ import annotations

import json
from typing import Optional

from repro import cli
from repro.errors import MatrixError
from repro.matrix.analysis import METRICS
from repro.matrix.db import MatrixDB
from repro.matrix.grid import FACTOR_ORDER, GridSpec
from repro.matrix.report import build_report, render
from repro.matrix.runner import cell_digests, run_grid

DEFAULT_OUT = "BENCH_matrix.json"


def register(sub) -> None:
    p = sub.add_parser(
        "matrix",
        description="declarative experiment grids over the repro.serve "
        "worker pool, persisted to a sqlite results database",
    )
    cmds = p.add_subparsers(dest="command", required=True)

    run = cmds.add_parser("run", help="expand a grid and sweep it")
    run.add_argument("spec", nargs="?", metavar="SPEC.json",
                     help="grid spec file; omit when using --factor")
    run.add_argument("--factor", action="append", default=[],
                     metavar="NAME=V1,V2",
                     help=f"one factor and its levels (repeatable); "
                     f"factors: {', '.join(FACTOR_ORDER)}")
    run.set_defaults(fn=lambda args: _run_sweep(args, _grid_from_run(args)))

    resume = cmds.add_parser("resume", help="continue a recorded sweep")
    resume.add_argument("sweep", nargs="?", metavar="SWEEP",
                        help="sweep digest prefix (optional when only one "
                        "sweep is recorded)")
    resume.set_defaults(fn=_resume)

    for q in (run, resume):
        cli.pool_flags(q, backoff=False)
        q.add_argument("--timeout", type=float, default=600.0, metavar="S",
                       help="per-cell timeout in seconds (default 600)")
        cli.store_flags(
            q, no_store=True,
            fresh="ignore recorded rows; re-resolve every cell "
            "(warm store entries still land as hits)",
        )
        q.add_argument("--progress", action="store_true",
                       help="print one line per cell as it resolves")
        cli.observe_flags(q)

    status = cmds.add_parser("status", help="list recorded sweeps")
    cli.output_flags(status, json=True)
    status.set_defaults(fn=_status)

    report = cmds.add_parser("report", help="re-analyze recorded rows")
    report.add_argument("sweep", nargs="?", metavar="SWEEP",
                        help="sweep digest prefix (default: all rows)")
    report.set_defaults(fn=_report)

    for q in (status, report):
        cli.store_flags(q)
    for q in (run, resume, status, report):
        cli.db_flag(q, "matrix.db")
    for q, default in ((run, DEFAULT_OUT), (resume, DEFAULT_OUT), (report, None)):
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


def _match_sweep(db: MatrixDB, prefix: Optional[str]) -> dict:
    sweeps = db.sweeps()
    if not sweeps:
        raise MatrixError("no sweeps recorded; run a grid first")
    if prefix is None:
        if len(sweeps) > 1:
            known = ", ".join(s["digest"][:12] for s in sweeps)
            raise MatrixError(
                f"{len(sweeps)} sweeps recorded, name one (known: {known})"
            )
        return sweeps[0]
    matches = [s for s in sweeps if s["digest"].startswith(prefix)]
    if not matches:
        known = ", ".join(s["digest"][:12] for s in sweeps)
        raise MatrixError(f"no sweep matches {prefix!r} (known: {known})")
    if len(matches) > 1:
        raise MatrixError(
            f"sweep prefix {prefix!r} is ambiguous "
            f"({', '.join(s['digest'][:12] for s in matches)})"
        )
    return matches[0]


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


def _run_sweep(args, grid: GridSpec) -> int:
    store = cli.open_store(args)
    meta = {"tool": __package__, "command": args.command,
            "grid": grid.digest()[:12]}

    with MatrixDB(args.db) as db:
        total = len(cell_digests(grid, store))
        with cli.observed(args, meta):
            doc = run_grid(
                grid,
                workers=args.workers,
                store=store,
                db=db,
                resume=not args.fresh,
                max_retries=args.retries,
                timeout_s=args.timeout,
                meta=meta,
                metric=args.metric,
                only=[args.only] if args.only else None,
                on_row=_progress_printer(total) if args.progress else None,
            )

    print(render(doc))
    if args.out:
        # land the sweep artifact in the store the cells ran against
        cli.emit(args, doc, store=store)
    run = doc["run"]
    bad = sum(run.get(s, 0) for s in ("timeout", "failed"))
    return 1 if bad else 0


def _resume(args) -> int:
    with MatrixDB(args.db) as db:
        sweep = _match_sweep(db, args.sweep)
    args.fresh = False  # resuming is the whole point
    return _run_sweep(args, GridSpec.from_json(json.loads(sweep["spec"])))


def _status(args) -> int:
    store = cli.open_store(args)
    with MatrixDB(args.db) as db:
        out = []
        for sweep in db.sweeps():
            grid = GridSpec.from_json(json.loads(sweep["spec"]))
            counts = db.counts(list(cell_digests(grid, store)))
            out.append({
                "sweep": sweep["digest"],
                "cells": counts["total"],
                "done": counts["done"],
                "failed": counts["failed"],
                "missing": counts["missing"],
                "grid": grid.describe(),
            })
    if args.json:
        print(json.dumps(out, indent=2))
        return 0
    if not out:
        print("no sweeps recorded")
        return 0
    for s in out:
        state = "complete" if s["done"] == s["cells"] else "partial"
        print(f"  {s['sweep'][:12]}  {s['done']}/{s['cells']} done "
              f"({s['failed']} failed, {s['missing']} missing, {state})")
        print(f"               {s['grid']}")
    return 0


def _report(args) -> int:
    store = cli.open_store(args)
    with MatrixDB(args.db) as db:
        grid = None
        digests = None
        if args.sweep is not None:
            sweep = _match_sweep(db, args.sweep)
            grid = GridSpec.from_json(json.loads(sweep["spec"]))
            digests = list(cell_digests(grid, store))
        rows = db.rows(digests)
    if not rows:
        raise MatrixError("no result rows recorded; run a grid first")
    doc = build_report(
        rows,
        grid=grid,
        meta={"tool": __package__, "command": "report"},
        metric=args.metric,
        only=[args.only] if args.only else None,
    )
    print(render(doc))
    if args.out:
        cli.emit(args, doc, store=store)
    return 0
