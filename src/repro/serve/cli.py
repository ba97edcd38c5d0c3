"""The ``serve`` command: ``python -m repro serve``.

Subcommands::

    submit WORKLOAD [WORKLOAD...]   run jobs for named workloads
    batch SPECS.json                run a JSON batch of job specs
    stats                           print artifact-store statistics
    gc                              prune the artifact store

Examples::

    python -m repro serve submit lu_nopivot conv --workers 4 --check
    python -m repro serve submit lu_nopivot --kind execute --out report.json
    python -m repro serve batch jobs.json --workers 8 --obs serve_obs.json
    python -m repro serve stats
    python -m repro serve gc --max-entries 512 --max-age-s 604800

A batch file is either a list of job-spec objects or ``{"jobs":
[...]}``; each spec takes ``kind`` (derive|check|execute|cell),
``workload``, ``passes`` (list or comma string), ``options`` (unroll,
factor), ``check``, ``timeout_s``, ``max_retries``, ``use_store``,
``label``.

Exit status: 0 when every job lands (``hit``/``computed``/``retried``),
1 when any job is ``timeout`` or ``failed``, 2 for usage errors.  The
report file is written either way, so failures are inspectable offline.
"""

from __future__ import annotations

import json

from repro import cli
from repro.errors import PipelineError
from repro.serve.jobs import SUBMIT_KINDS, JobSpec
from repro.serve.pool import STATUSES
from repro.serve.service import build_store_ops, run_batch


def register(sub) -> None:
    p = sub.add_parser(
        "serve",
        description="concurrent compile-and-run service over a persistent "
        "content-addressed artifact store",
    )
    cmds = p.add_subparsers(dest="command", required=True)

    submit = cmds.add_parser("submit", help="run jobs for named workloads")
    submit.add_argument("workloads", nargs="+", metavar="WORKLOAD")
    submit.add_argument(
        "--kind",
        choices=SUBMIT_KINDS,
        default="derive",
        help="what each job does (default: derive; 'cell' runs one "
        "experiment-matrix cell at default factors)",
    )
    cli.passes_flag(submit)
    submit.add_argument(
        "--check",
        action="store_true",
        help="run the repro.check legality gate inside the workers",
    )
    submit.add_argument(
        "--repeat",
        type=int,
        default=1,
        metavar="N",
        help="submit every job N times (deduplicated in flight; default 1)",
    )
    submit.add_argument("--timeout", type=float, default=300.0, metavar="S",
                        help="per-job timeout in seconds (default 300)")
    submit.set_defaults(
        fn=lambda args: _run_jobs(args, _specs_from_submit(args)))

    batch = cmds.add_parser("batch", help="run a JSON batch of job specs")
    batch.add_argument("specs", metavar="SPECS.json")
    batch.set_defaults(
        fn=lambda args: _run_jobs(args, _specs_from_batch(args.specs)))

    for q in (submit, batch):
        cli.pool_flags(q)
        cli.store_flags(q, no_store=True)
        cli.output_flags(q, out="repro.serve/1 report")
        cli.observe_flags(q)

    stats = cmds.add_parser("stats", help="print artifact-store statistics")
    stats.set_defaults(fn=_cmd_stats)

    gc = cmds.add_parser("gc", help="prune the artifact store")
    gc.add_argument("--max-entries", type=int, metavar="N",
                    help="keep at most N entries (oldest evicted first)")
    gc.add_argument("--max-age-s", type=float, metavar="S",
                    help="evict entries older than S seconds")
    gc.set_defaults(fn=_cmd_gc)

    for q in (stats, gc):
        cli.store_flags(q)
        cli.output_flags(q, json=True)


def _specs_from_submit(args) -> list[JobSpec]:
    passes = cli.split_passes(args.passes)
    specs = []
    for _ in range(max(1, args.repeat)):
        for name in args.workloads:
            specs.append(
                JobSpec(
                    kind=args.kind,
                    workload=name,
                    passes=passes,
                    check=args.check,
                    timeout_s=args.timeout,
                )
            )
    return specs


def _specs_from_batch(path: str) -> list[JobSpec]:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as e:
        raise PipelineError(f"cannot read batch file: {e}") from e
    except json.JSONDecodeError as e:
        raise PipelineError(f"batch file is not valid JSON: {e}") from e
    if isinstance(doc, dict):
        doc = doc.get("jobs")
    if not isinstance(doc, list) or not doc:
        raise PipelineError(
            "batch file must be a non-empty list of job specs "
            '(or {"jobs": [...]})'
        )
    return [JobSpec.from_dict(entry) for entry in doc]


def _print_report(report: dict) -> None:
    for job in report["jobs"]:
        worker = f"w{job['worker']}" if job["worker"] is not None else "--"
        dedup = f"  x{job['submissions']}" if job["submissions"] > 1 else ""
        tail = f"  [{job['error']}]" if job["error"] else ""
        print(
            f"  {job['status']:<9} {job['label']:<32} "
            f"{job['wall_s'] * 1000:9.1f} ms  {worker}  "
            f"attempt {job['attempts']}{dedup}{tail}"
        )
    s = report["summary"]
    parts = [f"{s[k]} {k}" for k in STATUSES if s[k]]
    util = report["pool"].get("utilization")
    util_txt = f", pool utilization {util:.0%}" if util is not None else ""
    print(f"{s['total']} job(s): {', '.join(parts) or 'none'} "
          f"in {report['elapsed_s']:.2f}s{util_txt}")
    wall = report.get("latency", {}).get("wall_s", {})
    if wall.get("count"):
        print(
            f"latency: p50 {wall['p50'] * 1000:.1f} ms / "
            f"p95 {wall['p95'] * 1000:.1f} ms / "
            f"p99 {wall['p99'] * 1000:.1f} ms "
            f"(max {wall['max'] * 1000:.1f} ms over {wall['count']} job(s))"
        )
    for entry in report["pool"].get("per_worker", []):
        if not entry["jobs"] and not entry["busy_s"]:
            continue
        u = entry.get("utilization")
        u_txt = f"  ({u:.0%} busy)" if u is not None else ""
        print(f"  worker {entry['worker']}: {entry['jobs']} job(s), "
              f"{entry['busy_s']:.2f}s busy{u_txt}")
    store = report["store"]
    if store.get("enabled"):
        print(
            f"store: {store['hits']} hits / {store['misses']} misses, "
            f"{store['writes']} writes, {store['entries']} entries "
            f"({store['bytes']} bytes) at {store['root']}"
        )


def _run_jobs(args, specs: list[JobSpec]) -> int:
    store = cli.open_store(args)
    meta = {"tool": __package__, "command": args.command}
    with cli.observed(args, meta):
        report = run_batch(
            specs,
            workers=args.workers,
            store=store,
            max_retries=args.retries,
            backoff_s=args.backoff,
            meta=meta,
        )
    _print_report(report)
    if args.out:
        # land the report in the same store the batch ran against (the
        # stats snapshot inside it predates this write, on purpose)
        cli.emit(args, report, store=store)
    return 0 if report["summary"]["ok"] == report["summary"]["total"] else 1


def _cmd_stats(args) -> int:
    # even the maintenance records ship enveloped: `--json` output is a
    # repro.serve.store/1 document that `repro artifacts validate -` accepts
    doc = build_store_ops("stats", cli.open_store(args))
    cli.emit(args, doc)
    if not args.json:
        on_disk = doc["store"]
        print(f"store at {on_disk['root']} "
              f"(schema v{on_disk['schema_version']}): "
              f"{on_disk['entries']} entries, {on_disk['bytes']} bytes")
    return 0


def _cmd_gc(args) -> int:
    if args.max_entries is None and args.max_age_s is None:
        raise PipelineError("gc needs --max-entries and/or --max-age-s")
    store = cli.open_store(args)
    summary = store.gc(max_entries=args.max_entries, max_age_s=args.max_age_s)
    cli.emit(args, build_store_ops("gc", store, gc=summary))
    if not args.json:
        print(f"gc: removed {summary['removed']}, kept {summary['kept']}")
    return 0
