"""The ``serve`` command: ``python -m repro serve``.

Subcommands::

    submit WORKLOAD [WORKLOAD...]   run jobs for named workloads
    batch SPECS.json                run a JSON batch of job specs
    stats                           print artifact-store statistics
    gc                              prune the artifact store

Examples::

    python -m repro serve submit lu_nopivot conv --workers 4 --check
    python -m repro serve submit lu_nopivot --kind execute --json
    python -m repro serve batch jobs.json --workers 8 --obs serve_obs.json
    python -m repro serve stats
    python -m repro serve gc --max-entries 512 --max-age-s 604800

A batch file is either a list of job-spec objects or ``{"jobs":
[...]}``; each spec takes ``kind`` (derive|check|execute|cell),
``workload``, ``passes`` (list or comma string), ``options`` (unroll,
factor), ``check``, ``timeout_s``, ``max_retries``, ``use_store``,
``label``.

Output is one line per *deduplicated* job (N identical submissions are
one row, ``x N``), then the pool and store counters; ``--json`` prints
the rows instead, one JSON object per line — the row ``daemon submit
--json`` prints (:meth:`repro.serve.pool.JobOutcome.to_dict`).  A
batch's durable record is its ``--obs`` profile (status counts, wall
and queue-wait histograms, one ``job:<label>`` span per job: a validated
``repro.obs/1`` that ``perf record`` ingests); its results are in the store.

Exit status: 0 when every job lands (``hit``/``computed``/``retried``),
1 when any job is ``timeout`` or ``failed``, 2 for usage errors.
"""

from __future__ import annotations

import json

from repro import cli
from repro.errors import PipelineError
from repro.obs import core as _obs
from repro.serve.jobs import SUBMIT_KINDS, JobSpec
from repro.serve.pool import STATUSES, WorkerPool
from repro.serve.store import build_store_ops


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
        cli.output_flags(q, json=True)
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


def _print_rows(rows: list[dict], pool: dict, store) -> None:
    for job in rows:
        worker = f"w{job['worker']}" if job["worker"] is not None else "--"
        dedup = f"  x{job['submissions']}" if job["submissions"] > 1 else ""
        tail = f"  [{job['error']}]" if job["error"] else ""
        print(
            f"  {job['status']:<9} {job['label']:<32} "
            f"{job['wall_s'] * 1000:9.1f} ms  {worker}  "
            f"attempt {job['attempts']}{dedup}{tail}"
        )
    parts = [f"{pool['jobs'][k]} {k}" for k in STATUSES if pool["jobs"].get(k)]
    print(f"{len(rows)} job(s): {', '.join(parts) or 'none'} "
          f"in {pool['elapsed_s']:.2f}s, "
          f"pool utilization {pool['utilization']:.0%}")
    for entry in pool["per_worker"]:
        if not entry["jobs"] and not entry["busy_s"]:
            continue
        print(f"  worker {entry['worker']}: {entry['jobs']} job(s), "
              f"{entry['busy_s']:.2f}s busy  ({entry['utilization']:.0%} busy)")
    if store is not None:
        on_disk = store.stats()
        # workers publish through their own store instances: their
        # writes are the rows' ``stored`` flags, not this counter
        writes = on_disk["writes"] + sum(job["stored"] for job in rows)
        print(
            f"store: {on_disk['hits']} hits / {on_disk['misses']} misses, "
            f"{writes} writes, {on_disk['entries']} entries "
            f"({on_disk['bytes']} bytes) at {on_disk['root']}"
        )


def _run_jobs(args, specs: list[JobSpec]) -> int:
    store = cli.open_store(args)
    with cli.observed(args, {"tool": __package__, "command": args.command}):
        with WorkerPool(
            workers=args.workers, store=store,
            max_retries=args.retries, backoff_s=args.backoff,
        ) as pool:
            for spec in specs:
                pool.submit(spec)
            outcomes = pool.drain()  # one per distinct job: duplicates coalesce
            stats = pool.stats()
        _obs.observe("serve.pool.utilization", stats["utilization"])
    rows = [outcome.to_dict() for outcome in outcomes]
    if args.json:
        for row in rows:
            print(json.dumps(row))
    else:
        _print_rows(rows, stats, store)
    return 0 if all(outcome.ok for outcome in outcomes) else 1


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
