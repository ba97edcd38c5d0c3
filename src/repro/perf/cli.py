"""The ``perf`` command: ``python -m repro perf``.

Subcommands::

    record ARTIFACT        flatten an artifact into the run history
    runs                   list recorded runs
    diff A B               per-metric deltas between two recorded runs
    trend METRIC           one metric's timeline across runs
    gate ARTIFACT          compare an artifact against a baseline; the
                           exit code is the verdict

Examples::

    python -m repro pipeline -a lu_nopivot -p split,block,jam --trace t.json
    python -m repro perf record t.json --label main
    # ... hack on the blocker ...
    python -m repro perf record t2.json --label work
    python -m repro perf diff main work --metrics 'pass:*'
    python -m repro perf trend pass:block.wall_s
    python -m repro perf gate t2.json --baseline main \\
        --metrics 'pass:*.ir_size_after' --threshold 0

``gate`` exit codes: 0 ok (improved / within noise), 1 regressed,
2 usage error, 3 no baseline to compare against.  ``--baseline-file``
gates against a committed ``repro.perf.baseline/1`` snapshot instead of
the local database — that is what CI does, so the gate is reproducible
on a fresh checkout with an empty cache dir.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from typing import Optional

from repro import cli
from repro.artifacts import publish
from repro.errors import PerfError
from repro.perf import gate as gate_mod
from repro.perf import ingest
from repro.perf.db import PerfDB


def register(sub) -> None:
    p = sub.add_parser(
        "perf",
        description="cross-run performance timeline: record artifacts, "
        "diff runs, and gate on regressions",
    )
    cmds = p.add_subparsers(dest="command", required=True)

    record = cmds.add_parser("record", help="flatten an artifact into the "
                             "run history")
    record.add_argument("artifact", metavar="ARTIFACT.json")
    record.add_argument("--git-sha", metavar="SHA",
                        help="record this commit id (default: ask git)")
    record.add_argument("--baseline-out", metavar="PATH",
                        help="also write the flattened metrics as a "
                        "committable repro.perf.baseline/1 file")
    record.set_defaults(fn=_cmd_record)

    runs = cmds.add_parser("runs", help="list recorded runs")
    runs.set_defaults(fn=_cmd_runs)

    diff = cmds.add_parser("diff", help="per-metric deltas between two "
                           "recorded runs")
    diff.add_argument("a", metavar="RUN_A",
                      help="run selector: id, label, latest, latest~N")
    diff.add_argument("b", metavar="RUN_B")
    diff.set_defaults(fn=_cmd_diff)

    trend = cmds.add_parser("trend", help="one metric's timeline across runs")
    trend.add_argument("metric", metavar="METRIC",
                       help="exact metric name (see 'diff' output or "
                       "--list for names)")
    trend.add_argument("--list", action="store_true",
                       help="treat METRIC as a SQL LIKE pattern and list "
                       "matching metric names instead")
    trend.set_defaults(fn=_cmd_trend)

    g = cmds.add_parser("gate", help="compare an artifact against a "
                        "baseline; exit code is the verdict")
    g.add_argument("artifact", metavar="ARTIFACT.json")
    g.add_argument("--baseline", metavar="SELECTOR",
                   help="baseline run in the database (id, label, "
                   "latest, latest~N)")
    g.add_argument("--baseline-file", metavar="PATH",
                   help="baseline from a committed repro.perf.baseline/1 "
                   "file instead of the database")
    g.add_argument("--threshold", type=float, default=10.0, metavar="PCT",
                   help="noise threshold in percent; increases beyond it "
                   "regress, decreases beyond it improve (default 10; use "
                   "0 for deterministic metrics)")
    g.add_argument("--record", action="store_true",
                   help="also record the artifact into the run history")
    cli.output_flags(g, out="repro.perf.gate/1 verdict")
    g.set_defaults(fn=_cmd_gate)

    for q in (record, g):
        q.add_argument("--label", default="", metavar="NAME",
                       help="name the recorded run (labels resolve to their "
                       "most recent run in selectors)")
    for q in (runs, trend):
        q.add_argument("--limit", type=int, default=20, metavar="N",
                       help="show the newest N entries (default 20)")
    for q in (diff, g):
        q.add_argument("--metrics", default="*", metavar="PATTERNS",
                       help="comma-separated glob patterns selecting tracked "
                       "metrics (default '*'; e.g. 'pass:*.wall_s,elapsed_s')")
    for q in (record, runs, diff, trend):
        cli.output_flags(q, json=True)
    for q in (record, runs, diff, trend, g):
        cli.db_flag(q)


def _patterns(args) -> list[str]:
    pats = [s.strip() for s in args.metrics.split(",") if s.strip()]
    if not pats:
        raise PerfError("--metrics selected nothing")
    return pats


def _git_sha() -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None if out.returncode == 0 else None


def _fmt_value(v: Optional[float]) -> str:
    if v is None:
        return "--"
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return f"{v:.6g}"


# ---- subcommands -----------------------------------------------------------


def _cmd_record(args) -> int:
    doc = ingest.load_artifact(args.artifact)
    with PerfDB(args.db) as db:
        run = db.record(
            doc,
            label=args.label,
            source=args.artifact,
            git_sha=args.git_sha or _git_sha(),
        )
    if args.baseline_out:
        base = gate_mod.baseline_doc(
            ingest.flatten(doc),
            meta={
                "source": args.artifact,
                "artifact_schema": run["artifact_schema"],
                "git_sha": run["git_sha"] or "",
                "created_s": run["created_s"],
            },
        )
        publish(args.baseline_out, base, producer=args.producer)
    if args.json:
        print(json.dumps(run, indent=2))
    else:
        label = f" label={args.label!r}" if args.label else ""
        print(f"recorded run #{run['id']}{label}: {run['metrics']} metrics "
              f"from {run['artifact_schema']} ({args.artifact})")
        if args.baseline_out:
            print(f"baseline written to {args.baseline_out}")
    return 0


def _cmd_runs(args) -> int:
    with PerfDB(args.db) as db:
        rows = db.runs(limit=args.limit)
    if args.json:
        print(json.dumps(rows, indent=2))
        return 0
    if not rows:
        print("no recorded runs")
        return 0
    for r in rows:
        when = time.strftime("%Y-%m-%d %H:%M:%S", time.localtime(r["created_s"]))
        label = f"  [{r['label']}]" if r["label"] else ""
        sha = f"  @{r['git_sha']}" if r["git_sha"] else ""
        print(f"  #{r['id']:<4} {when}  {r['artifact_schema']:<24}"
              f"{label}{sha}  {r['source']}")
    return 0


def _cmd_diff(args) -> int:
    patterns = _patterns(args)
    with PerfDB(args.db) as db:
        ra, rb = db.run(args.a), db.run(args.b)
        ma, mb = db.metrics_for(ra["id"]), db.metrics_for(rb["id"])
    rows = gate_mod.diff(ma, mb, patterns)
    if args.json:
        print(json.dumps({"a": ra["id"], "b": rb["id"], "rows": rows},
                         indent=2))
        return 0
    print(f"run #{ra['id']} -> #{rb['id']} ({len(rows)} metric(s))")
    for row in rows:
        pct = f"{row['pct']:+8.2f}%" if row["pct"] is not None else "       --"
        print(f"  {row['metric']:<44} {_fmt_value(row['a']):>12} -> "
              f"{_fmt_value(row['b']):>12}  {pct}")
    return 0


def _cmd_trend(args) -> int:
    with PerfDB(args.db) as db:
        if args.list:
            names = db.metric_names(like=args.metric)
            if args.json:
                print(json.dumps(names, indent=2))
            else:
                for name in names:
                    print(f"  {name}")
            return 0
        points = db.history(args.metric, limit=args.limit)
    if not points:
        raise PerfError(
            f"no recorded values for metric {args.metric!r} "
            "(try --list with a LIKE pattern, e.g. 'pass:%')"
        )
    if args.json:
        print(json.dumps({"metric": args.metric, "points": points}, indent=2))
        return 0
    values = [p["value"] for p in points]
    lo, hi = min(values), max(values)
    print(f"{args.metric}: {len(points)} point(s), "
          f"min {_fmt_value(lo)}, max {_fmt_value(hi)}, "
          f"latest {_fmt_value(values[-1])}")
    for prev, p in zip([None] + points[:-1], points):
        when = time.strftime("%Y-%m-%d %H:%M:%S", time.localtime(p["created_s"]))
        label = f"  [{p['label']}]" if p["label"] else ""
        step = ""
        if prev is not None and prev["value"] != 0:
            step = f"  ({100.0 * (p['value'] - prev['value']) / abs(prev['value']):+.1f}%)"
        print(f"  #{p['run_id']:<4} {when}  {_fmt_value(p['value']):>12}"
              f"{step}{label}")
    return 0


def _cmd_gate(args) -> int:
    if (args.baseline is None) == (args.baseline_file is None):
        raise PerfError("gate needs exactly one of --baseline / --baseline-file")
    patterns = _patterns(args)
    doc = ingest.load_artifact(args.artifact)
    current = ingest.flatten(doc)
    if args.baseline_file is not None:
        baseline = gate_mod.read_baseline(args.baseline_file)
    else:
        with PerfDB(args.db) as db:
            try:
                base_run = db.run(args.baseline)
            except PerfError as e:
                print(f"no baseline: {e}", file=sys.stderr)
                return gate_mod.EXIT_NO_BASELINE
            baseline = db.metrics_for(base_run["id"])
    result = gate_mod.compare(
        current, baseline, patterns=patterns, threshold_pct=args.threshold
    )
    if args.record:
        with PerfDB(args.db) as db:
            db.record(doc, label=args.label, source=args.artifact,
                      git_sha=_git_sha())
    _print_gate(result)
    if args.out:
        cli.emit(args, result, what="gate verdict")
    return result["exit_code"]


def _print_gate(result: dict) -> None:
    marks = {"regressed": "FAIL", "improved": "ok  ", "within-noise": "ok  ",
             "missing-baseline": "??  "}
    for row in result["rows"]:
        if row["verdict"] == "within-noise" and row["delta"] == 0:
            continue  # keep the output focused on what moved
        pct = f"{row['pct']:+8.2f}%" if row["pct"] is not None else "       --"
        print(f"  {marks[row['verdict']]} {row['metric']:<44} "
              f"{_fmt_value(row['baseline']):>12} -> "
              f"{_fmt_value(row['current']):>12}  {pct}  {row['verdict']}")
    c = result["counts"]
    print(f"gate: {result['verdict']} "
          f"({c['regressed']} regressed, {c['improved']} improved, "
          f"{c['within-noise']} within noise, "
          f"{c['missing-baseline']} missing baseline; "
          f"threshold {result['threshold_pct']}%)")
