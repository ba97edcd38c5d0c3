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

A recorded run is a ``repro.perf.baseline/1`` envelope in the artifact
store (``--store-dir``); ``record --out`` also writes it to a file, and
``gate --baseline`` takes such a file or a run selector (a file path
wins) — CI gates against the committed ``benchmarks/perf_baseline.json``,
so the gate is reproducible on a fresh checkout with an empty store.

``gate`` exit codes: 0 ok (improved / within noise), 1 regressed,
2 usage error, 3 no baseline to compare against.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from typing import Optional

from repro import cli
from repro.artifacts import write_file
from repro.errors import PerfError
from repro.perf import gate as gate_mod
from repro.perf import ingest

_SELECTOR = "run selector: label, latest, latest~N, or digest prefix"


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
    cli.output_flags(record, out="run (a committable repro.perf.baseline/1 "
                     "document)", json=True)
    record.set_defaults(fn=_cmd_record)

    runs = cmds.add_parser("runs", help="list recorded runs")
    runs.set_defaults(fn=_cmd_runs)

    diff = cmds.add_parser("diff", help="per-metric deltas between two "
                           "recorded runs")
    diff.add_argument("a", metavar="RUN_A", help=_SELECTOR)
    diff.add_argument("b", metavar="RUN_B")
    diff.set_defaults(fn=_cmd_diff)

    trend = cmds.add_parser("trend", help="one metric's timeline across runs")
    trend.add_argument("metric", metavar="METRIC",
                       help="exact metric name (see 'diff' output or "
                       "--list for names)")
    trend.add_argument("--list", action="store_true",
                       help="treat METRIC as comma-separated glob patterns "
                       "(as --metrics) and list matching metric names instead")
    trend.set_defaults(fn=_cmd_trend)

    g = cmds.add_parser("gate", help="compare an artifact against a "
                        "baseline; exit code is the verdict")
    g.add_argument("artifact", metavar="ARTIFACT.json")
    g.add_argument("--baseline", required=True, metavar="FILE|RUN",
                   help="a repro.perf.baseline/1 file, or a recorded "
                   f"run ({_SELECTOR}); a file path wins")
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
                       help="show the newest N >= 1 entries (default 20)")
    for q in (diff, g):
        q.add_argument("--metrics", default="*", metavar="PATTERNS",
                       help="comma-separated glob patterns selecting tracked "
                       "metrics (default '*'; e.g. 'pass:*.wall_s,elapsed_s')")
    for q in (runs, diff, trend):
        cli.output_flags(q, json=True)
    for q in (record, runs, diff, trend, g):
        cli.store_flags(q)


def _split(text: str, flag: str) -> list[str]:
    pats = [s.strip() for s in text.split(",") if s.strip()]
    if not pats:
        raise PerfError(f"{flag} selected nothing")
    return pats


def _history(args) -> list[dict]:
    """The store's runs, oldest first; corrupt entries are reported."""
    store = cli.open_store(args)
    found = ingest.runs(store)
    if store.corrupt:
        print(f"warning: skipped {store.corrupt} corrupt store entr"
              f"{'y' if store.corrupt == 1 else 'ies'}", file=sys.stderr)
    return found


def _newest(rows: list, args) -> list:
    if args.limit < 1:
        raise PerfError(f"--limit must be >= 1, got {args.limit}")
    return rows[-args.limit:]


def _summary(run: dict) -> dict:
    """A run row with its metric count in place of the metrics."""
    return dict(run, metrics=len(run["metrics"]))


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


def _when(created_s: float) -> str:
    return time.strftime("%Y-%m-%d %H:%M:%S", time.localtime(created_s))


# ---- subcommands -----------------------------------------------------------


def _cmd_record(args) -> int:
    doc = ingest.load_artifact(args.artifact)
    env = ingest.record(cli.open_store(args), doc, label=args.label,
                        source=args.artifact,
                        git_sha=args.git_sha or _git_sha())
    if args.out:
        write_file(args.out, env)
    run = _summary(ingest.run_of(env))
    if args.json:
        print(json.dumps(run, indent=2))
    else:
        label = f" label={args.label!r}" if args.label else ""
        print(f"recorded run {run['id'][:12]}{label}: {run['metrics']} "
              f"metrics from {run['artifact_schema']} ({args.artifact})")
        if args.out:
            print(f"run written to {args.out}")
    return 0


def _cmd_runs(args) -> int:
    rows = [_summary(r) for r in _newest(_history(args), args)]
    if args.json:
        print(json.dumps(rows, indent=2))
        return 0
    if not rows:
        print("no recorded runs")
        return 0
    for r in rows:
        label = f"  [{r['label']}]" if r["label"] else ""
        sha = f"  @{r['git_sha']}" if r["git_sha"] else ""
        print(f"  {r['id'][:12]}  {_when(r['created_s'])}  "
              f"{r['artifact_schema']:<24}{label}{sha}  {r['source']}")
    return 0


def _cmd_diff(args) -> int:
    patterns = _split(args.metrics, "--metrics")
    history = _history(args)
    ra, rb = ingest.select(history, args.a), ingest.select(history, args.b)
    rows = gate_mod.diff(ra["metrics"], rb["metrics"], patterns)
    if args.json:
        print(json.dumps({"a": ra["id"], "b": rb["id"], "rows": rows},
                         indent=2))
        return 0
    print(f"run {ra['id'][:12]} -> {rb['id'][:12]} ({len(rows)} metric(s))")
    for row in rows:
        pct = f"{row['pct']:+8.2f}%" if row["pct"] is not None else "       --"
        print(f"  {row['metric']:<44} {_fmt_value(row['a']):>12} -> "
              f"{_fmt_value(row['b']):>12}  {pct}")
    return 0


def _cmd_trend(args) -> int:
    history = _history(args)
    if args.list:
        names = gate_mod.tracked(
            {name for r in history for name in r["metrics"]},
            _split(args.metric, "METRIC"),
        )
        if args.json:
            print(json.dumps(names, indent=2))
        else:
            for name in names:
                print(f"  {name}")
        return 0
    points = _newest([
        {"run_id": r["id"], "label": r["label"], "git_sha": r["git_sha"],
         "created_s": r["created_s"], "value": r["metrics"][args.metric]}
        for r in history if args.metric in r["metrics"]
    ], args)
    if not points:
        raise PerfError(
            f"no recorded values for metric {args.metric!r} "
            "(try --list with a glob pattern, e.g. 'pass:*')"
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
        label = f"  [{p['label']}]" if p["label"] else ""
        step = ""
        if prev is not None and prev["value"] != 0:
            step = f"  ({100.0 * (p['value'] - prev['value']) / abs(prev['value']):+.1f}%)"
        print(f"  {p['run_id'][:12]}  {_when(p['created_s'])}  "
              f"{_fmt_value(p['value']):>12}{step}{label}")
    return 0


def _cmd_gate(args) -> int:
    patterns = _split(args.metrics, "--metrics")
    doc = ingest.load_artifact(args.artifact)
    current = ingest.flatten(doc)
    if os.path.exists(args.baseline):
        baseline = gate_mod.read_baseline(args.baseline)
    else:
        try:
            baseline = ingest.select(_history(args), args.baseline)["metrics"]
        except PerfError as e:
            print(f"no baseline: {e}", file=sys.stderr)
            return gate_mod.EXIT_NO_BASELINE
    result = gate_mod.compare(
        current, baseline, patterns=patterns, threshold_pct=args.threshold
    )
    if args.record:
        ingest.record(cli.open_store(args), doc, label=args.label,
                      source=args.artifact, git_sha=_git_sha())
    _print_gate(result)
    if args.out:
        cli.emit(args, result, gate_mod.SCHEMA, what="gate verdict")
    return gate_mod.exit_code(result)


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
