"""Command-line front end: ``python -m repro.par``.

Subcommands::

    classify [WORKLOAD...|--all]       static verdict per DO loop
    sanitize [WORKLOAD...|--all]       annotate, run the race sanitizer
    bench [--workloads W...]           both layers -> BENCH_par.json

Examples::

    python -m repro.par classify --all
    python -m repro.par sanitize matmul conv
    python -m repro.par bench --json BENCH_par.json

``classify`` prints the detector's verdict (PARALLEL / REDUCTION /
SERIAL) for every loop, with the blocking witness for SERIAL ones.
``sanitize`` executes each workload under the instrumented interpreter
and reports any cross-iteration conflict on a marked loop — a non-empty
result means the static layer mis-marked something and exits 1.
``bench`` does both and writes the enveloped, self-validated
``repro.par/1`` artifact (default ``BENCH_par.json``) — the file CI
uploads and ``repro.perf`` records/gates.

Exit status: 0 on success, 1 on sanitizer conflicts, 2 for usage errors
(unknown workload).
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from repro.errors import ReproError
from repro.par.detect import annotate_procedure, classify_procedure, verdict_counts
from repro.par.report import build_report, build_workload_entry, validate_report, write_report
from repro.par.sanitizer import sanitize
from repro.pipeline.workloads import available_workloads, get_workload

_TAG = {"parallel": "PARALLEL ", "reduction": "REDUCTION", "serial": "SERIAL   "}


def _workload_names(args) -> list[str]:
    if getattr(args, "all", False):
        return [w.name for w in available_workloads()]
    names = list(getattr(args, "workloads", []) or [])
    if not names:
        raise ReproError("name at least one WORKLOAD (or use --all)")
    return names


def _cmd_classify(args) -> int:
    entries = []
    for name in _workload_names(args):
        workload = get_workload(name)
        proc = workload.build()
        verdicts = classify_procedure(proc, workload.context(None))
        entries.append(build_workload_entry(name, proc.name, verdicts))
        counts = verdict_counts(verdicts)
        print(f"{name} ({proc.name}): "
              f"{counts['parallel']} parallel, {counts['reduction']} "
              f"reduction, {counts['serial']} serial")
        for v in verdicts:
            line = f"  {_TAG[v.verdict]} DO {'/'.join(v.path):<10} {v.reason}"
            if v.reductions:
                line += f" [{', '.join(v.reductions)}]"
            print(line)
            if v.witness and "array" in v.witness:
                w = v.witness
                print(f"            witness: {w['kind']} dep on {w['array']} "
                      f"({w['source']} -> {w['sink']}, "
                      f"direction {'/'.join(w['direction'])})")
    if args.json:
        doc = build_report(entries, meta={"mode": "classify"})
        problems = validate_report(doc)
        if problems:
            print("report failed self-validation:", *problems, sep="\n  ",
                  file=sys.stderr)
            return 2
        write_report(args.json, doc)
        print(f"report written to {args.json}")
    return 0


def _cmd_sanitize(args) -> int:
    total = 0
    for name in _workload_names(args):
        workload = get_workload(name)
        proc, _ = annotate_procedure(workload.build(), workload.context(None))
        result = sanitize(proc, dict(workload.verify_sizes), seed=args.seed)
        status = "clean" if result.clean else f"{len(result.conflicts)} CONFLICT(S)"
        print(f"{name}: {result.loops_checked} PARALLEL loop(s) checked, {status}")
        for c in result.conflicts:
            print(f"  {c.rule}: {c.describe()}")
        total += len(result.conflicts)
    return 1 if total else 0


def _cmd_bench(args) -> int:
    names = [w.name for w in available_workloads()] \
        if not args.workloads else args.workloads
    entries = []
    conflicts = 0
    for name in names:
        workload = get_workload(name)
        proc, verdicts = annotate_procedure(
            workload.build(), workload.context(None))
        result = sanitize(proc, dict(workload.verify_sizes), seed=args.seed)
        entries.append(build_workload_entry(
            name, proc.name, verdicts, sanitizer=result.to_dict()))
        conflicts += len(result.conflicts)
        counts = verdict_counts(verdicts)
        print(f"{name}: {counts['parallel']}p/{counts['reduction']}r/"
              f"{counts['serial']}s, sanitizer "
              f"{'clean' if result.clean else 'CONFLICTS'}")
    doc = build_report(
        entries,
        meta={"workloads": ",".join(names), "seed": args.seed},
    )
    problems = validate_report(doc)
    if problems:
        print("report failed self-validation:", *problems, sep="\n  ",
              file=sys.stderr)
        return 2
    env = write_report(args.json, doc)
    print(f"report written to {args.json} ({env['digest'][:12]})")
    return 1 if conflicts else 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="python -m repro.par",
        description="static loop-parallelism detection and dynamic race "
        "sanitizing",
    )
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("classify", help="static verdict per DO loop")
    c.add_argument("workloads", nargs="*", metavar="WORKLOAD")
    c.add_argument("--all", action="store_true")
    c.add_argument("--json", metavar="PATH",
                   help="write a repro.par/1 report here")
    c.set_defaults(fn=_cmd_classify)

    s = sub.add_parser("sanitize", help="run the dynamic race sanitizer")
    s.add_argument("workloads", nargs="*", metavar="WORKLOAD")
    s.add_argument("--all", action="store_true")
    s.add_argument("--seed", type=int, default=0)
    s.set_defaults(fn=_cmd_sanitize)

    b = sub.add_parser("bench",
                       help="classify + sanitize everything, write "
                       "BENCH_par.json")
    b.add_argument("--workloads", nargs="*", metavar="WORKLOAD",
                   help="default: every registered workload")
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--json", metavar="PATH", default="BENCH_par.json")
    b.set_defaults(fn=_cmd_bench)
    return p


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ReproError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
