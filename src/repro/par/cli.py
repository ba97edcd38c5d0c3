"""The ``par`` command: ``python -m repro par``.

Subcommands::

    classify [WORKLOAD...|--all]       static verdict per DO loop
    sanitize [WORKLOAD...|--all]       annotate, run the race sanitizer
    bench [--workloads W...]           both layers -> BENCH_par.json

Examples::

    python -m repro par classify --all
    python -m repro par sanitize matmul conv
    python -m repro par bench --out BENCH_par.json

``classify`` prints the detector's verdict (PARALLEL / REDUCTION /
SERIAL) for every loop, with the blocking witness for SERIAL ones.
``sanitize`` executes each workload under the instrumented interpreter
and reports any cross-iteration conflict on a marked loop — a non-empty
result means the static layer mis-marked something and exits 1.
``bench`` does both and writes the enveloped, validated
``repro.par/1`` artifact (default ``BENCH_par.json``) — the file CI
uploads and ``repro perf`` records/gates.

Exit status: 0 on success, 1 on sanitizer conflicts, 2 for usage errors
(unknown workload).
"""

from __future__ import annotations

from repro import cli
from repro.analysis.dependence import render_witness
from repro.errors import ReproError
from repro.par.detect import annotate_procedure, classify_procedure
from repro.par.report import SCHEMA, build_report, build_workload_entry
from repro.par.sanitizer import sanitize
from repro.pipeline.workloads import available_workloads, get_workload

_TAG = {"parallel": "PARALLEL ", "reduction": "REDUCTION", "serial": "SERIAL   "}


def _workload_names(args) -> list[str]:
    if args.all:
        return [w.name for w in available_workloads()]
    if not args.workloads:
        raise ReproError("name at least one WORKLOAD (or use --all)")
    return args.workloads


def _cmd_classify(args) -> int:
    entries = []
    for name in _workload_names(args):
        workload = get_workload(name)
        proc = workload.build()
        verdicts = classify_procedure(proc, workload.context(None))
        entries.append(build_workload_entry(name, proc.name, verdicts))
        counts = entries[-1]["counts"]
        print(f"{name} ({proc.name}): "
              f"{counts['parallel']} parallel, {counts['reduction']} "
              f"reduction, {counts['serial']} serial")
        for v in verdicts:
            line = f"  {_TAG[v.verdict]} DO {'/'.join(v.path):<10} {v.reason}"
            if v.reductions:
                line += f" [{', '.join(v.reductions)}]"
            print(line)
            if v.witness:
                print(f"            witness: {render_witness(v.witness)}")
    if args.out:
        cli.emit(args, build_report(entries, meta={"mode": "classify"}),
                 SCHEMA)
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
    names = args.workloads or [w.name for w in available_workloads()]
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
        counts = entries[-1]["counts"]
        print(f"{name}: {counts['parallel']}p/{counts['reduction']}r/"
              f"{counts['serial']}s, sanitizer "
              f"{'clean' if result.clean else 'CONFLICTS'}")
    cli.emit(args, build_report(
        entries,
        meta={"workloads": ",".join(names), "seed": args.seed},
    ), SCHEMA)
    return 1 if conflicts else 0


def register(sub) -> None:
    p = sub.add_parser(
        "par",
        description="static loop-parallelism detection and dynamic race "
        "sanitizing",
    )
    cmds = p.add_subparsers(dest="command", required=True)

    c = cmds.add_parser("classify", help="static verdict per DO loop")
    s = cmds.add_parser("sanitize", help="run the dynamic race sanitizer")
    for q in (c, s):
        q.add_argument("workloads", nargs="*", metavar="WORKLOAD")
        q.add_argument("--all", action="store_true")
    cli.output_flags(c, out="repro.par/1 report")
    c.set_defaults(fn=_cmd_classify)
    s.set_defaults(fn=_cmd_sanitize)

    b = cmds.add_parser("bench",
                        help="classify + sanitize everything, write "
                        "BENCH_par.json")
    b.add_argument("--workloads", nargs="*", metavar="WORKLOAD",
                   help="default: every registered workload")
    cli.output_flags(b, out="repro.par/1 report", default="BENCH_par.json")
    b.set_defaults(fn=_cmd_bench)
    for q in (s, b):
        q.add_argument("--seed", type=int, default=0)
