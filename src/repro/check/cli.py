"""The ``check`` command: ``python -m repro check``.

Runs the full check stack over registered workloads::

    python -m repro check lu_nopivot            # one workload
    python -m repro check --all --out out.json  # every workload + report
    python -m repro check --rules               # print the rule catalogue

Per workload it (1) verifies the freshly built IR against the
structural invariants, (2) lints every outermost loop for
blockability, and (3) re-derives the workload's default pass pipeline
under ``check=True`` so every pass is bracketed by legality
pre/postchecks and IR re-verification.  ``--out PATH`` writes a
``repro.check/1`` report (diagnostics + rule catalogue + lint
verdicts; shape: :data:`repro.check.report.SHAPE`).

With ``--store`` the enveloped report also lands in the
content-addressed artifact store, where ``repro artifacts
ls|cat|validate`` see it.  Every run rechecks: a verdict is only as
fresh as the code it judged.  Store-backed reuse of a check is the
served ``check`` job (``repro serve|daemon submit --kind check``), keyed
by IR fingerprint, resolved recipe and context facts.

Exit status: 0 when no error-severity diagnostic was produced, 1 when
at least one was, 2 for usage errors (unknown workload).
"""

from __future__ import annotations

from repro import cli
from repro.check import audit_workload
from repro.check.diagnostics import RULES, Severity, errors_in
from repro.check.report import build_report
from repro.errors import PipelineError
from repro.pipeline.workloads import available_workloads


def register(sub) -> None:
    p = sub.add_parser(
        "check",
        description="verify IR, check transformation legality, and lint "
        "blockability for the paper's workloads",
    )
    p.add_argument("workloads", nargs="*", metavar="WORKLOAD",
                   help="workload names (see python -m repro pipeline "
                   "--list-algorithms)")
    p.add_argument("--all", action="store_true",
                   help="check every registered workload")
    cli.output_flags(p, out="repro.check/1 report")
    p.add_argument("--rules", action="store_true",
                   help="print the rule catalogue and exit")
    cli.store_flags(p, store="publish the report to the content-addressed "
                    "artifact store")
    p.set_defaults(fn=run)


def run(args) -> int:
    if args.rules:
        for rule in RULES.values():
            print(f"{rule.severity.value:<8} {rule.id:<34} {rule.summary}")
        return 0

    if args.all:
        names = [w.name for w in available_workloads()]
    else:
        names = args.workloads
    if not names:
        raise PipelineError(
            "name at least one WORKLOAD (or use --all / --rules)"
        )

    diagnostics: list = []
    verdicts: list = []
    status = 0
    for name in names:
        new, new_verdicts = audit_workload(name)
        diagnostics += new
        verdicts += new_verdicts
        errs = errors_in(new)
        verdict_part = "; ".join(
            f"DO {v.loop_var}: {v.verdict}" for v in new_verdicts
        )
        print(f"{name:<12} {len(new)} diagnostic(s), {len(errs)} error(s)"
              + (f"  [{verdict_part}]" if verdict_part else ""))
        for d in new:
            if d.severity != Severity.INFO:
                print(f"  {d.pretty()}")
        if errs:
            status = 1

    store = cli.open_store(args)
    if args.out or store is not None:
        report = build_report(
            diagnostics,
            verdicts=verdicts,
            meta={"tool": __package__, "workloads": ",".join(names)},
        )
        cli.emit(args, report, store=store)
        if store is not None:
            print("report published to the artifact store")
    return status
