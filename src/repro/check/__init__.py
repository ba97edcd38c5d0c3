"""Static IR verifier, transformation-legality checker, and
blockability linter (``repro.check``).

Three layers of redundancy over the transformation stack (the paper's
argument is about *legality*, so legality gets an independent audit):

- :mod:`repro.check.verifier` — structural IR invariants (``ir/*``);
- :mod:`repro.check.legality` — per-pass legality predicates re-derived
  from :mod:`repro.analysis` (``legal/*``), run by
  :class:`~repro.pipeline.manager.PassManager` in ``--check`` mode;
- :mod:`repro.check.linter` — the static blockability classifier
  (``lint/*``) reproducing the Sec. 5 verdicts without running a single
  transformation.

Findings are :class:`~repro.check.diagnostics.Diagnostic` values;
reports follow the ``repro.check/1`` schema
(:mod:`repro.check.report`); ``python -m repro check`` drives it all
from the command line.
"""

from repro.check.diagnostics import RULES, Diagnostic, Rule, Severity, errors_in
from repro.check.legality import postcheck, precheck
from repro.check.linter import LintResult, lint_blockability, lint_loop, lint_parallelism
from repro.check.report import SCHEMA, build_report
from repro.check.verifier import verify_ir
from repro.errors import CheckError
from repro.pipeline import derive
from repro.pipeline.cache import AnalysisCache
from repro.pipeline.workloads import get_workload

__all__ = [
    "RULES",
    "Diagnostic",
    "Rule",
    "Severity",
    "SCHEMA",
    "LintResult",
    "audit_workload",
    "build_report",
    "errors_in",
    "lint_blockability",
    "lint_loop",
    "postcheck",
    "precheck",
    "verify_ir",
]


def audit_workload(name: str) -> tuple[list[Diagnostic], list[LintResult]]:
    """The whole stack over one registered workload — what ``repro check
    NAME`` and the served ``check`` job both report: verify the freshly
    built IR, lint every outermost loop for blockability (the verdicts,
    also mirrored as ``lint/*`` diagnostics) and every loop for
    parallelism, then re-derive the default pipeline under ``check=True``
    so each pass is bracketed by legality pre/postchecks."""
    workload = get_workload(name)
    ctx = workload.context(None)
    proc = workload.build()
    diagnostics = list(verify_ir(proc, ctx))
    verdicts = lint_blockability(proc, ctx)
    diagnostics.extend(res.diagnostic() for res in verdicts)
    diagnostics.extend(lint_parallelism(proc, ctx))
    try:
        diagnostics.extend(derive(name, cache=AnalysisCache(), check=True).check_diagnostics)
    except CheckError as e:
        diagnostics.extend(e.diagnostics)
    return diagnostics, verdicts
