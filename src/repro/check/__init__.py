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
from repro.check.linter import LintResult, lint_blockability, lint_loop
from repro.check.report import SCHEMA, build_report
from repro.check.verifier import verify_ir

__all__ = [
    "RULES",
    "Diagnostic",
    "Rule",
    "Severity",
    "SCHEMA",
    "LintResult",
    "build_report",
    "errors_in",
    "lint_blockability",
    "lint_loop",
    "postcheck",
    "precheck",
    "verify_ir",
]
