"""The ``repro.check/1`` report schema: build, shape, invariants, flatten.

.. code-block:: text

    {
      'schema': 'repro.check/1',
      'meta': {'workloads': 'lu_nopivot,givens', ...},   # free-form strings
      'rules': {'ir/zero-step': {'severity', 'summary'}, ...},
      'diagnostics': [{'rule', 'severity', 'path', 'message'}, ...],
      'summary': {'error': 0, 'warning': 1, 'info': 3},
      'verdicts': [{'procedure', 'loop', 'verdict', 'reason',
                    'preventing': str|null}, ...]
    }

``rules`` embeds the catalogue so a report is self-describing;
``summary`` counts diagnostics by severity; ``verdicts`` carries the
linter's blockability classifications (also mirrored as ``lint/*``
diagnostics).  :data:`SHAPE` is the checked structure and
:func:`invariants` the recount over it; the ``check-smoke`` CI job
validates a report over the shipped workloads.
Reports are written enveloped (see :mod:`repro.artifacts`); schema
identity and digest live in the envelope layer.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.artifacts.flatten import Sink
from repro.artifacts.registry import CHECK_REPORT as SCHEMA
from repro.artifacts.shape import enum
from repro.check.diagnostics import RULES, Diagnostic, Severity
from repro.check.linter import (
    BLOCKABLE,
    BLOCKABLE_WITH_COMMUTATIVITY,
    NOT_BLOCKABLE,
    LintResult,
)

_SEVERITIES = tuple(s.value for s in Severity)


def build_report(
    diagnostics: Iterable[Diagnostic],
    verdicts: Iterable[LintResult] = (),
    meta: Optional[dict] = None,
) -> dict:
    diags = list(diagnostics)
    summary = {s: 0 for s in _SEVERITIES}
    for d in diags:
        summary[d.severity.value] += 1
    return {
        "schema": SCHEMA,
        "meta": {k: str(v) for k, v in (meta or {}).items()},
        "rules": {
            r.id: {"severity": r.severity.value, "summary": r.summary}
            for r in RULES.values()
        },
        "diagnostics": [d.to_dict() for d in diags],
        "summary": summary,
        "verdicts": [
            {
                "procedure": v.procedure,
                "loop": v.loop_var,
                "verdict": v.verdict,
                "reason": v.reason,
                "preventing": v.preventing,
            }
            for v in verdicts
        ],
    }


SHAPE = {
    "meta": dict,
    "rules": dict,
    "diagnostics": [{"rule": str, "severity": enum(*_SEVERITIES),
                     "path": str, "message": str}],
    "summary": {severity: int for severity in _SEVERITIES},
    "verdicts": [{
        "procedure": str,
        "loop": str,
        "verdict": enum(BLOCKABLE, BLOCKABLE_WITH_COMMUTATIVITY,
                        NOT_BLOCKABLE),
        "reason": str,
    }],
}


def invariants(doc: dict) -> list[str]:
    """Every diagnostic cites a catalogued rule, and ``summary`` recounts
    the diagnostics by severity."""
    errors = []
    counted = {severity: 0 for severity in _SEVERITIES}
    for k, d in enumerate(doc["diagnostics"]):
        counted[d["severity"]] += 1
        if d["rule"] not in doc["rules"]:
            errors.append(
                f"diagnostics[{k}] cites uncatalogued rule {d['rule']!r}"
            )
    for severity, n in counted.items():
        if doc["summary"][severity] != n:
            errors.append(
                f"summary.{severity} is {doc['summary'][severity]}, "
                f"diagnostics contain {n}"
            )
    return errors


def flatten_report(doc: dict) -> dict:
    """Flat perf metrics for a check-report payload — the registered
    perf ingestion hook for :data:`SCHEMA`.  Severity counts, per-rule
    diagnostic counts, and verdict counts: enough to see a check run get
    noisier (or quieter) over time."""
    sink = Sink()
    for sev, count in sorted((doc.get("summary") or {}).items()):
        sink.put(f"diagnostics.{sev}", count)
    by_rule: dict = {}
    for d in doc.get("diagnostics") or []:
        if isinstance(d, dict) and isinstance(d.get("rule"), str):
            by_rule[d["rule"]] = by_rule.get(d["rule"], 0) + 1
    for rule, count in sorted(by_rule.items()):
        sink.put(f"rule:{rule}", count)
    by_verdict: dict = {}
    for v in doc.get("verdicts") or []:
        if isinstance(v, dict) and isinstance(v.get("verdict"), str):
            by_verdict[v["verdict"]] = by_verdict.get(v["verdict"], 0) + 1
    for verdict, count in sorted(by_verdict.items()):
        sink.put(f"verdict.{verdict}", count)
    return sink.metrics
