"""The ``repro.check/1`` report schema: build, shape, invariants, flatten.

.. code-block:: text

    {
      'meta': {'workloads': 'lu_nopivot,givens', ...},   # free-form strings
      'rules': {'ir/zero-step': {'severity', 'summary'}, ...},
      'diagnostics': [{'rule', 'severity', 'path', 'message',
                       'witness'?}, ...],
      'summary': {'error': 0, 'warning': 1, 'info': 3}
    }

``rules`` embeds the catalogue so a report is self-describing;
``summary`` counts diagnostics by severity.  The linter's verdicts are
its ``lint/*`` diagnostics (rule = verdict, path = procedure and loop),
and a diagnostic that blames something carries its ``witness`` (an
edge is the :data:`~repro.analysis.dependence.WITNESS` record).
:data:`SHAPE` is the checked structure and :func:`invariants` the
recount over it; the ``check-smoke`` CI job validates a report over the
shipped workloads.
Reports are written enveloped (see :mod:`repro.artifacts`); schema
identity and digest live in the envelope layer.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.analysis.dependence import witness_problems
from repro.artifacts.flatten import Sink
from repro.artifacts.registry import CHECK_REPORT as SCHEMA
from repro.artifacts.shape import enum, nullable, recount
from repro.check.diagnostics import RULES, Diagnostic, Severity

_SEVERITIES = tuple(s.value for s in Severity)


def build_report(
    diagnostics: Iterable[Diagnostic],
    meta: Optional[dict] = None,
) -> dict:
    rows = [d.to_dict() for d in diagnostics]
    return {
        "meta": {k: str(v) for k, v in (meta or {}).items()},
        "rules": {
            r.id: {"severity": r.severity.value, "summary": r.summary}
            for r in RULES.values()
        },
        "diagnostics": rows,
        "summary": severity_counts(rows),
    }


def severity_counts(diagnostics: Iterable[dict]) -> dict:
    """``summary``: the diagnostic rows per severity."""
    counts = {severity: 0 for severity in _SEVERITIES}
    for d in diagnostics:
        counts[d["severity"]] += 1
    return counts


SHAPE = {
    "meta": dict,
    "rules": dict,
    "diagnostics": [{"rule": str, "severity": enum(*_SEVERITIES),
                     "path": str, "message": str, "witness": nullable(dict)}],
    "summary": {severity: int for severity in _SEVERITIES},
}


def invariants(doc: dict) -> list[str]:
    """Every diagnostic cites a catalogued rule and any witness is well
    formed, and ``summary`` recounts the diagnostics by severity."""
    errors = []
    for k, d in enumerate(doc["diagnostics"]):
        if d["rule"] not in doc["rules"]:
            errors.append(
                f"diagnostics[{k}] cites uncatalogued rule {d['rule']!r}"
            )
        errors += witness_problems(d.get("witness"), f"diagnostics[{k}].witness")
    return errors + recount("summary", doc["summary"],
                            severity_counts(doc["diagnostics"]), "diagnostics")


def flatten_report(doc: dict) -> dict:
    """Flat perf metrics for a check-report payload — the registered
    perf ingestion hook for :data:`SCHEMA`.  Severity counts and per-rule
    diagnostic counts (``rule:lint/*`` are the verdict counts): enough to
    see a check run get noisier (or quieter) over time."""
    sink = Sink()
    for sev, count in sorted((doc.get("summary") or {}).items()):
        sink.put(f"diagnostics.{sev}", count)
    by_rule: dict = {}
    for d in doc.get("diagnostics") or []:
        if isinstance(d, dict) and isinstance(d.get("rule"), str):
            by_rule[d["rule"]] = by_rule.get(d["rule"], 0) + 1
    for rule, count in sorted(by_rule.items()):
        sink.put(f"rule:{rule}", count)
    return sink.metrics
