"""The ``repro.check/1`` report schema: build, validate, flatten.

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
diagnostics).  :func:`validate_report` returns a list of problems
(empty = valid) — the idiom of :func:`repro.obs.export.validate_metrics`
— and the ``check-smoke`` CI job runs it over the shipped workloads.
Reports are written enveloped (see :mod:`repro.artifacts`); schema
identity and digest live in the envelope layer.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.artifacts.flatten import Sink
from repro.artifacts.registry import CHECK_REPORT as SCHEMA
from repro.check.diagnostics import RULES, Diagnostic, Severity
from repro.check.linter import LintResult

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


def validate_report(doc: dict) -> list[str]:
    """Problems with a check-report payload (empty = valid) — the
    registered payload check for :data:`SCHEMA`."""
    errors: list[str] = []
    if not isinstance(doc, dict):
        return ["document is not an object"]
    for key in ("meta", "rules", "summary"):
        if not isinstance(doc.get(key), dict):
            errors.append(f"missing or non-object field {key!r}")
    for key in ("diagnostics", "verdicts"):
        if not isinstance(doc.get(key), list):
            errors.append(f"missing or non-list field {key!r}")
    if errors:
        return errors
    counted = {s: 0 for s in _SEVERITIES}
    for k, d in enumerate(doc["diagnostics"]):
        if not isinstance(d, dict):
            errors.append(f"diagnostics[{k}] is not an object")
            continue
        for key in ("rule", "severity", "path", "message"):
            if not isinstance(d.get(key), str):
                errors.append(f"diagnostics[{k}].{key} missing or non-string")
        sev = d.get("severity")
        if sev not in _SEVERITIES:
            errors.append(f"diagnostics[{k}] has unknown severity {sev!r}")
        else:
            counted[sev] += 1
        rule = d.get("rule")
        if isinstance(rule, str) and rule not in doc["rules"]:
            errors.append(f"diagnostics[{k}] cites uncatalogued rule {rule!r}")
    # the load-bearing invariant: summary counts match the diagnostics
    for sev in _SEVERITIES:
        want = doc["summary"].get(sev)
        if want != counted[sev]:
            errors.append(
                f"summary[{sev!r}] is {want!r}, diagnostics contain "
                f"{counted[sev]}"
            )
    valid_verdicts = (
        "blockable", "blockable-with-commutativity", "not-blockable"
    )
    for k, v in enumerate(doc["verdicts"]):
        if not isinstance(v, dict):
            errors.append(f"verdicts[{k}] is not an object")
            continue
        for key in ("procedure", "loop", "verdict", "reason"):
            if not isinstance(v.get(key), str):
                errors.append(f"verdicts[{k}].{key} missing or non-string")
        if v.get("verdict") not in valid_verdicts:
            errors.append(
                f"verdicts[{k}] has unknown verdict {v.get('verdict')!r}"
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
