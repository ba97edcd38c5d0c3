"""The ``repro.par/1`` report schema: build, validate, flatten.

.. code-block:: text

    {
      'schema': 'repro.par/1',
      'meta': {'workloads': 'conv,matmul', ...},      # free-form strings
      'workloads': [
        {'workload': 'matmul', 'procedure': 'matmul_guarded',
         'loops': [{'loop', 'path', 'verdict', 'reason',
                    'witness'?, 'reductions'?}, ...],
         'counts': {'parallel': 2, 'reduction': 1, 'serial': 0},
         'sanitizer': {'loops_checked': 2, 'conflicts': [...],
                       'clean': true} | null},
        ...
      ],
      'totals': {'parallel', 'reduction', 'serial', 'loops', 'conflicts'}
    }

``workloads`` carries the static detector's per-loop verdicts with the
SERIAL witnesses, plus each workload's dynamic sanitizer outcome;
``totals`` aggregates the verdict and conflict counts.
:func:`validate_report` returns a problem list (empty = valid), the
registered payload check for the schema; :func:`flatten_report` emits
``par:*`` perf metrics.  Every one of them is a **deterministic** verdict
or conflict count and belongs behind a ``threshold 0`` perf gate.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional

from repro.artifacts.flatten import Sink
from repro.artifacts.registry import PAR_REPORT as SCHEMA
from repro.par.detect import VERDICTS, LoopVerdict, verdict_counts


def build_workload_entry(
    workload: str,
    procedure: str,
    verdicts: Iterable[LoopVerdict],
    sanitizer: Optional[Mapping] = None,
) -> dict:
    vs = list(verdicts)
    return {
        "workload": workload,
        "procedure": procedure,
        "loops": [v.to_dict() for v in vs],
        "counts": verdict_counts(vs),
        "sanitizer": dict(sanitizer) if sanitizer is not None else None,
    }


def build_report(
    workloads: Iterable[Mapping],
    meta: Optional[dict] = None,
) -> dict:
    entries = [dict(w) for w in workloads]
    totals = {v: 0 for v in VERDICTS}
    conflicts = 0
    for entry in entries:
        for verdict, count in entry["counts"].items():
            totals[verdict] += count
        san = entry.get("sanitizer")
        if san:
            conflicts += len(san.get("conflicts", ()))
    totals["loops"] = sum(totals[v] for v in VERDICTS)
    totals["conflicts"] = conflicts
    return {
        "schema": SCHEMA,
        "meta": {k: str(v) for k, v in (meta or {}).items()},
        "workloads": entries,
        "totals": totals,
    }


def validate_report(doc: dict) -> list[str]:
    """Problems with a par-report payload (empty = valid) — the
    registered payload check for :data:`SCHEMA`."""
    errors: list[str] = []
    if not isinstance(doc, dict):
        return ["document is not an object"]
    if not isinstance(doc.get("meta"), dict):
        errors.append("missing or non-object field 'meta'")
    if not isinstance(doc.get("workloads"), list):
        errors.append("missing or non-list field 'workloads'")
    if not isinstance(doc.get("totals"), dict):
        errors.append("missing or non-object field 'totals'")
    if errors:
        return errors
    counted = {v: 0 for v in VERDICTS}
    conflicts = 0
    for k, entry in enumerate(doc["workloads"]):
        if not isinstance(entry, dict):
            errors.append(f"workloads[{k}] is not an object")
            continue
        for key in ("workload", "procedure"):
            if not isinstance(entry.get(key), str):
                errors.append(f"workloads[{k}].{key} missing or non-string")
        if not isinstance(entry.get("loops"), list):
            errors.append(f"workloads[{k}].loops missing or non-list")
            continue
        for j, loop in enumerate(entry["loops"]):
            where = f"workloads[{k}].loops[{j}]"
            if not isinstance(loop, dict):
                errors.append(f"{where} is not an object")
                continue
            for key in ("loop", "path", "verdict", "reason"):
                if not isinstance(loop.get(key), str):
                    errors.append(f"{where}.{key} missing or non-string")
            verdict = loop.get("verdict")
            if verdict not in VERDICTS:
                errors.append(f"{where} has unknown verdict {verdict!r}")
            else:
                counted[verdict] += 1
            if verdict == "serial" and not loop.get("witness"):
                errors.append(f"{where} is serial but names no witness")
        counts = entry.get("counts")
        if not isinstance(counts, dict):
            errors.append(f"workloads[{k}].counts missing or non-object")
        else:
            got = {v: 0 for v in VERDICTS}
            for loop in entry["loops"]:
                if isinstance(loop, dict) and loop.get("verdict") in got:
                    got[loop["verdict"]] += 1
            for verdict in VERDICTS:
                if counts.get(verdict) != got[verdict]:
                    errors.append(
                        f"workloads[{k}].counts[{verdict!r}] is "
                        f"{counts.get(verdict)!r}, loops contain {got[verdict]}"
                    )
        san = entry.get("sanitizer")
        if san is not None:
            if not isinstance(san, dict):
                errors.append(f"workloads[{k}].sanitizer is not an object")
            else:
                cs = san.get("conflicts")
                if not isinstance(cs, list):
                    errors.append(
                        f"workloads[{k}].sanitizer.conflicts missing or "
                        "non-list"
                    )
                else:
                    conflicts += len(cs)
                    if san.get("clean") != (not cs):
                        errors.append(
                            f"workloads[{k}].sanitizer.clean contradicts its "
                            "conflict list"
                        )
    # the load-bearing invariant: totals match the per-workload contents
    totals = doc["totals"]
    for verdict in VERDICTS:
        if totals.get(verdict) != counted[verdict]:
            errors.append(
                f"totals[{verdict!r}] is {totals.get(verdict)!r}, workloads "
                f"contain {counted[verdict]}"
            )
    want_loops = sum(counted.values())
    if totals.get("loops") != want_loops:
        errors.append(
            f"totals['loops'] is {totals.get('loops')!r}, workloads contain "
            f"{want_loops}"
        )
    if totals.get("conflicts") != conflicts:
        errors.append(
            f"totals['conflicts'] is {totals.get('conflicts')!r}, sanitizer "
            f"sections contain {conflicts}"
        )
    return errors


def flatten_report(doc: dict) -> dict:
    """Flat perf metrics for a par-report payload — the registered perf
    ingestion hook for :data:`SCHEMA`.

    ``par:verdict.*``, ``par:loops``, ``par:sanitizer.conflicts`` and the
    per-workload serial counts are all deterministic (gate at threshold 0).
    """
    sink = Sink()
    totals = doc.get("totals") or {}
    for verdict in VERDICTS:
        sink.put(f"par:verdict.{verdict}", totals.get(verdict, 0))
    sink.put("par:loops", totals.get("loops", 0))
    sink.put("par:sanitizer.conflicts", totals.get("conflicts", 0))
    for entry in doc.get("workloads") or []:
        if isinstance(entry, dict) and isinstance(entry.get("counts"), dict):
            sink.put(
                f"par:{entry.get('workload', '?')}.serial",
                entry["counts"].get("serial", 0),
            )
    return sink.metrics
