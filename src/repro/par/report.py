"""The ``repro.par/1`` report schema: build, shape, invariants, flatten.

.. code-block:: text

    {
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
SERIAL witnesses (an edge is the
:data:`~repro.analysis.dependence.WITNESS` record), plus each
workload's dynamic sanitizer outcome;
``totals`` aggregates the verdict and conflict counts.
:data:`SHAPE` is the checked structure and :func:`invariants` the
recount rules over it; :func:`flatten_report` emits
``par:*`` perf metrics.  Every one of them is a **deterministic** verdict
or conflict count and belongs behind a ``threshold 0`` perf gate.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional

from repro.analysis.dependence import witness_problems
from repro.artifacts.flatten import Sink
from repro.artifacts.registry import PAR_REPORT as SCHEMA
from repro.artifacts.shape import enum, nullable, recount
from repro.par.detect import VERDICTS, LoopVerdict, verdict_counts


def build_workload_entry(
    workload: str,
    procedure: str,
    verdicts: Iterable[LoopVerdict],
    sanitizer: Optional[Mapping] = None,
) -> dict:
    loops = [v.to_dict() for v in verdicts]
    return {
        "workload": workload,
        "procedure": procedure,
        "loops": loops,
        "counts": _loop_counts(loops),
        "sanitizer": dict(sanitizer) if sanitizer is not None else None,
    }


def build_report(
    workloads: Iterable[Mapping],
    meta: Optional[dict] = None,
) -> dict:
    entries = [dict(w) for w in workloads]
    return {
        "meta": {k: str(v) for k, v in (meta or {}).items()},
        "workloads": entries,
        "totals": _totals(entries),
    }


def _loop_counts(loops: Iterable[Mapping]) -> dict:
    """A workload's ``counts``: its loop rows per verdict."""
    return verdict_counts(loop["verdict"] for loop in loops)


def _totals(workloads: Iterable[Mapping]) -> dict:
    """``totals``: the workloads' loops per verdict and in all, and their
    sanitizer conflicts."""
    totals = {verdict: 0 for verdict in VERDICTS}
    conflicts = 0
    for entry in workloads:
        for verdict, n in _loop_counts(entry["loops"]).items():
            totals[verdict] += n
        if entry.get("sanitizer"):
            conflicts += len(entry["sanitizer"]["conflicts"])
    return {**totals, "loops": sum(totals.values()), "conflicts": conflicts}


_COUNTS = {verdict: int for verdict in VERDICTS}

SHAPE = {
    "meta": dict,
    "workloads": [{
        "workload": str,
        "procedure": str,
        "loops": [{"loop": str, "path": str, "verdict": enum(*VERDICTS),
                   "reason": str}],
        "counts": _COUNTS,
        "sanitizer": nullable({"conflicts": list, "clean": bool}),
    }],
    "totals": {**_COUNTS, "loops": int, "conflicts": int},
}


def invariants(doc: dict) -> list[str]:
    """A serial loop names a well-formed witness, ``clean`` means no
    conflicts, and every count is a recount: ``counts`` of its loops,
    ``totals`` of the workloads."""
    errors = []
    for k, entry in enumerate(doc["workloads"]):
        for j, loop in enumerate(entry["loops"]):
            if loop["verdict"] == "serial" and not loop.get("witness"):
                errors.append(
                    f"workloads[{k}].loops[{j}] is serial but names no witness"
                )
            errors += witness_problems(loop.get("witness"),
                                       f"workloads[{k}].loops[{j}].witness")
        errors += recount(f"workloads[{k}].counts", entry["counts"],
                          _loop_counts(entry["loops"]), "loops")
        san = entry.get("sanitizer")
        if san is not None and san["clean"] != (not san["conflicts"]):
            errors.append(
                f"workloads[{k}].sanitizer.clean contradicts its conflict list"
            )
    return errors + recount("totals", doc["totals"],
                            _totals(doc["workloads"]), "workloads")


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
