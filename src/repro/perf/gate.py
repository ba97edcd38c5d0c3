"""Regression verdicts: compare flattened metrics against a baseline.

The comparison is deliberately simple and deliberately explicit: every
tracked metric gets a verdict, the run gets the worst of them, and the
exit code is the verdict.  No statistics are hidden in here — the noise
model is one number (``threshold_pct``), chosen by the caller per metric
class:

- **deterministic metrics** (``pass:*.ir_size_after``, counter values,
  pass counts) take ``threshold_pct=0``: any change is a real change.
  These are what CI gates on, because they are machine-independent.
- **wall-clock metrics** (``*.wall_s``, ``*.cold_s``) need a generous
  threshold (tens of percent) outside a quiet lab machine; gate on them
  locally, not on shared runners.

All metrics are treated as **lower-is-better**: a regression is an
*increase* beyond the threshold.  That is the right polarity for every
timing, size, and miss metric this repo emits; do not put
higher-is-better metrics (hit rates, speedups) behind a gate — track
them with ``trend`` instead.

Verdicts per metric: ``regressed`` / ``improved`` / ``within-noise`` /
``missing-baseline`` (tracked now but absent from the baseline).

Exit-code contract (the CI interface; tested in ``tests/perf``)::

    0   ok       every tracked metric within noise or improved
    1   regressed  at least one tracked metric regressed
    2   usage    bad invocation, unreadable artifact, unknown schema
    3   no-baseline  baseline missing, or no tracked metric had one

Baselines come from a recorded run (``--baseline SELECTOR``) or from a
committed **baseline file** (``--baseline-file``), payload schema
``repro.perf.baseline/1`` (written enveloped — see
:mod:`repro.artifacts`)::

    {'schema': 'repro.perf.baseline/1',
     'meta': {...},
     'metrics': {'pass:block.ir_size_after': 154.0, ...}}
"""

from __future__ import annotations

from fnmatch import fnmatchcase
from typing import Optional, Sequence

from repro.artifacts import load_file, require_valid, schema_id_of
from repro.artifacts.flatten import Sink
from repro.artifacts.registry import PERF_BASELINE as BASELINE_SCHEMA
from repro.artifacts.registry import PERF_GATE as SCHEMA
from repro.artifacts.shape import enum, map_of
from repro.errors import ArtifactError, PerfError

EXIT_OK = 0
EXIT_REGRESSED = 1
EXIT_USAGE = 2
EXIT_NO_BASELINE = 3

_EXIT_OF = {
    "ok": EXIT_OK,
    "improved": EXIT_OK,
    "within-noise": EXIT_OK,
    "regressed": EXIT_REGRESSED,
    "missing-baseline": EXIT_NO_BASELINE,
}


def tracked(metrics: dict, patterns: Sequence[str]) -> list[str]:
    """Metric names matching any of the glob ``patterns``, sorted."""
    return sorted(
        name
        for name in metrics
        if any(fnmatchcase(name, p) for p in patterns)
    )


def compare(
    current: dict,
    baseline: dict,
    patterns: Sequence[str] = ("*",),
    threshold_pct: float = 10.0,
) -> dict:
    """Gate ``current`` metrics against ``baseline``.

    Returns a ``repro.perf.gate/1`` document with one row per tracked
    metric, an overall ``verdict``, and the matching ``exit_code``.
    """
    if threshold_pct < 0:
        raise PerfError("threshold_pct must be >= 0")
    rows = []
    counts = {"regressed": 0, "improved": 0, "within-noise": 0,
              "missing-baseline": 0}
    for name in tracked(current, patterns):
        cur = current[name]
        base = baseline.get(name)
        if base is None:
            verdict, delta, pct = "missing-baseline", None, None
        else:
            delta = cur - base
            if base != 0:
                pct = 100.0 * delta / abs(base)
            else:
                pct = 0.0 if cur == 0 else float("inf")
            if pct > threshold_pct:
                verdict = "regressed"
            elif -pct > threshold_pct:
                verdict = "improved"
            else:
                verdict = "within-noise"
        counts[verdict] += 1
        rows.append(
            {
                "metric": name,
                "current": cur,
                "baseline": base,
                "delta": delta,
                "pct": (
                    None if pct is None or pct == float("inf") else round(pct, 3)
                ),
                "verdict": verdict,
            }
        )
    if counts["regressed"]:
        verdict = "regressed"
    elif not rows or counts["missing-baseline"] == len(rows):
        # nothing tracked, or nothing tracked had a baseline: the gate
        # cannot say "ok", it can only say "I had nothing to compare"
        verdict = "missing-baseline"
    elif counts["improved"]:
        verdict = "improved"
    else:
        verdict = "within-noise"
    return {
        "schema": SCHEMA,
        "threshold_pct": threshold_pct,
        "patterns": list(patterns),
        "rows": rows,
        "counts": counts,
        "verdict": verdict,
        "exit_code": _EXIT_OF[verdict],
    }


SHAPE = {
    "verdict": enum(*_EXIT_OF),
    "exit_code": int,
    "rows": [{"verdict": str}],
    "counts": map_of(int),
}


def invariants(doc: dict) -> list[str]:
    """``exit_code`` is the verdict's; ``counts`` recounts ``rows``."""
    problems = []
    want = _EXIT_OF[doc["verdict"]]
    if doc["exit_code"] != want:
        problems.append(
            f"exit_code is {doc['exit_code']}, want {want} for verdict "
            f"{doc['verdict']!r}"
        )
    for key, count in doc["counts"].items():
        got = sum(1 for row in doc["rows"] if row["verdict"] == key)
        if got != count:
            problems.append(f"counts.{key} is {count}, rows contain {got}")
    return problems


def diff(
    a: dict,
    b: dict,
    patterns: Sequence[str] = ("*",),
) -> list[dict]:
    """Per-metric deltas ``b - a`` over the union of tracked names.

    Informational (no verdicts): one row per metric present in either
    side, with ``None`` standing in for an absent side.
    """
    names = sorted(set(tracked(a, patterns)) | set(tracked(b, patterns)))
    rows = []
    for name in names:
        va, vb = a.get(name), b.get(name)
        delta = vb - va if va is not None and vb is not None else None
        pct = (
            round(100.0 * delta / abs(va), 3)
            if delta is not None and va not in (None, 0)
            else None
        )
        rows.append({"metric": name, "a": va, "b": vb,
                     "delta": delta, "pct": pct})
    return rows


# ---- baseline files --------------------------------------------------------


def baseline_doc(metrics: dict, meta: Optional[dict] = None) -> dict:
    """A committable ``repro.perf.baseline/1`` document."""
    return {
        "schema": BASELINE_SCHEMA,
        "meta": {k: str(v) for k, v in (meta or {}).items()},
        "metrics": {name: float(v) for name, v in sorted(metrics.items())},
    }


BASELINE_SHAPE = {"metrics": map_of(float)}


def read_baseline(path: str) -> dict:
    """Load an enveloped baseline file; returns its ``{name: value}``
    metrics."""
    try:
        env = load_file(path)
        if schema_id_of(env) != BASELINE_SCHEMA:
            raise PerfError(
                f"baseline {path!r} is not a {BASELINE_SCHEMA!r} document"
            )
        metrics = require_valid(env)["payload"]["metrics"]
    except ArtifactError as e:
        raise PerfError(f"baseline {path!r}: {e}", e.problems) from e
    return {name: float(value) for name, value in metrics.items()}


# ---- registered flattener --------------------------------------------------


def flatten_baseline(doc: dict) -> dict:
    """Flat perf metrics for a baseline payload — the registered perf
    ingestion hook for :data:`BASELINE_SCHEMA` (a baseline *is* a flat
    metric dict already)."""
    sink = Sink()
    for name, value in sorted((doc.get("metrics") or {}).items()):
        sink.put(name, value)
    return sink.metrics
