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

from repro.artifacts import load_file, payload_of, schema_id_of
from repro.artifacts.flatten import Sink
from repro.artifacts.registry import PERF_BASELINE as BASELINE_SCHEMA
from repro.artifacts.registry import PERF_GATE as SCHEMA
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


def read_baseline(path: str) -> dict:
    """Load an enveloped baseline file; returns its ``{name: value}``
    metrics."""
    try:
        env = load_file(path)
        doc = payload_of(env)
    except ArtifactError as e:
        raise PerfError(str(e)) from e
    if schema_id_of(env) != BASELINE_SCHEMA:
        raise PerfError(
            f"baseline {path!r} is not a {BASELINE_SCHEMA!r} document"
        )
    metrics = doc.get("metrics")
    if not isinstance(metrics, dict):
        raise PerfError(f"baseline {path!r} has no metrics object")
    out = {}
    for name, value in metrics.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise PerfError(
                f"baseline {path!r} metric {name!r} is not numeric"
            )
        out[name] = float(value)
    return out


# ---- registered payload checks and flatteners ------------------------------


def validate_gate(doc: dict) -> list:
    """Problems with a gate-verdict payload (empty list = valid) — the
    registered payload check for :data:`SCHEMA`."""
    if not isinstance(doc, dict):
        return ["document is not an object"]
    problems = []
    verdict = doc.get("verdict")
    if verdict not in _EXIT_OF:
        problems.append(
            f"verdict is {verdict!r}, want one of {', '.join(_EXIT_OF)}"
        )
    elif doc.get("exit_code") != _EXIT_OF[verdict]:
        problems.append(
            f"exit_code is {doc.get('exit_code')!r}, want "
            f"{_EXIT_OF[verdict]} for verdict {verdict!r}"
        )
    rows = doc.get("rows")
    if not isinstance(rows, list):
        problems.append("rows missing or not a list")
        return problems
    counts = doc.get("counts")
    if isinstance(counts, dict):
        for key, want in counts.items():
            got = sum(1 for r in rows
                      if isinstance(r, dict) and r.get("verdict") == key)
            if got != want:
                problems.append(
                    f"counts[{key!r}] is {want!r}, rows contain {got}"
                )
    else:
        problems.append("counts missing or not an object")
    return problems


def validate_baseline(doc: dict) -> list:
    """Problems with a baseline payload (empty list = valid) — the
    registered payload check for :data:`BASELINE_SCHEMA`."""
    if not isinstance(doc, dict):
        return ["document is not an object"]
    problems = []
    metrics = doc.get("metrics")
    if not isinstance(metrics, dict):
        problems.append("metrics missing or not an object")
        return problems
    for name, value in metrics.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            problems.append(f"metric {name!r} is not numeric")
    return problems


def flatten_baseline(doc: dict) -> dict:
    """Flat perf metrics for a baseline payload — the registered perf
    ingestion hook for :data:`BASELINE_SCHEMA` (a baseline *is* a flat
    metric dict already)."""
    sink = Sink()
    for name, value in sorted((doc.get("metrics") or {}).items()):
        sink.put(name, value)
    return sink.metrics
