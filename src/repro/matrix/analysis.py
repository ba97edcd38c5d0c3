"""Analysis over result rows: summaries, sensitivity, best blocking.

Everything here is pure functions over the flat row dicts of a
``repro.matrix/1`` artifact (the nine factors of
:data:`~repro.matrix.grid.FACTOR_ORDER`, the pool's ``status``, and
:data:`~repro.matrix.cell.RESULT_FIELDS`), so the same code serves a
sweep, ``matrix report`` over a stored artifact, and tests over
synthetic rows.

**Per-factor sensitivity** is one-factor-at-a-time (OAT): rows are
grouped by the assignment of every *other* factor; within each group the
metric is averaged per level of the factor under study, and the group's
**effect** is the spread (max level mean − min level mean).  Reported
per factor: per-level means, the number of comparable groups, and the
mean/max effect across groups.  OAT is the honest design for a full
cartesian grid — every group is a controlled comparison where only the
studied factor moves (the sweep methodology the automated-tiling
literature uses to defend blocking-factor choices).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Mapping, Optional, Sequence

from repro.errors import MatrixError
from repro.matrix.grid import FACTOR_ORDER
from repro.serve.pool import OK_STATUSES

#: metrics sensitivity/best-blocking can rank by
METRICS = ("speedup", "miss_ratio", "modeled_s", "tlb_misses")


def ok_rows(rows: Sequence[Mapping]) -> list[dict]:
    return [dict(r) for r in rows if r.get("status") in OK_STATUSES]


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values)


def quantiles(values: Sequence[float]) -> Optional[dict]:
    """count/min/p25/p50/p75/max/mean of a sample (None when empty)."""
    vs = sorted(v for v in values if v is not None)
    if not vs:
        return None

    def q(p: float) -> float:
        if len(vs) == 1:
            return vs[0]
        pos = p * (len(vs) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(vs) - 1)
        return vs[lo] + (vs[hi] - vs[lo]) * (pos - lo)

    return {
        "count": len(vs),
        "min": vs[0],
        "p25": q(0.25),
        "p50": q(0.50),
        "p75": q(0.75),
        "max": vs[-1],
        "mean": _mean(vs),
    }


def varied_factors(rows: Sequence[Mapping]) -> dict:
    """factor -> sorted distinct levels, for factors with >= 2 levels."""
    levels: dict = defaultdict(set)
    for r in rows:
        for f in FACTOR_ORDER:
            levels[f].add(r.get(f))
    return {
        f: sorted(vs, key=lambda v: (v is None, v))
        for f, vs in levels.items()
        if len(vs) > 1
    }


def summarize(rows: Sequence[Mapping]) -> dict:
    """Counts plus speedup / miss-ratio distributions, per grid and per
    workload."""
    ok = ok_rows(rows)
    by_workload: dict = {}
    for w in sorted({r["workload"] for r in ok}):
        ws = [r for r in ok if r["workload"] == w]
        speedups = [r["speedup"] for r in ws if r.get("speedup") is not None]
        by_workload[w] = {
            "cells": len(ws),
            "speedup": quantiles(speedups),
            "miss_ratio": quantiles(
                [r["miss_ratio"] for r in ws if r.get("miss_ratio") is not None]
            ),
        }
    return {
        "cells": len(rows),
        "ok": len(ok),
        "failed": len(rows) - len(ok),
        "speedup": quantiles(
            [r["speedup"] for r in ok if r.get("speedup") is not None]
        ),
        "miss_ratio": quantiles(
            [r["miss_ratio"] for r in ok if r.get("miss_ratio") is not None]
        ),
        "by_workload": by_workload,
    }


def sensitivity(
    rows: Sequence[Mapping],
    metric: str = "speedup",
    factors: Optional[Sequence[str]] = None,
) -> dict:
    """One-factor-at-a-time sensitivity of ``metric`` to each varied
    factor (or the given subset).  See the module docstring."""
    if metric not in METRICS:
        raise MatrixError(f"unknown metric {metric!r} (known: {list(METRICS)})")
    usable = [r for r in ok_rows(rows) if r.get(metric) is not None]
    varied = varied_factors(usable)
    chosen = list(factors) if factors is not None else sorted(varied)
    out: dict = {}
    for f in chosen:
        if f not in FACTOR_ORDER:
            raise MatrixError(
                f"unknown factor {f!r} (known: {list(FACTOR_ORDER)})"
            )
        if f not in varied:
            raise MatrixError(
                f"factor {f!r} does not vary in these rows; "
                f"varied factors: {sorted(varied) or 'none'}"
            )
        per_level: dict = defaultdict(list)
        groups: dict = defaultdict(lambda: defaultdict(list))
        for r in usable:
            other = tuple((g, r.get(g)) for g in FACTOR_ORDER if g != f)
            groups[other][r.get(f)].append(r[metric])
            per_level[r.get(f)].append(r[metric])
        effects = []
        for level_map in groups.values():
            if len(level_map) < 2:
                continue
            means = [_mean(vs) for vs in level_map.values()]
            effects.append(max(means) - min(means))
        level_means = {
            lv: {"mean": _mean(vs), "cells": len(vs)}
            for lv, vs in per_level.items()
        }
        best = (max if metric == "speedup" else min)(
            level_means, key=lambda lv: level_means[lv]["mean"]
        )
        out[f] = {
            "metric": metric,
            "levels": {
                _level_key(lv): stats
                for lv, stats in sorted(
                    level_means.items(), key=lambda kv: (kv[0] is None, kv[0])
                )
            },
            "best_level": _level_key(best),
            "comparisons": len(effects),
            "mean_effect": _mean(effects) if effects else None,
            "max_effect": max(effects) if effects else None,
        }
    return out


def best_blocking(rows: Sequence[Mapping], metric: str = "speedup") -> list[dict]:
    """Per workload: the blocking factor whose cells average best.

    Only rows with an explicit ``b`` participate; workloads whose grid
    never varied ``b`` are omitted.
    """
    if metric not in METRICS:
        raise MatrixError(f"unknown metric {metric!r} (known: {list(METRICS)})")
    usable = [
        r
        for r in ok_rows(rows)
        if r.get("b") is not None and r.get(metric) is not None
    ]
    out = []
    for w in sorted({r["workload"] for r in usable}):
        per_b: dict = defaultdict(list)
        for r in usable:
            if r["workload"] == w:
                per_b[r["b"]].append(r[metric])
        if not per_b:
            continue
        means = {b: _mean(vs) for b, vs in per_b.items()}
        best = (max if metric == "speedup" else min)(means, key=means.get)
        out.append(
            {
                "workload": w,
                "metric": metric,
                "best_b": best,
                "best_mean": means[best],
                "per_b": {
                    str(b): {"mean": means[b], "cells": len(per_b[b])}
                    for b in sorted(per_b)
                },
                "cells": sum(len(vs) for vs in per_b.values()),
            }
        )
    return out


def _level_key(level) -> str:
    """JSON object keys must be strings; None means 'default'."""
    return "default" if level is None else str(level)
