"""Portable snapshots of an :class:`~repro.obs.core.Obs` observer.

A snapshot is the plain-JSON form of everything one observer collected —
counters, full histogram state (including the P² quantile markers, so a
restored or merged histogram keeps estimating), and every finished span.
Snapshots exist to cross process boundaries: a serve worker observes its
own job, snapshots the result, and ships the dict back through the
result queue; the parent folds it into its own observer with
:func:`merge`.

**Clock-domain alignment.**  ``time.perf_counter`` has an arbitrary,
per-process epoch, so a child's absolute timestamps are meaningless to
the parent.  Span timestamps are therefore *relative to the snapshot's
own epoch* (the moment the child observer was created), and :func:`merge`
takes ``anchor_s`` — the **parent-clock absolute time** that child time
zero corresponds to.  The worker pool uses the moment it handed the job
to the worker (``assigned_at``), which bounds the alignment error by the
task-queue latency; under fake clocks in tests the mapping is exact.
Merged spans land on the parent timeline as ``anchor + child-relative
time`` and keep their recorded nesting depth.

**Lanes.**  Each merged span is tagged with a ``lane`` (the pool uses
``"w<slot>"``), and the Chrome exporter renders one pid lane per
distinct value — a multi-process run becomes a multi-process trace.

Schema (``repro.obs.snapshot/1``)::

    {
      'schema': 'repro.obs.snapshot/1',
      'counters': {'dependence.queries': 41, ...},
      'histograms': {'fm.feasible.latency_s': {count,total,min,max,
                                               quantiles:[P² state]}, ...},
      'spans': [{'name','cat','ts','dur','depth','args','lane'}, ...]
    }
"""

from __future__ import annotations

import time
from typing import Optional

from repro.artifacts.registry import OBS_SNAPSHOT as SCHEMA
from repro.obs.core import Histogram, Obs, SpanEvent


def snapshot(obs: Obs) -> dict:
    """The portable dict form of ``obs`` (span ``ts`` relative to its
    epoch, which is how :class:`SpanEvent` already stores them)."""
    return {
        "schema": SCHEMA,
        "counters": dict(obs.counters),
        "histograms": {name: h.to_dict() for name, h in obs.histograms.items()},
        "spans": [
            {
                "name": s.name,
                "cat": s.cat,
                "ts": s.ts,
                "dur": s.dur,
                "depth": s.depth,
                "args": dict(s.args),
                "lane": s.lane,
            }
            for s in obs.spans
        ],
    }


SHAPE = {
    "counters": dict,
    "histograms": dict,
    "spans": [{"name": str, "ts": float, "dur": float, "depth": int}],
}


def restore(doc: dict, clock=time.perf_counter) -> Obs:
    """A fresh :class:`Obs` carrying the snapshot's data; span timestamps
    stay relative to the restored observer's (new) epoch."""
    _require(doc)
    obs = Obs(clock=clock)
    obs.counters = dict(doc["counters"])
    obs.histograms = {
        name: Histogram.from_dict(h) for name, h in doc["histograms"].items()
    }
    obs.spans = [_span(entry) for entry in doc["spans"]]
    return obs


def merge(
    parent: Obs,
    doc: dict,
    anchor_s: Optional[float] = None,
    lane: Optional[str] = None,
) -> None:
    """Fold a child snapshot into ``parent``.

    ``anchor_s`` is the absolute *parent-clock* time the child's time
    zero maps onto (default: the parent's own epoch, i.e. no shift);
    ``lane`` tags every merged span that does not already carry one.
    Counters sum exactly; histograms merge exactly in count/total/min/max
    and approximately in the quantile markers.
    """
    _require(doc)
    offset = (anchor_s - parent.epoch) if anchor_s is not None else 0.0
    for name, n in doc["counters"].items():
        parent.count(name, n)
    for name, state in doc["histograms"].items():
        hist = parent.histograms.get(name)
        if hist is None:
            hist = parent.histograms[name] = Histogram()
        hist.merge(Histogram.from_dict(state))
    for entry in doc["spans"]:
        span = _span(entry)
        span.ts += offset
        if span.lane is None:
            span.lane = lane
        parent.spans.append(span)


def _span(entry: dict) -> SpanEvent:
    return SpanEvent(
        name=entry["name"],
        cat=entry["cat"],
        ts=float(entry["ts"]),
        dur=float(entry["dur"]),
        depth=int(entry["depth"]),
        args=dict(entry.get("args") or {}),
        lane=entry.get("lane"),
    )


def _require(doc: dict) -> None:
    if not isinstance(doc, dict) or doc.get("schema") != SCHEMA:
        raise ValueError(
            f"not a {SCHEMA} snapshot: "
            f"{doc.get('schema') if isinstance(doc, dict) else type(doc).__name__!r}"
        )
