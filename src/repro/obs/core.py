"""The span/metrics core of :mod:`repro.obs`.

One :class:`Obs` object collects everything a run produces:

- **counters** — monotonically increasing named integers
  (``dependence.queries``, ``fm.feasible.queries``, ...);
- **histograms** — named value streams summarized online (count / total /
  min / max; latencies in seconds by convention, suffix ``_s``);
- **spans** — timed intervals, either opened with the :meth:`Obs.span`
  context manager (nested spans nest in time, which is how the Chrome
  trace shows the hierarchy) or reported after the fact with
  :meth:`Obs.event` for code that already measured itself (the pass
  manager's :class:`~repro.pipeline.manager.SpanRecord`).

The *active* observer is held in a :class:`contextvars.ContextVar`;
instrumented modules call the module-level :func:`current`, :func:`count`,
:func:`observe`, and :func:`span` helpers, all of which reduce to a single
context-var read plus a ``None`` check when observation is disabled — the
instrumentation must stay effectively free in ordinary test and benchmark
runs.  This module deliberately imports nothing from the rest of
``repro`` so any layer (analysis, runtime, machine, pipeline) can report
into it without import cycles.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field, replace
from typing import Iterator, Optional


@dataclass
class SpanEvent:
    """One finished timed interval.

    ``ts``/``dur`` are seconds relative to the owning :class:`Obs` epoch.
    ``lane`` names the process the span was recorded in (None = this
    process); spans merged from a worker's observer carry their pool slot
    here and the Chrome exporter renders one pid lane per distinct value.
    """

    name: str
    cat: str
    ts: float
    dur: float
    args: dict = field(default_factory=dict)
    lane: Optional[str] = None


#: the tail quantiles every histogram tracks, as (summary key, probability)
QUANTILES = (("p50", 0.50), ("p95", 0.95), ("p99", 0.99))

#: relative accuracy of every reported quantile: bucket ``k`` holds the
#: values in ``(GAMMA**(k-1), GAMMA**k]`` and reports ``2*GAMMA**k/(GAMMA+1)``,
#: which is within ``ALPHA`` of each of them
ALPHA = 0.01
GAMMA = (1 + ALPHA) / (1 - ALPHA)
_LOG_GAMMA = math.log(GAMMA)
#: the one bucket every value ``<= 0`` shares (``GAMMA ** -inf == 0.0``)
_NONPOSITIVE = float("-inf")


class Histogram:
    """Online summary of a value stream: count, total, min, max, and
    p50/p95/p99 from fixed-ratio log buckets.

    A quantile is the nearest-rank order statistic ``ceil(p * count)``,
    reported as its bucket's representative clamped into [min, max], so
    it is within :data:`ALPHA` of the exact value.  Memory grows with
    the log-range of the values, not their number, and :meth:`merge`
    adds bucket counts: a merged histogram is exactly the histogram of
    both streams, in either order."""

    __slots__ = ("count", "total", "min", "max", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self.buckets: dict[float, int] = {}

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        k = math.ceil(math.log(value) / _LOG_GAMMA) if value > 0 else _NONPOSITIVE
        self.buckets[k] = self.buckets.get(k, 0) + 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, key: str) -> float:
        """A tracked quantile by summary key (``"p50"``/``"p95"``/``"p99"``)."""
        p = dict(QUANTILES)[key]
        if not self.count:
            return 0.0
        rank = math.ceil(p * self.count)
        seen = 0
        for k in sorted(self.buckets):
            seen += self.buckets[k]
            if seen >= rank:
                break
        return min(max(2 * GAMMA ** k / (GAMMA + 1), self.min), self.max)

    def summary(self) -> dict:
        out = {
            "count": self.count,
            "total": self.total,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "mean": self.mean,
        }
        for name, _ in QUANTILES:
            out[name] = self.quantile(name)
        return out

    def merge(self, other: "Histogram") -> None:
        """Fold ``other`` in; every field, the quantiles included, comes
        out as if this histogram had observed ``other``'s stream too."""
        self.count += other.count
        self.total += other.total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        for k, n in other.buckets.items():
            self.buckets[k] = self.buckets.get(k, 0) + n


class Obs:
    """A single run's worth of counters, histograms, and spans."""

    def __init__(self, clock=time.perf_counter) -> None:
        self._clock = clock
        self.epoch = clock()
        self.counters: dict[str, int] = {}
        self.histograms: dict[str, Histogram] = {}
        self.spans: list[SpanEvent] = []

    # ---- counters / histograms -------------------------------------------
    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def observe(self, name: str, value: float) -> None:
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = Histogram()
        hist.observe(value)

    # ---- spans ------------------------------------------------------------
    @contextmanager
    def span(self, name: str, cat: str = "", **args) -> Iterator[dict]:
        """Open a nested span; yields the (mutable) args dict so outcome
        attributes can be attached before the span closes."""
        t0 = self._clock()
        try:
            yield args
        finally:
            self.spans.append(
                SpanEvent(name, cat, t0 - self.epoch, self._clock() - t0, args)
            )

    def event(self, name: str, cat: str = "", start: float = 0.0, dur: float = 0.0, **args) -> None:
        """Report an interval timed elsewhere; ``start`` is an absolute
        value of this observer's clock (``time.perf_counter`` by default)."""
        self.spans.append(SpanEvent(name, cat, start - self.epoch, dur, args))

    def merge(
        self,
        other: "Obs",
        anchor_s: Optional[float] = None,
        lane: Optional[str] = None,
    ) -> None:
        """Fold ``other`` (a worker's observer, unpickled) into this one.

        ``anchor_s`` is the absolute time on *this* clock that ``other``'s
        epoch maps onto (default: no shift); ``lane`` tags every merged
        span that carries none.  Counters sum and histograms merge
        exactly (:meth:`Histogram.merge`).
        """
        offset = (anchor_s - self.epoch) if anchor_s is not None else 0.0
        for name, n in other.counters.items():
            self.count(name, n)
        for name, theirs in other.histograms.items():
            hist = self.histograms.get(name)
            if hist is None:
                hist = self.histograms[name] = Histogram()
            hist.merge(theirs)
        for s in other.spans:
            self.spans.append(replace(
                s, ts=s.ts + offset, lane=lane if s.lane is None else s.lane
            ))

    # ---- summaries ---------------------------------------------------------
    def span_summary(self) -> dict[str, dict]:
        """Per-name aggregate over the finished spans."""
        out: dict[str, dict] = {}
        for s in self.spans:
            row = out.setdefault(s.name, {"count": 0, "total_s": 0.0, "max_s": 0.0})
            row["count"] += 1
            row["total_s"] += s.dur
            if s.dur > row["max_s"]:
                row["max_s"] = s.dur
        return dict(sorted(out.items()))


# ---------------------------------------------------------------------------
# the active observer
# ---------------------------------------------------------------------------

_CURRENT: ContextVar[Optional[Obs]] = ContextVar("repro_obs", default=None)


def current() -> Optional[Obs]:
    """The active observer, or None when observation is disabled."""
    return _CURRENT.get()


@contextmanager
def enabled(obs: Optional[Obs] = None) -> Iterator[Obs]:
    """Activate ``obs`` (a fresh one by default) for the dynamic extent."""
    obs = obs if obs is not None else Obs()
    token = _CURRENT.set(obs)
    try:
        yield obs
    finally:
        _CURRENT.reset(token)


def count(name: str, n: int = 1) -> None:
    o = _CURRENT.get()
    if o is not None:
        o.count(name, n)


def observe(name: str, value: float) -> None:
    o = _CURRENT.get()
    if o is not None:
        o.observe(name, value)


@contextmanager
def span(name: str, cat: str = "", **args) -> Iterator[dict]:
    """Module-level span: records into the active observer, no-op otherwise."""
    o = _CURRENT.get()
    if o is None:
        yield args
        return
    with o.span(name, cat, **args) as a:
        yield a
