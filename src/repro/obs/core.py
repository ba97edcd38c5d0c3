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

import copy
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


class _P2:
    """Single-quantile P² estimator (Jain & Chlamtac, CACM 1985).

    Bounded memory: five marker heights + five marker positions once
    initialized (the first five observations are buffered exactly).
    """

    __slots__ = ("p", "heights", "positions", "desired")

    def __init__(self, p: float) -> None:
        self.p = p
        self.heights: list[float] = []  # <5 entries = still the exact buffer
        self.positions: Optional[list[float]] = None
        self.desired: Optional[list[float]] = None

    def observe(self, x: float) -> None:
        if self.positions is None:
            self.heights.append(x)
            if len(self.heights) == 5:
                self.heights.sort()
                self.positions = [1.0, 2.0, 3.0, 4.0, 5.0]
                p = self.p
                self.desired = [1.0, 1 + 2 * p, 1 + 4 * p, 3 + 2 * p, 5.0]
            return
        q, n, d = self.heights, self.positions, self.desired
        if x < q[0]:
            q[0] = x
            k = 0
        elif x >= q[4]:
            q[4] = x
            k = 3
        else:
            k = next(i for i in range(4) if q[i] <= x < q[i + 1])
        for i in range(k + 1, 5):
            n[i] += 1
        p = self.p
        for i, inc in enumerate((0.0, p / 2, p, (1 + p) / 2, 1.0)):
            d[i] += inc
        for i in (1, 2, 3):
            delta = d[i] - n[i]
            if (delta >= 1 and n[i + 1] - n[i] > 1) or (
                delta <= -1 and n[i - 1] - n[i] < -1
            ):
                sign = 1.0 if delta >= 1 else -1.0
                candidate = q[i] + sign / (n[i + 1] - n[i - 1]) * (
                    (n[i] - n[i - 1] + sign) * (q[i + 1] - q[i]) / (n[i + 1] - n[i])
                    + (n[i + 1] - n[i] - sign) * (q[i] - q[i - 1]) / (n[i] - n[i - 1])
                )
                if q[i - 1] < candidate < q[i + 1]:  # parabolic (P²) step
                    q[i] = candidate
                else:  # fall back to linear
                    j = i + (1 if sign > 0 else -1)
                    q[i] = q[i] + sign * (q[j] - q[i]) / (n[j] - n[i])
                n[i] += sign

    def value(self) -> float:
        """The current estimate (exact while still buffering)."""
        if self.positions is not None:
            return self.heights[2]
        if not self.heights:
            return 0.0
        ordered = sorted(self.heights)
        # nearest-rank interpolation over the exact buffer
        pos = self.p * (len(ordered) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(ordered) - 1)
        return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


class Histogram:
    """Online summary of a value stream: count, total, min, max, and
    bounded-memory streaming quantiles (p50/p95/p99 via P² estimators —
    exact below five observations, approximate after)."""

    __slots__ = ("count", "total", "min", "max", "_quantiles")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self._quantiles = tuple(_P2(p) for _, p in QUANTILES)

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        for est in self._quantiles:
            est.observe(value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, key: str) -> float:
        """A tracked quantile by summary key (``"p50"``/``"p95"``/``"p99"``),
        clamped into [min, max] so estimator drift never reports an
        impossible value."""
        for (name, _), est in zip(QUANTILES, self._quantiles):
            if name == key:
                if not self.count:
                    return 0.0
                return min(max(est.value(), self.min), self.max)
        raise KeyError(key)

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
        """Fold ``other`` in: count/total/min/max are exact; the quantile
        markers combine by count-weighted height averaging at matched
        probabilities (approximate, bounded memory, deterministic)."""
        if not other.count:
            return
        if not self.count:
            self.count = other.count
            self.total = other.total
            self.min = other.min
            self.max = other.max
            self._quantiles = copy.deepcopy(other._quantiles)
            return
        merged = []
        for mine, theirs in zip(self._quantiles, other._quantiles):
            merged.append(_merge_p2(mine, theirs, self.count, other.count))
        self.count += other.count
        self.total += other.total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        self._quantiles = tuple(merged)


def _merge_p2(a: _P2, b: _P2, count_a: int, count_b: int) -> _P2:
    """Combine two P² states over disjoint streams of the given sizes."""
    if b.positions is None:  # b's exact buffer replays losslessly into a
        out = copy.deepcopy(a)
        for v in b.heights:
            out.observe(v)
        return out
    if a.positions is None:
        return _merge_p2(b, a, count_b, count_a)
    out = _P2(a.p)
    wa = count_a / (count_a + count_b)
    wb = 1.0 - wa
    out.heights = [
        qa * wa + qb * wb for qa, qb in zip(a.heights, b.heights)
    ]
    out.heights[0] = min(a.heights[0], b.heights[0])
    out.heights[4] = max(a.heights[4], b.heights[4])
    out.heights = sorted(out.heights)
    out.positions = [na + nb for na, nb in zip(a.positions, b.positions)]
    out.desired = [da + db for da, db in zip(a.desired, b.desired)]
    return out


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
        span that carries none.  Counters sum exactly; histograms merge
        exactly in count/total/min/max, approximately in the quantiles.
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
