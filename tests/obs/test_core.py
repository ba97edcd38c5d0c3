"""repro.obs.core: counters, histograms, span nesting, enable/disable."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.obs import core


def ticking_clock(step: float = 1.0):
    """A deterministic clock: returns 0, step, 2*step, ... on each call."""
    state = {"t": -step}

    def clock() -> float:
        state["t"] += step
        return state["t"]

    return clock


class TestCounters:
    def test_count_accumulates(self):
        o = core.Obs()
        o.count("dep.queries")
        o.count("dep.queries", 4)
        assert o.counters == {"dep.queries": 5}

    def test_histogram_summary(self):
        o = core.Obs()
        for v in (1.0, 3.0, 2.0):
            o.observe("lat_s", v)
        s = o.histograms["lat_s"].summary()
        assert s["count"] == 3
        assert s["total"] == 6.0
        assert s["min"] == 1.0 and s["max"] == 3.0
        assert s["mean"] == 2.0

    def test_empty_histogram_summary_has_no_infinities(self):
        h = core.Histogram()
        s = h.summary()
        assert s == {"count": 0, "total": 0.0, "min": 0.0, "max": 0.0,
                     "mean": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0}


class TestStreamingQuantiles:
    def test_small_streams_report_the_nearest_rank(self):
        h = core.Histogram()
        for v in (4.0, 1.0, 3.0, 2.0):
            h.observe(v)
        # ranks ceil(0.5 * 4) = 2 and ceil(0.99 * 4) = 4, to within ALPHA
        assert h.quantile("p50") == pytest.approx(2.0, rel=core.ALPHA)
        assert h.quantile("p99") == pytest.approx(4.0, rel=core.ALPHA)

    def test_buckets_track_a_uniform_stream(self):
        h = core.Histogram()
        # deterministic low-discrepancy walk over [0, 1)
        for i in range(2000):
            h.observe((i * 419) % 2000 / 2000)
        assert h.quantile("p50") == pytest.approx(0.5, rel=core.ALPHA)
        assert h.quantile("p95") == pytest.approx(0.95, rel=core.ALPHA)
        assert h.quantile("p99") == pytest.approx(0.99, rel=core.ALPHA)

    def test_estimates_are_clamped_into_range(self):
        h = core.Histogram()
        for v in (5.0, 5.0, 5.0, 5.0, 5.0, 5.0, 5.0):
            h.observe(v)
        for key in ("p50", "p95", "p99"):
            assert h.quantile(key) == 5.0

    def test_unknown_quantile_key_raises(self):
        with pytest.raises(KeyError):
            core.Histogram().quantile("p42")

    def test_summary_includes_quantiles(self):
        h = core.Histogram()
        for v in (1.0, 2.0, 3.0):
            h.observe(v)
        s = h.summary()
        assert s["p50"] == pytest.approx(2.0, rel=core.ALPHA)
        assert s["p99"] == pytest.approx(3.0, rel=core.ALPHA)

    def test_merge_of_halves_matches_full_stream(self):
        full, a, b = core.Histogram(), core.Histogram(), core.Histogram()
        values = [(i * 419) % 1000 / 1000 for i in range(1000)]
        for v in values:
            full.observe(v)
        for v in values[:500]:
            a.observe(v)
        for v in values[500:]:
            b.observe(v)
        a.merge(b)
        assert a.count == full.count
        assert a.total == pytest.approx(full.total)
        assert (a.min, a.max) == (full.min, full.max)
        for key in ("p50", "p95", "p99"):
            assert a.quantile(key) == pytest.approx(full.quantile(key), abs=0.05)

    def test_merge_replays_a_small_buffer_exactly(self):
        big, small = core.Histogram(), core.Histogram()
        for i in range(100):
            big.observe(float(i))
        for v in (0.0, 99.0):
            small.observe(v)
        before = big.count
        big.merge(small)
        assert big.count == before + 2
        assert (big.min, big.max) == (0.0, 99.0)

    def test_merge_into_empty_copies(self):
        a, b = core.Histogram(), core.Histogram()
        for v in (1.0, 2.0, 3.0):
            b.observe(v)
        a.merge(b)
        assert a.summary() == b.summary()
        b.observe(100.0)  # the copy must be independent
        assert a.count == 3

    def test_pickle_roundtrip_keeps_estimating(self):
        h = core.Histogram()
        for i in range(50):
            h.observe(float(i))
        back = pickle.loads(pickle.dumps(h))
        assert back.summary() == h.summary()
        back.observe(1000.0)
        assert back.count == 51 and back.max == 1000.0


def histogram_of(values) -> core.Histogram:
    h = core.Histogram()
    for v in values:
        h.observe(float(v))
    return h


def lognormal_with_zeros(seed: int) -> list:
    """A log-normal stream (spread over nanoseconds to seconds) with about
    a fifth of its values 0.0, the way the daemon records memory hits."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 1500))
    values = rng.lognormal(rng.uniform(-14.0, 1.0), rng.uniform(0.1, 3.0), n)
    values[rng.random(n) < 0.2] = 0.0
    return values.tolist()


class TestBucketContract:
    """Every quantile is the nearest-rank order statistic to within
    ``ALPHA``, and merging is exact."""

    @pytest.mark.parametrize("seed", range(40))
    def test_quantiles_are_within_alpha_of_inverted_cdf(self, seed):
        values = lognormal_with_zeros(seed)
        h = histogram_of(values)
        for key, p in core.QUANTILES:
            exact = float(np.quantile(values, p, method="inverted_cdf"))
            assert abs(h.quantile(key) - exact) <= core.ALPHA * exact, (key, exact)

    @pytest.mark.parametrize("seed", range(20))
    def test_merge_equals_the_histogram_of_both_streams(self, seed):
        a, b = lognormal_with_zeros(2 * seed), lognormal_with_zeros(2 * seed + 1)
        both = histogram_of(a + b)
        for first, second in ((a, b), (b, a)):
            merged = histogram_of(first)
            merged.merge(histogram_of(second))
            assert (merged.count, merged.min, merged.max) == (
                both.count, both.min, both.max)
            for key, _ in core.QUANTILES:
                assert merged.quantile(key) == both.quantile(key), key

    def test_daemon_order_stream(self):
        # 40 computes, then 400 memory hits recorded as 0.0 s
        computes = [0.25 + 0.25 * i / 39 for i in range(40)]
        h = histogram_of(computes + [0.0] * 400)
        assert h.quantile("p50") == 0.0
        exact = float(np.quantile(computes + [0.0] * 400, 0.95, method="inverted_cdf"))
        assert h.quantile("p95") == pytest.approx(exact, rel=0.01)

    def test_nonpositive_values_share_the_zero_bucket(self):
        h = histogram_of([-2.0, 0.0, -0.5, 3.0])
        assert h.quantile("p50") == 0.0
        assert h.quantile("p99") == pytest.approx(3.0, rel=core.ALPHA)
        assert histogram_of([-2.0, -0.5]).quantile("p99") == -0.5  # 0 clamped


class TestSpans:
    def test_nesting_depth_and_duration(self):
        o = core.Obs(clock=ticking_clock())
        with o.span("outer", cat="a"):
            with o.span("inner", cat="b"):
                pass
        # spans close innermost-first; nesting is containment in time
        inner, outer = o.spans
        assert (inner.name, outer.name) == ("inner", "outer")
        assert inner.dur == 1.0  # one clock tick inside
        assert outer.ts < inner.ts
        assert inner.ts + inner.dur < outer.ts + outer.dur

    def test_span_args_mutable_until_close(self):
        o = core.Obs()
        with o.span("run", engine="interpreter") as args:
            args["misses"] = 7
        assert o.spans[0].args == {"engine": "interpreter", "misses": 7}

    def test_span_recorded_when_body_raises(self):
        o = core.Obs()
        try:
            with o.span("boom"):
                raise RuntimeError("x")
        except RuntimeError:
            pass
        assert [s.name for s in o.spans] == ["boom"]

    def test_event_reports_externally_timed_interval(self):
        o = core.Obs(clock=ticking_clock())
        o.event("pass:block", cat="pipeline", start=o.epoch + 2.0, dur=0.5, status="applied")
        (s,) = o.spans
        assert s.ts == 2.0 and s.dur == 0.5
        assert s.args["status"] == "applied"

    def test_span_summary_aggregates_by_name(self):
        o = core.Obs(clock=ticking_clock())
        with o.span("a"):
            pass
        with o.span("a"):
            pass
        with o.span("b"):
            pass
        summary = o.span_summary()
        assert summary["a"]["count"] == 2
        assert summary["a"]["total_s"] == 2.0
        assert summary["b"]["count"] == 1


class TestActiveObserver:
    def test_disabled_helpers_are_noops(self):
        assert core.current() is None
        core.count("x")  # must not raise
        core.observe("y", 1.0)
        with core.span("z") as args:
            args["k"] = 1  # yielded dict is just discarded

    def test_enabled_routes_helpers_and_restores(self):
        with core.enabled() as o:
            assert core.current() is o
            core.count("hits", 2)
            core.observe("lat_s", 0.25)
            with core.span("work", cat="t"):
                pass
        assert core.current() is None
        assert o.counters == {"hits": 2}
        assert o.histograms["lat_s"].count == 1
        assert [s.name for s in o.spans] == ["work"]

    def test_enabled_accepts_existing_observer_and_nests(self):
        mine = core.Obs()
        with core.enabled(mine) as o:
            assert o is mine
            inner = core.Obs()
            with core.enabled(inner):
                core.count("c")
            assert core.current() is mine
        assert inner.counters == {"c": 1}
        assert "c" not in mine.counters
