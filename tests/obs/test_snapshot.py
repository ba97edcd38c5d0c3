"""A worker's observer crossing a process boundary: pickled as itself,
restored in the parent, folded in with ``Obs.merge`` across clocks."""

from __future__ import annotations

import json
import pickle
import time

import pytest

from repro.obs import core, export


def ticking_clock(step: float = 1.0):
    """A deterministic clock: returns 0, step, 2*step, ... on each call."""
    state = {"t": -step}

    def clock() -> float:
        state["t"] += step
        return state["t"]

    return clock


def observed(clock=None) -> core.Obs:
    """An observer with one of everything."""
    o = core.Obs(clock=clock or ticking_clock())
    o.count("dep.queries", 3)
    for v in (1.0, 2.0, 4.0):
        o.observe("lat_s", v)
    with o.span("outer", cat="a", status="applied"):
        with o.span("inner", cat="b"):
            pass
    return o


def spans_of(o: core.Obs) -> list:
    return [(s.name, s.cat, s.ts, s.dur, s.args, s.lane) for s in o.spans]


class TestRoundtrip:
    def test_restore_preserves_everything(self):
        # what the pool does: pickle in the worker, restore in the parent
        # (the default clock, ``time.perf_counter``, pickles by name)
        orig = observed(clock=time.perf_counter)
        orig.spans[0].lane = "w3"
        back = pickle.loads(pickle.dumps(orig))
        assert back.counters == {"dep.queries": 3}
        h = back.histograms["lat_s"]
        assert (h.count, h.total, h.min, h.max) == (3, 7.0, 1.0, 4.0)
        assert h.quantile("p50") == pytest.approx(2.0, rel=core.ALPHA)
        assert h.buckets == orig.histograms["lat_s"].buckets
        assert back.epoch == orig.epoch
        # span timestamps stay epoch-relative through the roundtrip
        assert spans_of(back) == spans_of(orig)
        assert pickle.dumps(back) == pickle.dumps(orig)


class TestMerge:
    def test_counters_sum(self):
        parent = core.Obs(clock=ticking_clock())
        parent.count("dep.queries", 10)
        parent.count("parent.only")
        parent.merge(observed())
        assert parent.counters == {
            "dep.queries": 13,
            "parent.only": 1,
        }

    def test_histograms_merge_exactly_in_the_moments(self):
        parent = core.Obs(clock=ticking_clock())
        for v in (0.5, 8.0):
            parent.observe("lat_s", v)
        parent.merge(observed())
        h = parent.histograms["lat_s"]
        assert (h.count, h.total, h.min, h.max) == (5, 15.5, 0.5, 8.0)
        # the merge is the histogram of all five observations
        alone = core.Histogram()
        for v in (0.5, 8.0, 1.0, 2.0, 4.0):
            alone.observe(v)
        assert h.buckets == alone.buckets
        assert h.summary() == alone.summary()
        assert h.quantile("p50") == pytest.approx(2.0, rel=core.ALPHA)

    def test_clock_domains_align_on_the_anchor(self):
        # parent clock and child clock have unrelated epochs; the pool
        # anchors child t=0 at the parent-clock assignment time
        parent = core.Obs(clock=ticking_clock())        # epoch 0.0
        child = core.Obs(clock=ticking_clock(0.5))      # epoch 0.0, own domain
        with child.span("job:x", cat="serve.worker"):   # ts 0.5, dur 0.5
            pass
        parent.merge(child, anchor_s=10.0, lane="w1")
        (s,) = parent.spans
        assert s.ts == 10.5  # anchor + child-relative time
        assert s.dur == 0.5
        assert s.lane == "w1"
        assert child.spans[0].ts == 0.5 and child.spans[0].lane is None

    def test_anchor_is_parent_clock_absolute(self):
        clock = ticking_clock()
        parent = core.Obs(clock=clock)  # epoch 0.0
        parent.epoch = 3.0              # pretend the parent started later
        child = core.Obs(clock=ticking_clock())
        child.event("e", start=1.0, dur=0.25)
        parent.merge(child, anchor_s=10.0)
        (s,) = parent.spans
        # child-relative 1.0 lands at parent-relative (10.0 - 3.0) + 1.0
        assert s.ts == 8.0

    def test_depth_and_existing_lane_preserved(self):
        parent = core.Obs(clock=ticking_clock())
        child = observed()
        child.spans[0].lane = "w9"  # already tagged: do not overwrite
        parent.merge(child, lane="w0")
        inner, outer = parent.spans
        # nesting is positional: the inner span lies inside the outer one
        assert outer.ts < inner.ts and inner.ts + inner.dur < outer.ts + outer.dur
        assert inner.lane == "w9"
        assert outer.lane == "w0"

    def test_merge_without_anchor_keeps_child_times(self):
        parent = core.Obs(clock=ticking_clock())
        parent.merge(observed())
        orig = observed()
        assert [s.ts for s in parent.spans] == [s.ts for s in orig.spans]


class TestChromeExport:
    def test_merged_spans_get_their_own_pid_lane(self):
        parent = observed()
        parent.merge(observed(), anchor_s=0.0, lane="w0")
        parent.merge(observed(), anchor_s=0.0, lane="w1")
        trace = export.chrome_trace(parent)
        pids = {e["pid"] for e in trace["traceEvents"] if e["ph"] == "X"}
        assert pids == {1, 2, 3}
        names = {
            e["args"]["name"]
            for e in trace["traceEvents"]
            if e["name"] == "process_name"
        }
        assert names == {"repro", "repro worker w0", "repro worker w1"}


# ---- same observations as the JSON snapshot path it replaced ---------------

#: ``export.metrics`` and ``export.chrome_trace`` of the merge below, as
#: recorded when a worker's observer still crossed the queue as a JSON
#: snapshot (``repro.obs.snapshot/1``) and merged from that; the quantiles
#: are the log-bucket ones (``lat_s`` p50 is rank 7 of 13, 5.0 to within
#: ``core.ALPHA``; p95/p99 are rank 13, 64.0)
RECORDED = json.loads("""
{"chrome": {"displayTimeUnit": "ms", "otherData": {"schema": "repro.obs/1"},
 "traceEvents": [
  {"args": {"name": "repro"}, "name": "process_name", "ph": "M",
   "pid": 1, "tid": 1},
  {"args": {"name": "pipeline+simulator"}, "name": "thread_name", "ph": "M",
   "pid": 1, "tid": 1},
  {"args": {"name": "repro worker w1"}, "name": "process_name", "ph": "M",
   "pid": 2, "tid": 1},
  {"args": {"name": "repro worker w9"}, "name": "process_name", "ph": "M",
   "pid": 3, "tid": 1},
  {"args": {}, "cat": "serve", "dur": 1000000.0, "name": "serve", "ph": "X",
   "pid": 1, "tid": 1, "ts": 1000000.0},
  {"args": {}, "cat": "t", "dur": 125000.0, "name": "tagged", "ph": "X",
   "pid": 3, "tid": 1, "ts": 10250000.0},
  {"args": {"kind": "derive"}, "cat": "serve.worker", "dur": 1500000.0,
   "name": "job:x", "ph": "X", "pid": 2, "tid": 1, "ts": 10500000.0},
  {"args": {"status": "applied"}, "cat": "pipeline", "dur": 500000.0,
   "name": "pass:block", "ph": "X", "pid": 2, "tid": 1, "ts": 11000000.0}]},
 "metrics": {
  "analysis_cache": {},
  "attribution": null,
  "counters": {"dep.queries": 13, "parent.only": 1,
               "pipeline.pass.applied": 1},
  "histograms": {
   "child_only_s": {"count": 2, "max": 0.75, "mean": 0.5, "min": 0.25,
                    "p50": 0.25, "p95": 0.748218920212955,
                    "p99": 0.748218920212955, "total": 1.0},
   "lat_s": {"count": 13, "max": 64.0, "mean": 11.673076923076923,
             "min": 0.25, "p50": 5.002829575110705, "p95": 63.439604250279885,
             "p99": 63.439604250279885, "total": 151.75}},
  "machine": {"cache": null, "tlb": null},
  "meta": {"tool": "test"},
  "spans": {
   "job:x": {"count": 1, "max_s": 1.5, "total_s": 1.5},
   "pass:block": {"count": 1, "max_s": 0.5, "total_s": 0.5},
   "serve": {"count": 1, "max_s": 1.0, "total_s": 1.0},
   "tagged": {"count": 1, "max_s": 0.125, "total_s": 0.125}}}}
""")


def test_merge_reproduces_the_recorded_observations():
    child = core.Obs(clock=ticking_clock(0.5))
    child.count("dep.queries", 3)
    child.count("pipeline.pass.applied")
    for v in (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 0.5):
        child.observe("lat_s", v)
    for v in (0.75, 0.25):  # a histogram the parent does not have
        child.observe("child_only_s", v)
    with child.span("job:x", cat="serve.worker", kind="derive"):
        with child.span("pass:block", cat="pipeline", status="applied"):
            pass
    child.event("tagged", cat="t", start=child.epoch + 0.25, dur=0.125)
    child.spans[-1].lane = "w9"

    parent = core.Obs(clock=ticking_clock())
    parent.count("dep.queries", 10)
    parent.count("parent.only")
    for v in (0.25, 64.0, 3.0, 5.0, 7.0, 9.0):
        parent.observe("lat_s", v)
    with parent.span("serve", cat="serve"):
        pass

    parent.merge(child, anchor_s=10.0, lane="w1")
    got = {"metrics": export.metrics(parent, meta={"tool": "test"}),
           "chrome": export.chrome_trace(parent)}
    assert json.loads(json.dumps(got)) == RECORDED
