"""The one payload checker: the shape walker, the twelve declared
shapes, and the invariants that run behind them.

Four things are pinned here: the walker's notation and message form; the
*boundary* (one walker, no hand-written ``validate_*`` outside
``repro.artifacts``, a shape for every registered id); the never-raises
guarantee, by mutating every path of a valid payload of every kind; and
one tripping input per cross-field invariant.
"""

from __future__ import annotations

import copy
import json
from pathlib import Path

import pytest

import repro
from repro.artifacts import envelope, payload_digest, registry, validate_document
from repro.artifacts.flatten import HISTOGRAM_SUMMARY
from repro.artifacts.shape import check, enum, map_of, nullable
from repro.artifacts.validate import RULE_PAYLOAD
from repro.obs.core import Histogram

SRC = Path(repro.__file__).parent
ROOT = SRC.parent.parent

COMMITTED = (
    "BENCH_matrix.json", "BENCH_par.json", "BENCH_pipeline.json",
    "BENCH_serve.json", "benchmarks/perf_baseline.json",
)


# ---- the walker ------------------------------------------------------------


class TestWalker:
    SHAPE = {
        "name": str,
        "n": int,
        "x": float,
        "on": bool,
        "rows": [{"id": int}],
        "by_key": map_of({"hits": int}),
        "state": enum("up", "down"),
        "note": nullable(str),
        "blob": dict,
        "tail": list,
    }
    GOOD = {
        "name": "a", "n": 1, "x": 1, "on": False, "rows": [{"id": 1}],
        "by_key": {"k": {"hits": 2}}, "state": "up", "note": None,
        "blob": {"anything": [1]}, "tail": [1, "two"], "extra": "is legal",
    }

    def test_match(self):
        assert check(self.GOOD, self.SHAPE) == []

    def test_one_message_form_with_paths(self):
        bad = dict(self.GOOD, n=True, x="1", on=1, rows=[{"id": 1}, None, {}],
                   by_key={"k": {"hits": 1.5}}, state="sideways", note=3,
                   blob=[], tail={})
        del bad["name"]
        assert check(bad, self.SHAPE) == [
            "name: missing",
            "n: want integer, got boolean",
            "x: want number, got string",
            "on: want boolean, got integer",
            "rows[1]: want object, got null",
            "rows[2].id: missing",
            "by_key.k.hits: want integer, got number",
            "state: want one of up|down, got 'sideways'",
            "note: want string, got integer",
            "blob: want object, got list",
            "tail: want list, got object",
        ]

    def test_nullable_field_may_be_absent(self):
        doc = dict(self.GOOD)
        del doc["note"]
        assert check(doc, self.SHAPE) == []

    def test_root_is_named_payload(self):
        assert check([], self.SHAPE) == ["payload: want object, got list"]
        assert check(None, enum("a")) == ["payload: want string, got null"]

    def test_histogram_summary_is_what_histograms_summarise_to(self):
        assert set(HISTOGRAM_SUMMARY) == set(Histogram().summary())
        h = Histogram()
        h.observe(0.25)
        assert check(h.summary(), HISTOGRAM_SUMMARY) == []
        assert check(Histogram().summary(), HISTOGRAM_SUMMARY) == []


# ---- the boundary ----------------------------------------------------------


class TestBoundary:
    def test_no_hand_written_validator_outside_artifacts(self):
        offenders = sorted(
            str(p.relative_to(SRC)) for p in SRC.rglob("*.py")
            if "def validate_" in p.read_text(encoding="utf-8")
        )
        assert offenders == ["artifacts/registry.py", "artifacts/validate.py"]

    def test_exactly_one_module_defines_the_walker(self):
        from repro.artifacts import shape

        assert callable(shape.check)
        # the artifacts layer calls it for every artifact (payloads through
        # the registry, the envelope in validate_document): every subsystem
        # declares data for the walker and none walks.  The two other
        # callers are where JSON that is not an artifact enters: a job
        # spec, and the daemon's request around one
        callers = sorted(
            str(p.relative_to(SRC)) for p in SRC.rglob("*.py")
            if "import check" in p.read_text(encoding="utf-8")
        )
        assert callers == ["artifacts/registry.py", "artifacts/validate.py",
                           "daemon/server.py", "serve/jobs.py"]

    def test_every_registered_id_resolves_a_shape(self):
        for schema_id in registry.known_ids():
            kind = registry.get(schema_id)
            assert isinstance(kind.shape, dict) and kind.shape, schema_id

    def test_the_validate_hooks_are_gone(self):
        from repro.artifacts import publish

        with pytest.raises(TypeError):
            registry.register("repro.nope/1", validate=lambda payload: [])
        with pytest.raises(TypeError):
            publish(None, {"schema": registry.PERF_BASELINE, "metrics": {}},
                    validate=False)


# ---- valid payloads of all twelve kinds ------------------------------------


def _fresh_payloads(tmp_path) -> dict:
    """One freshly built payload for each kind with no committed file."""
    from repro.check import build_report as check_report
    from repro.check.diagnostics import diag
    from repro.check.linter import LintResult
    from repro.daemon import Daemon, DaemonConfig
    from repro.machine.model import scaled_machine
    from repro.machine.tracer import trace_procedure
    from repro.obs import core, export
    from repro.obs.snapshot import snapshot
    from repro.perf import gate
    from repro.pipeline import derive
    from repro.pipeline.workloads import get_workload
    from repro.serve.store import ArtifactStore, build_store_ops

    store = ArtifactStore(str(tmp_path / "store"))
    workload = get_workload("matmul")
    o = core.Obs()
    with core.enabled(o):
        core.count("c")
        core.observe("h", 0.5)
        trace = derive("conv", passes=["split"]).trace
        tracer = trace_procedure(workload.build(), workload.verify_sizes,
                                 scaled_machine(8), seed=0, attribute=True)
    return {
        registry.PIPELINE_TRACE: trace,
        registry.OBS_METRICS: export.metrics(
            o, meta={"workload": "matmul"}, attribution=tracer.attribution,
            analysis_cache=trace["cache"], machine_cache=tracer.stats,
            machine_tlb=tracer.tlb_stats),
        registry.OBS_SNAPSHOT: snapshot(o),
        registry.CHECK_REPORT: check_report(
            [diag("ir/zero-step", "p/DO I", "DO I has step 0")],
            verdicts=[LintResult("p", "K", "blockable", "escapes")]),
        registry.PERF_GATE: gate.compare(
            {"m": 2.0, "n": 1.0, "new": 1.0}, {"m": 1.0, "n": 1.0},
            threshold_pct=0),
        registry.DAEMON_STATUS: Daemon(DaemonConfig(
            workers=1, store_dir=str(tmp_path / "store"))).status_payload(),
        registry.SERVE_STORE: build_store_ops(
            "gc", store, gc={"removed": 1, "kept": 0}),
    }


@pytest.fixture(scope="module")
def envelopes(tmp_path_factory) -> dict:
    """``{schema id: valid envelope}`` for all twelve kinds."""
    envs = {}
    for name in COMMITTED:
        env = json.loads((ROOT / name).read_text(encoding="utf-8"))
        envs[f"{env['schema']}/{env['schema_version']}"] = env
    fresh = _fresh_payloads(tmp_path_factory.mktemp("shapes"))
    for schema_id, payload in fresh.items():
        # through JSON, as a reader would see it
        envs[schema_id] = envelope(json.loads(json.dumps(payload)),
                                   producer="test")
    return envs


def test_a_valid_payload_of_every_kind(envelopes):
    assert sorted(envelopes) == registry.known_ids()
    for schema_id, env in envelopes.items():
        assert validate_document(env) == [], schema_id


# ---- never raises ----------------------------------------------------------

JUNK = (None, 3, "x", [1], {"a": 1}, True, 1.5, [], {})


def _sites(node):
    """``(container, key)`` for every object field and the first three
    elements of every list, at any depth."""
    if isinstance(node, dict):
        items = list(node.items())
    elif isinstance(node, list):
        items = list(enumerate(node[:3]))
    else:
        return
    for key, child in items:
        yield node, key
        yield from _sites(child)


def _restamped(env: dict) -> dict:
    env["digest"] = payload_digest(env["payload"])
    return env


def test_mutants_never_raise(envelopes):
    mutants = 0
    for schema_id, original in envelopes.items():
        env = copy.deepcopy(original)
        for container, key in list(_sites(env["payload"])):
            kept = container[key]
            for junk in JUNK:
                container[key] = junk
                try:
                    problems = validate_document(_restamped(env))
                except Exception as e:  # the guarantee under test
                    pytest.fail(f"{schema_id}: {key!r} = {junk!r} raised "
                                f"{type(e).__name__}: {e}")
                assert isinstance(problems, list)
                mutants += 1
            container[key] = kept
        assert validate_document(_restamped(env)) == [], schema_id
    assert mutants > 5000


def _set(payload, path, value):
    *parents, last = path
    for key in parents:
        payload = payload[key]
    payload[last] = value


#: inputs that made ``artifacts validate`` print a traceback before the
#: shapes existed: (kind, path to overwrite, junk, path the problem names)
FORMER_CRASHES = [
    (registry.MATRIX_REPORT, ("rows", 0), None, "rows[0]"),
    (registry.MATRIX_REPORT, ("run", "hit"), "x", "run.hit"),
    (registry.PAR_REPORT, ("workloads", 0, "loops", 0, "verdict"), ["serial"],
     "workloads[0].loops[0].verdict"),
    (registry.OBS_METRICS, ("histograms", "h"), 3, "histograms.h"),
    (registry.OBS_METRICS, ("attribution",), 3, "attribution"),
]


@pytest.mark.parametrize(
    "schema_id,path,junk,named", FORMER_CRASHES,
    ids=[f"{s}:{n}" for s, _, _, n in FORMER_CRASHES])
def test_former_crash_is_now_a_payload_problem(envelopes, schema_id, path,
                                               junk, named):
    env = copy.deepcopy(envelopes[schema_id])
    _set(env["payload"], path, junk)
    problems = validate_document(_restamped(env))
    assert problems and {p.rule for p in problems} == {RULE_PAYLOAD}
    assert any(p.message.startswith(f"{named}: want ") for p in problems)


# ---- invariants: one tripping input each -----------------------------------

#: (kind, path to overwrite, value, text the one reported problem contains).
#: Each leaves the shape clean, so it is the invariant that fires.
TRIPS = [
    (registry.CHECK_REPORT, ("summary", "error"), 7, "summary.error is 7"),
    (registry.CHECK_REPORT, ("diagnostics", 0, "rule"), "ir/made-up",
     "uncatalogued rule"),
    (registry.MATRIX_REPORT, ("rows", 0, "status"), "failed",
     "rows[0] is failed but carries no error"),
    (registry.MATRIX_REPORT, ("rows", 0, "speedup"), None, "has no speedup"),
    (registry.MATRIX_REPORT, ("summary", "cells"), 1, "summary.cells is 1"),
    (registry.MATRIX_REPORT, ("summary", "ok"), 1, "summary.ok is 1"),
    (registry.MATRIX_REPORT, ("sensitivity", "b", "levels"), {"2": {}},
     "fewer than 2 levels"),
    (registry.MATRIX_REPORT, ("sensitivity", "colour"), {"levels": {}},
     "unknown factor 'colour'"),
    (registry.MATRIX_REPORT, ("run", "total"), 1, "run.total is 1"),
    (registry.PAR_REPORT, ("workloads", 0, "counts", "serial"), 40,
     "workloads[0].counts.serial is 40"),
    (registry.PAR_REPORT, ("totals", "loops"), 1, "totals.loops is 1"),
    (registry.PAR_REPORT, ("totals", "conflicts"), 4, "totals.conflicts is 4"),
    (registry.PAR_REPORT, ("workloads", 0, "sanitizer", "clean"), False,
     "contradicts"),
    (registry.PAR_REPORT, ("workloads", 3, "loops", 0, "witness"), None,
     "workloads[3].loops[0] is serial but names no witness"),
    (registry.OBS_METRICS, ("attribution", "totals", "writes"), -1,
     "writes"),
    (registry.OBS_METRICS, ("machine", "cache", "misses"), -1,
     "machine cache misses"),
    (registry.PIPELINE_TRACE, ("passes",), [], "passes lists 0 names"),
    (registry.PIPELINE_BENCH, ("workloads",), {}, "workloads: empty"),
    (registry.PERF_GATE, ("exit_code",), 0, "exit_code is 0, want 1"),
    (registry.PERF_GATE, ("counts", "regressed"), 3, "counts.regressed is 3"),
    (registry.DAEMON_STATUS, ("requests", "completed"), {"vanished": 1},
     "unknown status(es) ['vanished']"),
    (registry.SERVE_LOAD, ("steps",), [], "steps: empty"),
    (registry.SERVE_STORE, ("gc",), None, "gc: missing"),
]


@pytest.mark.parametrize(
    "schema_id,path,value,text", TRIPS,
    ids=[f"{s}:{'.'.join(map(str, p))}" for s, p, _, _ in TRIPS])
def test_each_invariant_trips(envelopes, schema_id, path, value, text):
    kind = registry.get(schema_id)
    payload = copy.deepcopy(envelopes[schema_id]["payload"])
    _set(payload, path, value)
    assert check(payload, kind.shape) == []
    problems = kind.validate_payload(payload)
    assert problems and any(text in p for p in problems), problems


def test_invariants_wait_for_a_clean_shape(envelopes):
    # shape-broken *and* invariant-broken: only the shape is reported
    par = copy.deepcopy(envelopes[registry.PAR_REPORT]["payload"])
    par["totals"]["loops"] = 1
    par["workloads"][0]["loops"][0] = None
    problems = registry.get(registry.PAR_REPORT).validate_payload(par)
    assert problems == ["workloads[0].loops[0]: want object, got null"]
