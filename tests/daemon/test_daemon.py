"""Daemon lifecycle: admission, shedding, drain, restart, fault isolation."""

from __future__ import annotations

import contextlib
import json
import os
import statistics
import threading
import time

import pytest

from repro.artifacts import payload_of, registry, validate_document
from repro.artifacts.registry import DAEMON_STATUS
from repro.daemon import Daemon, DaemonConfig
from repro.daemon import state as dstate
from repro.daemon.status import flatten_status
from repro.errors import DaemonError
from repro.serve import ArtifactStore, JobSpec, WorkerPool


@pytest.fixture
def store_dir(tmp_path) -> str:
    return str(tmp_path / "cache")


def make_daemon(store_dir, **overrides) -> Daemon:
    defaults = dict(workers=1, queue_limit=4, deadline_s=30.0,
                    store_dir=store_dir, backoff_s=0.01)
    defaults.update(overrides)
    return Daemon(DaemonConfig(**defaults)).start()


def submit(d: Daemon, job: dict, **extra) -> dstate.DaemonReply:
    return dstate.request(
        "127.0.0.1", d.port, "POST", "/v1/jobs",
        {"job": job, **extra}, timeout_s=60.0,
    )


def probe(seconds=0.0, nonce=None, **opts) -> dict:
    options = {"action": "ok", "seconds": seconds, **opts}
    if nonce is not None:
        options["nonce"] = nonce
    return {"kind": "probe", "workload": "t", "options": options}


@pytest.fixture
def daemon(store_dir):
    d = make_daemon(store_dir)
    yield d
    d.request_drain()
    assert d.wait_stopped(30.0)


class TestRequests:
    def test_cold_then_memory_then_store_hit(self, daemon):
        job = probe(value=7)
        cold = submit(daemon, job)
        assert cold.ok and cold.body["status"] == "computed"
        assert cold.body["attempts"] == 1
        warm = submit(daemon, job)
        assert warm.ok and warm.body["status"] == "hit"
        assert warm.body["source"] == "memory"
        assert warm.body["attempts"] == 0
        assert warm.body["digest"] == cold.body["digest"]

    def test_reply_is_the_batch_row_plus_source_and_service_s(
        self, store_dir, tmp_path
    ):
        """One spec through both front ends, on a cold and then a warm
        store: the daemon answers with ``JobOutcome.to_dict()`` — the row
        ``serve submit --json`` prints — and only gains keys."""
        job = {"kind": "derive", "workload": "matmul"}
        clocks = {"wall_s", "queue_wait_s"}
        d = make_daemon(store_dir, mem_cache=0)  # warm = the store, not RAM
        try:
            for status, source in (("computed", "pool"), ("hit", "store")):
                with WorkerPool(
                    workers=1, store=ArtifactStore(str(tmp_path / "batch"))
                ) as pool:
                    (outcome,) = pool.run([JobSpec.from_dict(job)])
                row = outcome.to_dict()
                reply = submit(d, job).body
                assert row["status"] == reply["status"] == status
                assert reply["source"] == source
                assert set(reply) == set(row) | {"source", "service_s"}
                for result in (row["result"], reply["result"]):
                    result.pop("elapsed_s")  # the worker's own clock
                for key in set(row) - clocks - {"id"}:
                    assert reply[key] == row[key], key
        finally:
            d.request_drain()
            assert d.wait_stopped(30.0)

    def test_bad_request_diagnostic(self, daemon):
        for kind in ("nope", "par_shard"):  # one that never existed, one removed
            reply = submit(daemon, {"kind": kind, "workload": "conv"})
            assert reply.status == 400
            assert reply.rule == "daemon/bad-request"
            assert "unknown job kind" in reply.body["error"]["message"]
        # refused at admission: no worker was handed anything
        assert submit(daemon, probe()).body["status"] == "computed"

    def test_unknown_endpoint(self, daemon):
        reply = dstate.request("127.0.0.1", daemon.port, "GET", "/v1/nope")
        assert reply.status == 404
        assert reply.rule == "daemon/not-found"

    def test_failed_job_resolves_not_hangs(self, daemon):
        job = {"kind": "probe", "workload": "t", "max_retries": 0,
               "use_store": False, "options": {"action": "terminal"}}
        reply = submit(daemon, job)
        assert reply.ok  # HTTP 200: the *request* resolved
        assert reply.body["status"] == "failed"
        assert reply.body["error"]

    def test_killed_worker_surfaces_as_failed(self, daemon):
        job = {"kind": "probe", "workload": "t", "max_retries": 0,
               "use_store": False, "options": {"action": "kill"}}
        reply = submit(daemon, job)
        assert reply.ok
        assert reply.body["status"] == "failed"
        assert "died" in reply.body["error"]
        # and the daemon still answers afterwards (worker respawned)
        again = submit(daemon, probe(value=1))
        assert again.ok and again.body["status"] in ("hit", "computed")

    def test_request_deadline_times_out(self, daemon):
        job = probe(seconds=5.0, nonce=1)
        job["use_store"] = False
        reply = submit(daemon, job, deadline_s=0.3)
        assert reply.status == 504
        assert reply.rule == "daemon/deadline"


# ---- admission is total ----------------------------------------------------

CONV = {"kind": "derive", "workload": "conv"}

#: (body, HTTP status): the twelve malformed bodies of the issue that found
#: the bug — the first one killed the scheduler thread, the next eight were a
#: traceback and a dropped connection — and a null deadline, which is legal
MALFORMED = [
    ({"job": {"kind": "derive", "workload": "nope", "use_store": False}}, 400),
    ({"job": {"kind": "derive", "workload": "nope"}}, 400),
    ({"job": {**CONV, "timeout_s": "abc"}}, 400),
    ({"job": {**CONV, "options": [1]}}, 400),
    ({"job": {**CONV, "passes": 5}}, 400),
    ({"job": {"kind": "derive", "workload": ["conv"]}}, 400),
    ({"job": {**CONV, "options": {"unroll": [2]}}}, 400),
    ({"job": CONV, "deadline_s": "soon"}, 400),
    ({"job": {"kind": "cell", "workload": "conv", "options": {"bogus": 1}}}, 400),
    ({"job": {"kind": "nope", "workload": "conv"}}, 400),
    ({"job": {**CONV, "retries": 3}}, 400),
    ({"job": ["conv"]}, 400),
    ({"job": probe(value="null-deadline"), "deadline_s": None}, 200),
]

JUNK = (None, [1], {"a": 1}, "x", -1)


def _mutants():
    """A valid request with each field, at each depth, replaced by each
    junk value (after ``test_shapes.test_mutants_never_raise``)."""
    valid = {
        "job": {"kind": "probe", "workload": "t", "passes": ["split"],
                "options": {"action": "ok", "value": "m"}, "check": False,
                "timeout_s": 30.0, "max_retries": 0, "use_store": True,
                "label": "m"},
        "deadline_s": 30.0,
    }
    sites = [("deadline_s",), ("job",)]
    sites += [("job", field) for field in valid["job"]]
    sites += [("job", "options", name) for name in valid["job"]["options"]]
    for path in sites:
        for junk in JUNK:
            body = json.loads(json.dumps(valid))
            node = body
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = junk
            yield body


def raw_post(port: int, content_length: str, body: bytes = b"") -> tuple:
    """POST /v1/jobs with a hand-written Content-Length."""
    import http.client

    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10.0)
    try:
        conn.putrequest("POST", "/v1/jobs")
        conn.putheader("Content-Length", content_length)
        conn.endheaders(body)
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read())
    finally:
        conn.close()


class TestAdmission:
    """Every request gets a structured reply and none costs the daemon
    anything it needs to answer the next one."""

    def test_every_malformed_body_is_answered(self, daemon):
        for body, want in MALFORMED:
            reply = dstate.request("127.0.0.1", daemon.port, "POST",
                                   "/v1/jobs", body, timeout_s=30.0)
            assert reply.status == want, (body, reply.body)
            if want == 400:
                assert reply.rule == "daemon/bad-request", body
        self.assert_healthy(daemon)

    def test_mutants_of_a_valid_request_are_answered(self, daemon):
        replies = 0
        for body in _mutants():
            reply = dstate.request("127.0.0.1", daemon.port, "POST",
                                   "/v1/jobs", body, timeout_s=30.0)
            assert reply.ok or reply.rule.startswith("daemon/"), (
                body, reply.status, reply.body)
            replies += 1
        assert replies == 65
        self.assert_healthy(daemon)

    def test_request_size_is_bounded(self, daemon):
        from repro.daemon.server import _MAX_BODY

        deep = b"[" * 100_000  # inside the bound, past json's recursion limit
        for length, body in (("-1", b""), (str(_MAX_BODY + 1), b""),
                             (str(10 ** 15), b""), ("nan", b""),
                             (str(len(deep)), deep)):
            status, doc = raw_post(daemon.port, length, body)
            assert status == 400, (length, doc)
            assert doc["error"]["rule"] == "daemon/bad-request"
        self.assert_healthy(daemon)

    @staticmethod
    def assert_healthy(d: Daemon) -> None:
        r = d.status_payload()["requests"]
        assert r["received"] == r["accepted"] + r["rejected"] + r["shed"], r
        assert d._scheduler_thread.is_alive()
        after = submit(d, probe(value="after the table"))
        assert after.ok and after.body["status"] == "computed"
        # the ``daemon`` fixture then asserts the drain completes


class TestSaturation:
    def test_shedding_never_deadlocks(self, store_dir):
        d = make_daemon(store_dir, queue_limit=2)
        try:
            replies = []
            lock = threading.Lock()

            def fire(i):
                r = submit(d, probe(seconds=0.4, nonce=i))
                with lock:
                    replies.append(r)

            threads = [threading.Thread(target=fire, args=(i,))
                       for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(30.0)
            assert len(replies) == 8  # every request got an answer
            shed = [r for r in replies if r.status == 429]
            served = [r for r in replies if r.ok]
            assert shed, "burst over a queue_limit=2 window must shed"
            assert all(r.rule == "daemon/saturated" for r in shed)
            assert served, "the window's worth of jobs must still resolve"
            # shed responses carry the window occupancy for client backoff
            assert all(r.body["error"]["limit"] == 2 for r in shed)
            # eight handler threads and the scheduler wrote one set of
            # books; a lost update would break these sums
            books = d.status_payload()["requests"]
            assert books["received"] == 8 == books["accepted"] + books["shed"]
            assert books["shed"] == len(shed)
            assert sum(books["completed"].values()) == len(served)
        finally:
            d.request_drain()
            assert d.wait_stopped(30.0)


class TestDrainAndRestart:
    def test_drain_completes_in_flight_jobs(self, store_dir):
        d = make_daemon(store_dir)
        reply_box = {}

        def fire():
            reply_box["r"] = submit(d, probe(seconds=0.5, nonce="drain"))

        t = threading.Thread(target=fire)
        t.start()
        time.sleep(0.15)  # let the job reach the worker
        d.request_drain()
        t.join(30.0)
        assert d.wait_stopped(30.0)
        r = reply_box["r"]
        assert r.ok and r.body["status"] == "computed"
        # new requests during/after the drain are refused, not queued
        with pytest.raises(DaemonError):
            submit(d, probe())

    def test_drain_rejects_new_requests(self, store_dir):
        d = make_daemon(store_dir)
        d._draining.set()  # flag only: server still up, scheduler alive
        reply = submit(d, probe())
        assert reply.status == 503
        assert reply.rule == "daemon/draining"
        d.request_drain()
        assert d.wait_stopped(30.0)

    def test_restart_reuses_warm_store_with_zero_attempts(self, store_dir):
        job = probe(value=42)
        d1 = make_daemon(store_dir)
        cold = submit(d1, job)
        assert cold.body["status"] == "computed"
        d1.request_drain()
        assert d1.wait_stopped(30.0)

        d2 = make_daemon(store_dir)
        try:
            warm = submit(d2, job)
            assert warm.ok and warm.body["status"] == "hit"
            assert warm.body["source"] == "store"  # disk, not memory
            assert warm.body["attempts"] == 0
            assert warm.body["digest"] == cold.body["digest"]
        finally:
            d2.request_drain()
            assert d2.wait_stopped(30.0)

    def test_state_file_lifecycle(self, store_dir):
        d = make_daemon(store_dir)
        doc = dstate.read_state(d.store.root)
        assert doc is not None and doc["port"] == d.port
        d.request_drain()
        assert d.wait_stopped(30.0)
        assert dstate.read_state(d.store.root) is None

    def test_stale_state_file_is_cleaned(self, store_dir, tmp_path):
        root = tmp_path / "cache2"
        dstate.write_state(root, {"pid": 2 ** 22 + 12345,
                                  "host": "127.0.0.1", "port": 1})
        assert dstate.read_state(root) is None
        assert not dstate.state_path(root).exists()


class TestWakeups:
    """The scheduler sleeps in one wait that a request, a drain, a worker's
    result or a deadline ends: nothing waits out a clock tick."""

    def test_a_no_op_request_costs_no_tick(self, daemon):
        submit(daemon, probe(nonce="fork"))  # the first job forks the worker
        service = []
        for i in range(20):
            job = {**probe(), "workload": f"noop-{i}"}  # never a memory hit
            reply = submit(daemon, job)
            assert reply.body["status"] == "computed", reply.body
            service.append(reply.body["service_s"])
        # under one 20 ms tick: no fixed sleep sits between hand-out and reply
        assert statistics.median(service) < 0.005, service

    def test_a_request_arriving_mid_job_is_handed_out_when_it_ends(self, daemon):
        submit(daemon, probe(nonce="fork"))
        box = {}

        def slow():
            box["sent"] = time.perf_counter()
            box["reply"] = submit(daemon, probe(seconds=0.3, nonce="slow"))

        t = threading.Thread(target=slow)
        t.start()
        time.sleep(0.1)  # the slow probe runs; the scheduler is in its wait
        sent = time.perf_counter()
        fast = submit(daemon, probe(nonce="fast")).body
        t.join(30.0)
        assert not t.is_alive()
        first = box["reply"].body
        assert first["status"] == fast["status"] == "computed"
        # the slow probe's worker finished at send + queue wait + wall; the
        # fast one was handed out at its own finish less its execution
        ended = box["sent"] + first["queue_wait_s"] + first["wall_s"]
        handed = sent + fast["service_s"] - fast["wall_s"]
        assert handed - ended < 0.010, (first, fast)

    def test_a_full_wake_pipe_still_wakes(self, store_dir):
        d = Daemon(DaemonConfig(workers=1, store_dir=store_dir))
        assert not os.get_blocking(d._wake_w)  # else the fill below hangs
        with contextlib.suppress(BlockingIOError):
            while True:  # past the pipe buffer; nothing reads until start()
                os.write(d._wake_w, b"x" * 4096)
        woke, wake = threading.Event(), d._wake
        d._wake = lambda: (wake(), woke.set())
        box = []
        t = threading.Thread(
            target=lambda: box.append(d.handle_submit({"job": probe(value="full")})))
        t.start()
        assert woke.wait(10.0)  # the write into a full pipe returned
        d.start()
        try:
            t.join(30.0)
            assert not t.is_alive()
            ((status, body),) = box
            assert status == 200 and body["status"] == "computed", body
        finally:
            d.request_drain()
            assert d.wait_stopped(30.0)

    def test_draining_an_idle_daemon_is_prompt(self, store_dir):
        d = make_daemon(store_dir)
        t0 = time.perf_counter()
        d.request_drain()
        assert d.wait_stopped(30.0)
        assert time.perf_counter() - t0 < 0.1  # no idle timeout to wait out


class TestStatus:
    def test_status_envelope_validates(self, daemon):
        submit(daemon, probe(value=1))
        submit(daemon, probe(value=1))
        reply = dstate.request("127.0.0.1", daemon.port, "GET", "/v1/status")
        assert reply.ok
        assert validate_document(reply.body) == []
        payload = payload_of(reply.body)
        assert payload["schema"] == DAEMON_STATUS
        assert payload["state"] == "running"
        assert payload["requests"]["received"] == 2
        assert payload["requests"]["memory_hits"] == 1
        assert payload["requests"]["completed"]["computed"] == 1

    def test_status_flattens_to_daemon_metrics(self, daemon):
        submit(daemon, probe(value=9))
        payload = daemon.status_payload()
        metrics = flatten_status(payload)
        assert metrics["daemon:requests.received"] == 1.0
        assert metrics["daemon:completed.computed"] == 1.0
        assert "daemon:latency.request_s.p50" in metrics

    def test_validator_rejects_junk(self):
        validate = registry.get(DAEMON_STATUS).validate_payload
        assert validate([]) == ["payload: want object, got list"]
        problems = validate({"state": "confused"})
        assert "state: want one of running|draining, got 'confused'" in problems

    def test_one_set_of_books(self, store_dir):
        """Cold, memory-hit, rejected, deadline and shed requests.  The
        literals are what the status reported when the daemon still kept
        a second set of books beside its observer; the ``daemon.*``
        counters flushed to ``daemon_obs.json`` are the same numbers."""
        d = make_daemon(store_dir, queue_limit=1)
        slow = {**probe(seconds=1.0, nonce="slow"), "use_store": False}
        replies = [
            submit(d, probe(value=1)),                  # cold: computed
            submit(d, probe(value=1)),                  # memory hit
            submit(d, {"kind": "nope", "workload": "t"}),  # rejected
            submit(d, slow, deadline_s=0.2),            # outlives its deadline
            submit(d, probe(value=2)),                  # window full: shed
        ]
        assert [r.status for r in replies] == [200, 200, 400, 504, 429]
        d.request_drain()
        assert d.wait_stopped(30.0)
        status = d.status_payload()
        assert status["requests"] == {
            "received": 5, "accepted": 3, "shed": 1, "rejected": 1,
            "deadline": 1, "memory_hits": 1, "completed": {"computed": 2},
        }
        assert {k: h["count"] for k, h in status["latency"].items()} == {
            "request_s": 3, "hit_s": 1, "computed_s": 2}
        assert status["mem_cache"]["hits"] == 1

        env = json.loads((d.store.root / "daemon_obs.json").read_text())
        flushed = payload_of(env)
        counters = flushed["counters"]
        for field, n in status["requests"].items():
            if field != "completed":
                assert counters.get(f"daemon.requests.{field}", 0) == n, field
        assert {k.split(".")[-1]: n for k, n in counters.items()
                if k.startswith("daemon.completed.")} == {"computed": 2}
        for key, summary in status["latency"].items():
            assert flushed["histograms"][f"daemon.latency.{key}"] == summary

    def test_final_status_written_on_drain(self, store_dir):
        d = make_daemon(store_dir)
        submit(d, probe(value=3))
        d.request_drain()
        assert d.wait_stopped(30.0)
        path = d.store.root / "daemon_final_status.json"
        env = json.loads(path.read_text())
        assert validate_document(env) == []
        assert payload_of(env)["state"] == "draining"
