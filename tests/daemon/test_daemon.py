"""Daemon lifecycle: admission, shedding, drain, restart, fault isolation."""

from __future__ import annotations

import contextlib
import json
import os
import select
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.artifacts import (
    payload_of,
    registry,
    schema_id_of,
    validate_document,
)
from repro.artifacts.registry import DAEMON_STATUS
from repro.daemon import Daemon, DaemonConfig
from repro.daemon import state as dstate
from repro.daemon.status import flatten_status
from repro.errors import DaemonError
from repro.serve import ArtifactStore, JobSpec, WorkerPool
from repro.serve.pool import CRASH_RETRIES

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture
def store_dir(tmp_path) -> str:
    return str(tmp_path / "cache")


def make_daemon(store_dir, **overrides) -> Daemon:
    defaults = dict(workers=1, queue_limit=4, deadline_s=30.0,
                    store_dir=store_dir)
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
        job = {"kind": "probe", "workload": "t", "use_store": False,
               "options": {"action": "raise"}}
        reply = submit(daemon, job)
        assert reply.ok  # HTTP 200: the *request* resolved
        assert reply.body["status"] == "failed"
        assert reply.body["attempts"] == 1  # a raise is never re-run
        assert reply.body["error"] == "RuntimeError: probe raised"

    def test_killed_worker_surfaces_as_failed(self, daemon):
        job = {"kind": "probe", "workload": "t", "use_store": False,
               "options": {"action": "kill"}}
        reply = submit(daemon, job)
        assert reply.ok
        assert reply.body["status"] == "failed"
        assert reply.body["attempts"] == 1 + CRASH_RETRIES
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
#: traceback and a dropped connection — a null deadline, which is legal, and
#: unroll factors jam cannot use, which used to be coerced or ignored, and a
#: block factor that used to become a symbol named ``4x``; then the gone
#: ``max_retries`` field and three timeouts no deadline can be kept for (a
#: NaN one, which ``json.dumps`` writes, used to switch the deadline off)
MALFORMED = [
    ({"job": {**CONV, "options": {"unroll": 2.5}}}, 400),
    ({"job": {**CONV, "options": {"unroll": "4"}}}, 400),
    ({"job": {**CONV, "options": {"unroll": 0}}}, 400),
    ({"job": {**CONV, "options": {"unroll": True}}}, 400),
    ({"job": {**CONV, "options": {"factor": "4x"}}}, 400),
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
    ({"job": {**CONV, "max_retries": 0}}, 400),  # the knob is gone
    ({"job": {**CONV, "timeout_s": float("nan")}}, 400),
    ({"job": {**CONV, "timeout_s": 0}}, 400),
    ({"job": {**CONV, "timeout_s": -1}}, 400),
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
                "timeout_s": 30.0, "use_store": True,
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


def raw_exchange(port: int, data: bytes, trickle: bytes = b"") -> tuple:
    """Send ``data`` on a fresh socket, then ``trickle`` one byte per 0.1 s
    until a reply starts; read the reply up to the daemon's close and
    return ``(status, headers, body)``."""
    with socket.create_connection(("127.0.0.1", port), timeout=10.0) as sock:
        sock.sendall(data)
        for i in range(len(trickle)):
            if select.select([sock], [], [], 0.1)[0]:
                break
            sock.sendall(trickle[i:i + 1])
        raw = b""
        while chunk := sock.recv(65536):
            raw += chunk
    head, _, body = raw.partition(b"\r\n\r\n")
    start, *lines = head.decode("latin-1").split("\r\n")
    headers = dict(line.split(": ", 1) for line in lines)
    assert int(headers["Content-Length"]) == len(body), raw
    return int(start.split()[1]), headers, json.loads(body)


class TestAdmission:
    """Every request gets a structured reply and none costs the daemon
    anything it needs to answer the next one."""

    def test_malformed_framing_gets_a_structured_reply(self, daemon):
        from repro.daemon.wire import MAX_HEADERS, MAX_LINE

        job = json.dumps({"job": probe(value="chunked")}).encode()
        for data in (
            b"GARBAGE\r\n\r\n",
            b"GET /v1/healthz HTTP/1.1\r\nX-Long: "
            + b"a" * MAX_LINE + b"\r\n\r\n",
            b"GET /v1/healthz HTTP/1.1\r\n"
            + b"".join(b"X-%d: 1\r\n" % i for i in range(MAX_HEADERS + 1))
            + b"\r\n",
            b"POST /v1/jobs HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
            + b"%x\r\n%s\r\n0\r\n\r\n" % (len(job), job),
            b"PUT /v1/jobs HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}",
        ):
            status, headers, doc = raw_exchange(daemon.port, data)
            assert status == 400, (data[:40], doc)
            assert doc["error"]["rule"] == "daemon/bad-request", doc
            assert headers["Connection"] == "close", headers
        assert daemon.status_payload()["requests"]["rejected"] == 5
        self.assert_healthy(daemon)

    def test_a_request_trickling_in_is_answered_in_time(
        self, store_dir, monkeypatch, capfd
    ):
        """A head and body must arrive whole within ``IDLE_TIMEOUT_S`` of
        their first byte; 40 bytes at one per 0.1 s would take 4 s."""
        from repro.daemon import server

        monkeypatch.setattr(server, "IDLE_TIMEOUT_S", 0.5)
        d = make_daemon(store_dir)
        try:
            head = b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 40\r\n\r\n"
            t0 = time.perf_counter()
            status, headers, doc = raw_exchange(d.port, head, trickle=b" " * 40)
            assert time.perf_counter() - t0 < 2.0
            assert status == 400 and doc["error"]["rule"] == "daemon/bad-request"
            assert "after its first byte" in doc["error"]["message"], doc
            assert headers["Connection"] == "close"
            # a peer that goes away mid-request ends its connection quietly
            with socket.create_connection(("127.0.0.1", d.port)) as sock:
                sock.sendall(head + b"{")
            time.sleep(0.7)
            assert d.status_payload()["requests"]["rejected"] == 2
            self.assert_healthy(d)
        finally:
            d.request_drain()
            assert d.wait_stopped(30.0)
        assert capfd.readouterr().err == ""

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
        assert replies == 60
        self.assert_healthy(daemon)

    def test_request_size_is_bounded(self, daemon):
        from repro.daemon.wire import MAX_BODY as _MAX_BODY

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

    def test_a_corrupt_store_entry_is_recomputed_then_served(self, store_dir):
        """A bit-flipped entry on the daemon path costs one recomputation:
        the restarted daemon counts it corrupt and derives again, and the
        next one serves the rewritten entry."""
        job = {"kind": "derive", "workload": "matmul"}
        pinned = json.loads(
            (ROOT / "benchmarks" / "blockbench" / "expected.json").read_text()
        )["fingerprints"]["matmul"]
        d = make_daemon(store_dir)
        assert submit(d, job).body["status"] == "computed"
        d.request_drain()
        assert d.wait_stopped(30.0)
        (entry,) = (d.store.root / "objects").rglob("*.art")
        blob = bytearray(entry.read_bytes())
        blob[len(blob) // 2] ^= 0x01
        entry.write_bytes(bytes(blob))

        for status, source, corrupt in (("computed", "pool", 1),
                                        ("hit", "store", 0)):
            d = make_daemon(store_dir)
            try:
                reply = submit(d, job).body
                assert (reply["status"], reply["source"]) == (status, source)
                assert reply["fingerprint"] == pinned
                assert d.status_payload()["store"]["corrupt"] == corrupt
            finally:
                d.request_drain()
                assert d.wait_stopped(30.0)

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

    def test_restarted_daemon_is_found_on_the_next_call(self, tmp_path, monkeypatch):
        """The parsed record is kept per state file and re-read when the
        file changes: a daemon that came back on a new port is found at
        once, and an unchanged file is not parsed again."""
        root = tmp_path / "cache3"
        parsed = []
        real_loads = dstate.json.loads
        monkeypatch.setattr(dstate.json, "loads",
                            lambda text: parsed.append(text) or real_loads(text))
        path = dstate.write_state(root, {"pid": os.getpid(), "host": "127.0.0.1", "port": 1})
        # a record written within the last second may share its mtime
        # with a rewrite: it is parsed on every call until it settles
        assert dstate.endpoint(root) == ("127.0.0.1", 1)
        assert dstate.endpoint(root) == ("127.0.0.1", 1)
        assert len(parsed) == 2
        settled = time.time_ns() - 10 ** 10
        os.utime(path, ns=(settled, settled))
        assert dstate.endpoint(root) == ("127.0.0.1", 1)
        assert dstate.endpoint(root) == ("127.0.0.1", 1)
        assert len(parsed) == 3
        dstate.write_state(root, {"pid": os.getpid(), "host": "127.0.0.1", "port": 2})
        assert dstate.endpoint(root) == ("127.0.0.1", 2)
        assert len(parsed) == 4
        # a cached record whose pid has since died is stale, and removed
        child = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"])
        try:
            dstate.write_state(root, {"pid": child.pid, "host": "127.0.0.1", "port": 3})
            os.utime(path, ns=(settled + 10 ** 9, settled + 10 ** 9))
            assert dstate.endpoint(root) == ("127.0.0.1", 3)
            assert dstate.endpoint(root) == ("127.0.0.1", 3)
            assert len(parsed) == 5
        finally:
            child.kill()
            child.wait()
        assert dstate.read_state(root) is None
        assert not dstate.state_path(root).exists()
        with pytest.raises(DaemonError, match="no daemon is running"):
            dstate.endpoint(root)

    def test_spawn_then_stop_in_one_process(self, store_dir, monkeypatch):
        """The process that spawned the daemon reaps it: ``stop_daemon``
        returns once the drain is done, instead of taking the exited
        child's zombie for a live daemon until its wait runs out."""
        src = str(Path(repro.__file__).parent.parent)
        monkeypatch.setenv("PYTHONPATH", os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))
        doc = dstate.spawn_background(
            ["--store-dir", store_dir, "--workers", "1"], wait_s=30.0,
            store_root=store_dir)
        t0 = time.perf_counter()
        try:
            out = dstate.stop_daemon(store_dir, wait_s=10.0)
        finally:
            with contextlib.suppress(OSError):
                os.kill(doc["pid"], signal.SIGKILL)
                os.waitpid(doc["pid"], 0)
        assert out == {"stopped": True, "pid": doc["pid"]}
        assert time.perf_counter() - t0 < 5.0


def received(d: Daemon) -> int:
    return d.status_payload()["requests"]["received"]


class TestConnections:
    """Each client thread keeps one connection; the daemon answers on it
    without a delayed-ACK stall, and closes it idle, on a bad body or
    when draining."""

    def test_round_trips_on_a_kept_alive_connection_do_not_stall(self, daemon):
        dstate.request("127.0.0.1", daemon.port, "GET", "/v1/healthz")
        t0 = time.perf_counter()
        for _ in range(50):
            assert dstate.request("127.0.0.1", daemon.port, "GET",
                                  "/v1/healthz").ok
        # one delayed-ACK stall (>= 40 ms) per round trip would take >= 2 s
        assert time.perf_counter() - t0 < 1.0

    def test_a_bad_body_says_it_closes_the_connection(self, daemon):
        import http.client

        conn = http.client.HTTPConnection("127.0.0.1", daemon.port, timeout=10.0)
        try:
            conn.request("POST", "/v1/jobs", body=b"[1]")
            resp = conn.getresponse()
            assert resp.status == 400
            assert resp.getheader("Connection") == "close"
            resp.read()
        finally:
            conn.close()
        before = received(daemon)
        bad = dstate.request("127.0.0.1", daemon.port, "POST", "/v1/jobs", [1])
        assert bad.status == 400 and bad.rule == "daemon/bad-request"
        good = submit(daemon, probe(value="after a bad body"))
        assert good.ok and good.body["status"] == "computed"
        assert received(daemon) == before + 2

    def test_a_connection_the_daemon_closed_idle_is_retried_once(
        self, store_dir, monkeypatch
    ):
        from repro.daemon import server

        monkeypatch.setattr(server, "IDLE_TIMEOUT_S", 0.2)
        d = make_daemon(store_dir)
        try:
            assert submit(d, probe(value="idle")).body["status"] == "computed"
            sock = dstate._local.conn.sock
            time.sleep(0.6)  # the handler times out and closes the socket
            before = received(d)
            reply = submit(d, probe(value="idle"))
            assert reply.ok and reply.body["source"] == "memory"
            assert dstate._local.conn.sock is not sock  # a fresh connection
            assert received(d) == before + 1  # sent once, not twice
        finally:
            d.request_drain()
            assert d.wait_stopped(30.0)

    def test_one_thread_alternates_between_two_daemons(self, tmp_path):
        daemons = [make_daemon(str(tmp_path / name)) for name in ("a", "b")]
        try:
            digests = [submit(d, probe(value=f"daemon-{k}")).body["digest"]
                       for k, d in enumerate(daemons)]
            for i in range(4):
                k = i % 2
                reply = submit(daemons[k], probe(value=f"daemon-{k}"))
                assert reply.ok, reply.body
                assert reply.body["source"] == "memory"
                assert reply.body["digest"] == digests[k]
            assert [received(d) for d in daemons] == [3, 3]
            assert [d.status_payload()["requests"]["memory_hits"]
                    for d in daemons] == [2, 2]
        finally:
            for d in daemons:
                d.request_drain()
                assert d.wait_stopped(30.0)

    def test_each_thread_gets_its_own_replies(self, daemon):
        digests = [submit(daemon, probe(value=f"thread-{i}")).body["digest"]
                   for i in range(8)]
        before = received(daemon)
        wrong = []

        def client(i):
            for _ in range(25):
                body = submit(daemon, probe(value=f"thread-{i}")).body
                if (body.get("digest"), body.get("source")) != (digests[i], "memory"):
                    wrong.append((i, body))

        threads = [threading.Thread(target=client, args=(i,)) for i in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the clients as finely as we can
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []
        assert received(daemon) == before + 200

    def test_drain_leaves_no_handler_thread_behind(self, store_dir, monkeypatch):
        from repro.daemon import server

        monkeypatch.setattr(server, "IDLE_TIMEOUT_S", 0.2)
        before = set(threading.enumerate())
        d = make_daemon(store_dir)
        assert submit(d, probe(value="held")).ok  # this thread keeps it open
        d.request_drain()
        assert d.wait_stopped(30.0)
        deadline = time.monotonic() + 10.0
        while set(threading.enumerate()) - before and time.monotonic() < deadline:
            time.sleep(0.05)
        assert set(threading.enumerate()) - before == set()

    def test_a_draining_daemon_closes_every_connection(self, daemon):
        import http.client

        daemon._draining.set()  # flag only: server still up, scheduler alive
        conn = http.client.HTTPConnection("127.0.0.1", daemon.port, timeout=10.0)
        try:
            for method, path, body in (("GET", "/v1/healthz", None),
                                       ("POST", "/v1/jobs", {"job": probe()})):
                conn.request(method, path, body=body and json.dumps(body))
                resp = conn.getresponse()
                resp.read()
                assert resp.getheader("Connection") == "close", path
        finally:
            conn.close()


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
            box["reply"] = submit(daemon, probe(seconds=0.3, nonce="slow"))

        t = threading.Thread(target=slow)
        t.start()
        time.sleep(0.1)  # the slow probe runs; the scheduler is in its wait
        fast = submit(daemon, probe(nonce="fast")).body
        t.join(30.0)
        assert not t.is_alive()
        assert box["reply"].body["status"] == fast["status"] == "computed"
        # both ends on the scheduler's clock, from its job: events: the slow
        # probe's worker finished after its assignment plus its wall time;
        # the fast one was handed out at its own assignment
        _fork, first, second = [s for s in daemon._obs.spans if s.cat == "serve.job"]
        assert first.dur >= 0.3
        handed, ended = second.ts, first.ts + first.dur
        assert 0 <= handed - ended < 0.010, (first, second)

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
        assert schema_id_of(reply.body) == DAEMON_STATUS
        payload = payload_of(reply.body)
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

    def test_a_running_daemon_serves_live_pool_stats(self, daemon):
        """The pool block is refreshed after every wait, not copied once
        the pool closes: a respawn shows while the daemon still runs."""
        job = {"kind": "probe", "workload": "t", "use_store": False,
               "options": {"action": "kill"}}
        assert submit(daemon, job).body["status"] == "failed"
        payload = daemon.status_payload()
        assert payload["state"] == "running"
        assert payload["pool"]["respawns"] >= 1
        assert flatten_status(payload)["daemon:pool.respawns"] >= 1

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
