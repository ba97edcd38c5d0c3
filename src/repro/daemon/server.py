"""The persistent compile daemon: HTTP front end, one scheduler, one pool.

Threading model — the part that keeps this deadlock-free:

- **Handler threads** (one per HTTP request, ``ThreadingHTTPServer``)
  do admission only: parse the job spec and build its store key
  (anything malformed or unkeyable is a ``daemon/bad-request`` here, so
  the scheduler only ever sees specs it can submit), answer memory-cache
  hits immediately, shed when the outstanding-work window is full, otherwise
  enqueue a :class:`_Request` and block on its event until the deadline.
  They never touch the worker pool.
- **The scheduler thread** is the *only* owner of the
  :class:`~repro.serve.pool.WorkerPool` (which is not thread-safe): it
  drains the incoming queue, submits specs (store hits resolve right at
  submit), and resolves requests by setting their events.  Between
  those it sleeps in the pool's one wait, which ends on a worker's
  result or death, the nearest job deadline or backoff gate, or a byte
  on the daemon's wake pipe — written by admission after it enqueues a
  request, by a handler abandoning one, and by a drain.  Nothing polls
  on a clock.  Each worker's observer merges here, onto the
  scheduler's clock, exactly as in batch mode.

One set of books: what ``/v1/status`` counts is recorded once, under the
daemon lock, in the daemon-lifetime observer (``daemon.requests.*``,
``daemon.completed.*``, ``daemon.latency.*``), which the status reads.

Admission control: ``queue_limit`` bounds *outstanding* work — requests
accepted but not yet resolved, queued or running.  A request arriving
at a full window is shed with HTTP 429 and a structured
``daemon/saturated`` diagnostic; it costs the daemon one counter
increment and the client one round trip, never a queue slot.  That is
what keeps accepted-request latency bounded past the saturation knee.

Deadlines: every request carries ``deadline_s`` (defaulted from the
daemon config).  A handler that waits past it abandons the request
(HTTP 504, ``daemon/deadline``) and the scheduler cancels it if still
queued; if it already reached a worker the result still lands in the
store, so the *retry* will be a hit.

Graceful drain: ``request_drain()`` (SIGTERM, ``stop``, or ``POST
/v1/shutdown``) stops admission (503 ``daemon/draining``), lets
in-flight jobs finish, flushes the daemon-lifetime observer, writes
the final status next to the state file, closes the pool, and removes
the endpoint record.  Nothing warm is lost: the store is on disk, so a
restarted daemon replays the same requests with ``attempts = 0``.

The rule catalogue (stable ids, mirrored by clients):

==========================  ==============================================
rule id                     fires when
==========================  ==============================================
``daemon/bad-request``      the body is not a valid job spec (or is larger
                            than the request-size bound)
``daemon/saturated``        the outstanding-work window is full (HTTP 429)
``daemon/deadline``         the request outlived its deadline (HTTP 504)
``daemon/draining``         the daemon is shutting down (HTTP 503)
``daemon/not-found``        unknown endpoint (HTTP 404)
==========================  ==============================================
"""

from __future__ import annotations

import collections
import contextlib
import json
import os
import queue as queue_mod
import threading
import time
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional

from repro.artifacts.shape import check, nullable
from repro.daemon.status import LATENCY_KEYS, REQUEST_FIELDS
from repro.errors import DaemonError, ReproError
from repro.obs import core as _obs
from repro.obs import export as _obs_export
from repro.serve.jobs import JobSpec, job_key
from repro.serve.pool import STATUSES, WorkerPool
from repro.serve.store import ArtifactStore

RULE_BAD_REQUEST = "daemon/bad-request"
RULE_SATURATED = "daemon/saturated"
RULE_DEADLINE = "daemon/deadline"
RULE_DRAINING = "daemon/draining"
RULE_NOT_FOUND = "daemon/not-found"

#: largest request body read, in bytes (a job spec is a few hundred)
_MAX_BODY = 1 << 20

#: the request envelope around the job spec; ``null`` means the default
_REQUEST_SHAPE = {"deadline_s": nullable(float)}

#: spans kept in the daemon-lifetime observer before the oldest half is
#: dropped — a long-lived process must not grow without bound
_SPAN_CAP = 50_000


@dataclass
class DaemonConfig:
    """Everything a daemon needs to come up; all fields have defaults."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = let the OS pick; the state file records the choice
    workers: int = 2
    queue_limit: int = 16  # max outstanding (queued + running) jobs
    max_retries: int = 2
    backoff_s: float = 0.05
    deadline_s: float = 60.0  # default per-request deadline
    store_dir: Optional[str] = None  # None = .repro-cache / $REPRO_CACHE_DIR
    mem_cache: int = 1024  # hot in-memory entries (0 disables)
    obs_out: Optional[str] = None  # flush obs metrics here on drain


class _Request:
    """One admitted request: the spec, its waiter, and its fate."""

    __slots__ = ("spec", "deadline_s", "event", "body", "http_status",
                 "arrived", "abandoned")

    def __init__(self, spec: JobSpec, deadline_s: float) -> None:
        self.spec = spec
        self.deadline_s = deadline_s
        self.event = threading.Event()
        self.body: Optional[dict] = None
        self.http_status = 500
        self.arrived = time.perf_counter()
        self.abandoned = False


def _error_body(rule: str, message: str, **extra) -> dict:
    return {"error": {"rule": rule, "message": message, **extra}}


class Daemon:
    """A running (or startable) compile daemon; see the module docstring.

    Usable in-process (tests call :meth:`start` / :meth:`request_drain`
    directly) or as the body of ``python -m repro daemon start
    --foreground``.
    """

    def __init__(self, config: Optional[DaemonConfig] = None) -> None:
        self.config = config or DaemonConfig()
        self.store = ArtifactStore(self.config.store_dir)
        self.started_s = 0.0  # epoch; set by start()
        self._epoch = 0.0  # perf_counter at start
        self._lock = threading.RLock()  # counters, mem cache, obs, wake pipe
        self._incoming: "queue_mod.Queue[_Request]" = queue_mod.Queue()
        self._wake_r, self._wake_w = os.pipe()  # see _wake; closed by _finalize
        os.set_blocking(self._wake_r, False)
        os.set_blocking(self._wake_w, False)
        self._outstanding = 0
        self._draining = threading.Event()
        self._stopped = threading.Event()
        self._server: Optional[ThreadingHTTPServer] = None
        self._scheduler_thread: Optional[threading.Thread] = None
        self._server_thread: Optional[threading.Thread] = None
        self._obs = _obs.Obs()  # daemon-lifetime observer: the only books
        self._mem: "collections.OrderedDict[str, dict]" = collections.OrderedDict()
        self._digests: dict[str, str] = {}  # canonical spec json -> digest
        self._pool_stats: dict = {"workers": self.config.workers,
                                  "per_worker": []}

    # ---- lifecycle ---------------------------------------------------------
    @property
    def port(self) -> int:
        return self._server.server_address[1] if self._server else 0

    @property
    def state(self) -> str:
        return "draining" if self._draining.is_set() else "running"

    def start(self) -> "Daemon":
        """Bind the socket, start the scheduler and server threads, and
        publish the endpoint record.  Returns self."""
        from repro.daemon import state as _state

        self.started_s = time.time()
        self._epoch = time.perf_counter()
        handler = _make_handler(self)
        self._server = ThreadingHTTPServer(
            (self.config.host, self.config.port), handler
        )
        self._scheduler_thread = threading.Thread(
            target=self._scheduler, name="repro-daemon-scheduler", daemon=True
        )
        self._scheduler_thread.start()
        self._server_thread = threading.Thread(
            target=self._server.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="repro-daemon-http",
            daemon=True,
        )
        self._server_thread.start()
        _state.write_state(self.store.root, {
            "pid": os.getpid(),
            "host": self.config.host,
            "port": self.port,
            "started_s": self.started_s,
        })
        return self

    def request_drain(self) -> None:
        """Begin a graceful shutdown; returns immediately.  The scheduler
        finishes in-flight jobs, flushes obs, and unwinds the rest."""
        self._draining.set()
        self._wake()

    def _wake(self) -> None:
        """End the scheduler's wait: one byte down the wake pipe.  The
        write never blocks, and a full pipe is already a wake-up.  The lock
        is reentrant because a signal handler may run this mid-section."""
        with self._lock, contextlib.suppress(BlockingIOError):
            if self._wake_w is not None:  # None once _finalize closed it
                os.write(self._wake_w, b"!")

    def wait_stopped(self, timeout: Optional[float] = None) -> bool:
        return self._stopped.wait(timeout)

    def serve_until_stopped(self) -> None:
        """Foreground mode: block until a drain completes (SIGTERM and
        SIGINT are wired to :meth:`request_drain` by the CLI)."""
        self._stopped.wait()

    # ---- admission (handler threads) ---------------------------------------
    def handle_submit(self, doc: dict) -> tuple[int, dict]:
        """Admission control + request wait; returns (http status, body).
        Runs on an HTTP handler thread — must never touch the pool."""
        with self._lock:
            self._obs.count("daemon.requests.received")
        try:
            # everything that can be wrong with a request is wrong here, on
            # the handler thread: the key is built now (and remembered on
            # the spec), so the scheduler never meets a spec it cannot key
            spec = JobSpec.from_dict(doc.get("job", doc))
            deadline_s = doc.get("deadline_s")
            if deadline_s is None:
                deadline_s = self.config.deadline_s
            if check(doc, _REQUEST_SHAPE) or not (
                0 <= deadline_s <= threading.TIMEOUT_MAX
            ):
                raise DaemonError(
                    "deadline_s must be a number of seconds in "
                    f"[0, {threading.TIMEOUT_MAX:g}]"
                )
            digest = self._digest_of(spec)
        except ReproError as e:
            with self._lock:
                self._obs.count("daemon.requests.rejected")
            return 400, _error_body(RULE_BAD_REQUEST, str(e))

        if self._draining.is_set():
            with self._lock:
                self._obs.count("daemon.requests.rejected")
            return 503, _error_body(
                RULE_DRAINING, "daemon is draining; not accepting jobs"
            )

        if self.config.mem_cache and spec.use_store:
            hit = self._memory_lookup(digest)
            if hit is not None:
                return 200, hit

        with self._lock:
            if self._outstanding >= self.config.queue_limit:
                self._obs.count("daemon.requests.shed")
                return 429, _error_body(
                    RULE_SATURATED,
                    f"outstanding-work window is full "
                    f"({self._outstanding}/{self.config.queue_limit}); "
                    "retry with backoff",
                    outstanding=self._outstanding,
                    limit=self.config.queue_limit,
                )
            self._outstanding += 1
            self._obs.count("daemon.requests.accepted")

        req = _Request(spec, deadline_s)
        self._incoming.put(req)
        self._wake()  # after the put: see _scheduler_loop
        if not req.event.wait(deadline_s):
            req.abandoned = True  # scheduler still resolves + decrements
            self._wake()  # so it cancels the job if it is still queued
            with self._lock:
                self._obs.count("daemon.requests.deadline")
            return 504, _error_body(
                RULE_DEADLINE,
                f"request outlived its {deadline_s:g}s deadline "
                "(the job may still complete and warm the store)",
            )
        return req.http_status, req.body or {}

    def _memory_lookup(self, digest: str) -> Optional[dict]:
        with self._lock:
            body = self._mem.get(digest)
            if body is None:
                return None
            self._mem.move_to_end(digest)
            self._obs.count("daemon.requests.accepted")
            self._obs.count("daemon.requests.memory_hits")
            self._obs.observe("daemon.latency.request_s", 0.0)
            self._obs.observe("daemon.latency.hit_s", 0.0)
        out = dict(body)
        out.update(status="hit", source="memory", attempts=0, service_s=0.0)
        return out

    def _digest_of(self, spec: JobSpec) -> str:
        """The store digest of a spec, memoized so repeat traffic skips
        rebuilding the workload IR — the memory-speed path."""
        memo_key = json.dumps(spec.to_dict(), sort_keys=True)
        digest = self._digests.get(memo_key)
        if digest is None:
            digest = self.store.digest(job_key(spec))
            with self._lock:
                if len(self._digests) > 4096:
                    self._digests.clear()
                self._digests[memo_key] = digest
        return digest

    # ---- the scheduler thread ---------------------------------------------
    def _scheduler(self) -> None:
        with _obs.enabled(self._obs):
            with self._obs.span("daemon:lifetime", cat="daemon"):
                self._scheduler_loop()
        self._finalize()

    def _scheduler_loop(self) -> None:
        active: list[tuple[_Request, object]] = []
        with WorkerPool(
            workers=self.config.workers,
            store=self.store,
            max_retries=self.config.max_retries,
            backoff_s=self.config.backoff_s,
        ) as pool:
            while True:
                # 1. empty the wake pipe, *then* admit everything queued.
                # Admission puts before it writes, so a byte landing after
                # this read belongs to a request the reads below may miss,
                # and it leaves the pipe readable: the wait in 2 returns at
                # once.  No wake-up is lost.
                with contextlib.suppress(BlockingIOError):
                    while os.read(self._wake_r, 4096):
                        pass
                while True:
                    try:
                        req = self._incoming.get_nowait()
                    except queue_mod.Empty:
                        break
                    handle = pool.submit(req.spec)
                    if handle.done:  # disk-store hit resolved at submit
                        self._finish(req, handle.outcome)
                    else:
                        active.append((req, handle))
                if not active and self._draining.is_set():
                    break
                # 2. wait for an event and harvest resolutions
                pool.poll(wake=self._wake_r)
                still = []
                for req, handle in active:
                    if handle.done or (req.abandoned and handle.cancel()):
                        self._finish(req, handle.outcome)
                    else:
                        still.append((req, handle))
                active = still
                self._trim_spans()
            self._pool_stats = pool.stats()

    def _finish(self, req: _Request, outcome) -> None:
        service_s = time.perf_counter() - req.arrived
        body = {
            **outcome.to_dict(),  # the same row ``serve submit --json`` prints
            "source": "store" if outcome.status == "hit" else "pool",
            "service_s": round(service_s, 4),
        }
        with self._lock:
            self._outstanding -= 1
            self._obs.count(f"daemon.completed.{outcome.status}")
            self._obs.observe("daemon.latency.request_s", service_s)
            if outcome.status == "hit":
                self._obs.observe("daemon.latency.hit_s", service_s)
            elif outcome.ok:
                self._obs.observe("daemon.latency.computed_s", service_s)
            if (
                outcome.ok
                and self.config.mem_cache
                and req.spec.use_store
                and isinstance(outcome.value, dict)
            ):
                self._mem[outcome.digest] = {
                    k: body[k] for k in
                    ("kind", "label", "digest", "wall_s", "result")
                }
                self._mem.move_to_end(outcome.digest)
                while len(self._mem) > self.config.mem_cache:
                    self._mem.popitem(last=False)
        req.http_status = 200
        req.body = body
        req.event.set()

    def _trim_spans(self) -> None:
        if len(self._obs.spans) > _SPAN_CAP:
            dropped = len(self._obs.spans) - _SPAN_CAP // 2
            del self._obs.spans[:dropped]
            self._obs.count("daemon.obs.spans_dropped", dropped)

    def _finalize(self) -> None:
        from repro.artifacts import publish
        from repro.daemon import state as _state

        # a request admitted in the instant the drain flag went up may
        # still be sitting in the queue; bounce it rather than strand its
        # handler until the deadline
        while True:
            try:
                req = self._incoming.get_nowait()
            except queue_mod.Empty:
                break
            with self._lock:
                self._outstanding -= 1
                self._obs.count("daemon.requests.rejected")
            req.http_status = 503
            req.body = _error_body(
                RULE_DRAINING, "daemon drained before the job was scheduled"
            )
            req.event.set()

        out = self.config.obs_out or str(self.store.root / "daemon_obs.json")
        try:
            with self._lock:  # handler threads may still be counting
                doc = _obs_export.metrics(self._obs, meta={"tool": __package__})
            publish(out, doc, producer="repro.obs")
        except Exception:
            pass  # a failed flush must not block the drain
        try:
            publish(
                str(self.store.root / "daemon_final_status.json"),
                self.status_payload(),
                producer=__package__,
            )
        except Exception:
            pass
        _state.remove_state(self.store.root)
        if self._server is not None:
            threading.Thread(target=self._server.shutdown, daemon=True).start()
            if self._server_thread is not None:
                self._server_thread.join(5.0)
            self._server.server_close()
        with self._lock:  # no late _wake writes into a reused descriptor
            os.close(self._wake_r)
            os.close(self._wake_w)
            self._wake_w = None
        self._stopped.set()

    # ---- status ------------------------------------------------------------
    def status_payload(self) -> dict:
        from repro.artifacts.registry import DAEMON_STATUS

        # fixed names only: the scheduler thread grows these dicts unlocked
        counters, histograms = self._obs.counters, self._obs.histograms
        with self._lock:
            requests = {field: counters.get(f"daemon.requests.{field}", 0)
                        for field in REQUEST_FIELDS}
            requests["completed"] = {
                status: n for status in STATUSES
                if (n := counters.get(f"daemon.completed.{status}"))
            }
            latency = {
                key: histograms.get(f"daemon.latency.{key}", _obs.Histogram()).summary()
                for key in LATENCY_KEYS
            }
            entries, outstanding = len(self._mem), self._outstanding
        return {
            "schema": DAEMON_STATUS,
            "state": self.state,
            "pid": os.getpid(),
            "endpoint": {"host": self.config.host, "port": self.port},
            "started_s": self.started_s,
            "uptime_s": round(time.perf_counter() - self._epoch, 4),
            "config": {
                "workers": self.config.workers,
                "queue_limit": self.config.queue_limit,
                "deadline_s": self.config.deadline_s,
                "max_retries": self.config.max_retries,
            },
            "requests": requests,
            "queue": {"outstanding": outstanding,
                      "limit": self.config.queue_limit},
            "mem_cache": {"entries": entries, "capacity": self.config.mem_cache,
                          "hits": requests["memory_hits"]},
            "pool": dict(self._pool_stats),
            "store": self.store.stats(),
            "latency": latency,
        }

    def status_envelope(self) -> dict:
        from repro.artifacts import publish

        return publish(None, self.status_payload(), producer=__package__)


# ---------------------------------------------------------------------------
# the HTTP surface
# ---------------------------------------------------------------------------

def _make_handler(daemon: Daemon):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        hub = daemon

        def log_message(self, fmt, *args):  # quiet by default
            pass

        def _respond(self, status: int, body: dict) -> None:
            blob = json.dumps(body).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(blob)))
            self.end_headers()
            self.wfile.write(blob)

        def do_GET(self):
            if self.path == "/v1/healthz":
                self._respond(200, {"ok": True, "state": self.hub.state,
                                    "pid": os.getpid()})
            elif self.path == "/v1/status":
                self._respond(200, self.hub.status_envelope())
            else:
                self._respond(404, _error_body(
                    RULE_NOT_FOUND, f"no such endpoint {self.path!r}"))

        def do_POST(self):
            if self.path == "/v1/jobs":
                try:
                    length = int(self.headers.get("Content-Length", 0))
                    if not 0 <= length <= _MAX_BODY:
                        raise ValueError(
                            f"Content-Length must be in [0, {_MAX_BODY}], "
                            f"got {length}"
                        )
                    doc = json.loads(self.rfile.read(length) or b"{}")
                    if not isinstance(doc, dict):
                        raise ValueError("body must be a JSON object")
                except (ValueError, RecursionError) as e:
                    # the body may sit unread on the socket: this
                    # connection cannot carry another request
                    self.close_connection = True
                    self._respond(400, _error_body(RULE_BAD_REQUEST, str(e)))
                    return
                status, body = self.hub.handle_submit(doc)
                self._respond(status, body)
            elif self.path == "/v1/shutdown":
                self._respond(200, {"draining": True, "state": "draining"})
                self.hub.request_drain()
            else:
                self._respond(404, _error_body(
                    RULE_NOT_FOUND, f"no such endpoint {self.path!r}"))

    return Handler
