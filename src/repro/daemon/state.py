"""The daemon endpoint record and the HTTP client every caller shares.

A running daemon advertises itself in one place: ``daemon.json`` under
the artifact-store root (so daemon and clients rendezvous through the
same ``--store-dir`` / ``$REPRO_CACHE_DIR`` they already share for
artifacts).  The record is tiny — pid, host, port, started_s — and is
removed on graceful drain; a record whose pid is dead is *stale* and
treated as absent.

The client half is deliberately stdlib-only (:mod:`http.client`): the
daemon's wire format is plain JSON over localhost HTTP, and everything
that talks to it — the CLI, :mod:`repro.load`, the tests, CI — goes
through :func:`request` so status-code handling lives in one place.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional, Union

from repro.errors import DaemonError

STATE_FILE = "daemon.json"


def state_path(store_root: Union[str, Path]) -> Path:
    return Path(store_root) / STATE_FILE


def write_state(store_root: Union[str, Path], doc: dict) -> Path:
    path = state_path(store_root)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    os.replace(tmp, path)
    return path


def remove_state(store_root: Union[str, Path]) -> None:
    try:
        state_path(store_root).unlink()
    except FileNotFoundError:
        pass


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover — exists, not ours
        return True
    return True


def read_state(store_root: Union[str, Path]) -> Optional[dict]:
    """The endpoint record, or None when absent/unreadable/stale.  A
    stale record (dead pid — daemon killed without draining) is removed
    on the way out so the next ``start`` is clean."""
    path = state_path(store_root)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return None
    if not isinstance(doc, dict) or not isinstance(doc.get("pid"), int):
        return None
    if not _pid_alive(doc["pid"]):
        remove_state(store_root)
        return None
    return doc


# ---------------------------------------------------------------------------
# the HTTP client
# ---------------------------------------------------------------------------

class DaemonReply:
    """One HTTP exchange with the daemon: status code + parsed body."""

    __slots__ = ("status", "body")

    def __init__(self, status: int, body: dict) -> None:
        self.status = status
        self.body = body

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300

    @property
    def rule(self) -> Optional[str]:
        """The structured diagnostic rule id (``daemon/*``), if any."""
        err = self.body.get("error")
        return err.get("rule") if isinstance(err, dict) else None


def request(
    host: str,
    port: int,
    method: str,
    path: str,
    body: Optional[dict] = None,
    timeout_s: float = 30.0,
) -> DaemonReply:
    """One JSON round trip; :class:`DaemonError` only on transport
    failure — HTTP-level errors (429/503/504...) come back as a
    :class:`DaemonReply` for the caller to interpret."""
    conn = http.client.HTTPConnection(host, port, timeout=timeout_s)
    try:
        payload = None if body is None else json.dumps(body).encode("utf-8")
        headers = {"Content-Type": "application/json"} if payload else {}
        conn.request(method, path, body=payload, headers=headers)
        resp = conn.getresponse()
        raw = resp.read()
        try:
            doc = json.loads(raw) if raw else {}
        except json.JSONDecodeError:
            doc = {"raw": raw.decode("utf-8", "replace")}
        return DaemonReply(resp.status, doc if isinstance(doc, dict) else
                           {"value": doc})
    except (OSError, http.client.HTTPException) as e:
        raise DaemonError(
            f"daemon at {host}:{port} unreachable ({e}); "
            "is it running? try 'python -m repro daemon status'"
        ) from e
    finally:
        conn.close()


def store_root_of(store_dir: Optional[str]) -> Path:
    """Resolve a ``--store-dir`` argument (possibly None) to the same
    root :class:`~repro.serve.store.ArtifactStore` would use."""
    from repro.serve.store import ArtifactStore

    return ArtifactStore(store_dir).root


def endpoint_for(store_dir: Optional[str]) -> tuple[str, int]:
    """(host, port) of the daemon for a ``--store-dir`` argument."""
    return endpoint(store_root_of(store_dir))


def endpoint(store_root: Union[str, Path]) -> tuple[str, int]:
    """(host, port) of the running daemon; :class:`DaemonError` when
    there is none."""
    doc = read_state(store_root)
    if doc is None:
        raise DaemonError(
            f"no daemon is running for store {store_root!s} "
            "(start one with 'python -m repro daemon start')"
        )
    return doc.get("host", "127.0.0.1"), int(doc["port"])


def submit_job(
    store_root: Union[str, Path],
    job: dict,
    deadline_s: Optional[float] = None,
    timeout_s: float = 60.0,
) -> DaemonReply:
    """Submit one job spec dict to the resident daemon."""
    host, port = endpoint(store_root)
    body: dict = {"job": job}
    if deadline_s is not None:
        body["deadline_s"] = deadline_s
    return request(host, port, "POST", "/v1/jobs", body, timeout_s=timeout_s)


# ---------------------------------------------------------------------------
# process management (background start / stop)
# ---------------------------------------------------------------------------

def spawn_background(argv_tail: list[str], wait_s: float = 10.0,
                     store_root: Optional[str] = None) -> dict:
    """Start ``python -m repro daemon start --foreground <argv_tail>`` as
    a detached process and wait for its endpoint record + healthz.
    Returns the state doc; :class:`DaemonError` on timeout."""
    from repro.serve.store import ArtifactStore

    root = ArtifactStore(store_root).root
    if read_state(root) is not None:
        raise DaemonError(
            f"a daemon is already running for store {root} "
            "(stop it first, or talk to it)"
        )
    cmd = [sys.executable, "-m", "repro", "daemon", "start", "--foreground"]
    cmd += argv_tail
    proc = subprocess.Popen(
        cmd,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        start_new_session=True,
    )
    deadline = time.monotonic() + wait_s
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise DaemonError(
                f"daemon process exited during startup (rc={proc.returncode})"
            )
        doc = read_state(root)
        if doc is not None:
            try:
                reply = request(doc.get("host", "127.0.0.1"),
                                int(doc["port"]), "GET", "/v1/healthz",
                                timeout_s=2.0)
                if reply.ok:
                    return doc
            except DaemonError:
                pass  # socket not accepting yet
        time.sleep(0.05)
    raise DaemonError(f"daemon did not come up within {wait_s:g}s")


def stop_daemon(store_root: Optional[str] = None,
                wait_s: float = 30.0) -> dict:
    """Gracefully drain the resident daemon: POST /v1/shutdown, then wait
    for the state file to disappear and the pid to exit.  Returns
    ``{"stopped": True, "pid": ...}``; :class:`DaemonError` when no
    daemon is running or the drain times out."""
    from repro.serve.store import ArtifactStore

    root = ArtifactStore(store_root).root
    doc = read_state(root)
    if doc is None:
        raise DaemonError(f"no daemon is running for store {root}")
    pid = doc["pid"]
    try:
        request(doc.get("host", "127.0.0.1"), int(doc["port"]),
                "POST", "/v1/shutdown", timeout_s=5.0)
    except DaemonError:
        # socket already gone; fall back to a signal if the pid lives
        if _pid_alive(pid):
            try:
                os.kill(pid, signal.SIGTERM)
            except OSError:
                pass
    deadline = time.monotonic() + wait_s
    while time.monotonic() < deadline:
        if read_state(root) is None and not _pid_alive(pid):
            return {"stopped": True, "pid": pid}
        time.sleep(0.05)
    raise DaemonError(
        f"daemon pid {pid} did not drain within {wait_s:g}s"
    )
