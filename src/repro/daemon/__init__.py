"""Persistent compile service: the long-lived form of :mod:`repro.serve`.

``repro.serve`` runs one batch and exits; this package keeps the warm
content-addressed store, the fault-isolating worker pool, and an
in-memory hot cache alive in a single process and answers the same job
kinds (derive/check/execute/table/cell/probe) over a local
HTTP JSON API:

- :mod:`~repro.daemon.server` — the :class:`Daemon`: a threading HTTP
  front end feeding a single scheduler thread that owns the
  :class:`~repro.serve.pool.WorkerPool`, with admission control (a
  bounded outstanding-work window that sheds with HTTP 429 and a
  structured ``daemon/saturated`` diagnostic), per-request deadlines,
  and graceful drain;
- :mod:`~repro.daemon.status` — the ``repro.daemon.status/1`` payload
  (shape / invariants / flatten);
- :mod:`~repro.daemon.state` — the on-disk endpoint record
  (``daemon.json`` under the store root) plus the HTTP client helpers
  every caller (CLI, :mod:`repro.load`, tests) shares;
- :mod:`~repro.daemon.cli` — ``python -m repro daemon
  start|stop|status|ping|submit``.

A drained daemon loses nothing that matters: computed artifacts live in
the store, so a restarted daemon answers the same requests as hits with
``attempts = 0``.
"""

from __future__ import annotations

from repro.daemon.server import Daemon, DaemonConfig

__all__ = ["Daemon", "DaemonConfig"]
