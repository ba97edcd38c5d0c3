"""The ``daemon`` command: ``python -m repro daemon``.

Subcommands::

    start     launch the compile daemon (background by default)
    stop      gracefully drain and stop the resident daemon
    status    print (or fetch as an envelope) the daemon status
    ping      one /v1/healthz round trip
    submit    send job specs to the resident daemon

Examples::

    python -m repro daemon start --workers 4 --queue-limit 32
    python -m repro daemon status --json
    python -m repro daemon submit lu_nopivot conv --kind derive
    python -m repro daemon submit --spec '{"kind":"probe","workload":"x"}'
    python -m repro daemon stop

(``python -m repro.daemon ...`` is the same command: that module forwards
here; ``benchmarks/blockbench`` launches the daemon that way.)

Exit status: 0 on success; 1 when a submitted job resolves but fails
(``timeout``/``failed``) or the daemon sheds it; 2 for usage and
transport errors.  ``status --json`` prints a full enveloped
``repro.daemon.status/1`` document that ``python -m repro artifacts
validate -`` accepts.
"""

from __future__ import annotations

import json
import signal

from repro import cli
from repro.artifacts.registry import DAEMON_STATUS
from repro.errors import DaemonError
from repro.serve.jobs import SUBMIT_KINDS
from repro.serve.pool import OK_STATUSES


def register(sub) -> None:
    p = sub.add_parser(
        "daemon",
        description="persistent compile service over the shared "
        "content-addressed artifact store",
    )
    cmds = p.add_subparsers(dest="command", required=True)

    start = cmds.add_parser("start", help="launch the compile daemon")
    start.add_argument("--host", default="127.0.0.1")
    start.add_argument("--port", type=int, default=0, metavar="N",
                       help="listen port (default: OS-assigned)")
    cli.pool_flags(start)
    start.add_argument("--queue-limit", type=int, default=16, metavar="N",
                       help="max outstanding jobs before shedding "
                       "(default 16)")
    start.add_argument("--deadline", type=float, default=60.0, metavar="S",
                       help="default per-request deadline (default 60)")
    start.add_argument("--mem-cache", type=int, default=1024, metavar="N",
                       help="hot in-memory cache entries (0 disables)")
    cli.observe_flags(start, chrome=False)
    start.add_argument("--foreground", action="store_true",
                       help="run in this process until drained "
                       "(background daemonization uses this internally)")
    start.add_argument("--wait", type=float, default=10.0, metavar="S",
                       help="background start: seconds to wait for healthz")
    start.set_defaults(fn=_cmd_start)

    stop = cmds.add_parser("stop", help="drain and stop the resident daemon")
    stop.add_argument("--wait", type=float, default=30.0, metavar="S",
                      help="seconds to wait for the drain (default 30)")
    stop.set_defaults(fn=_cmd_stop)

    status = cmds.add_parser("status", help="print daemon status")
    cli.output_flags(status, out="repro.daemon.status/1 document", json=True)
    status.set_defaults(fn=_cmd_status)

    ping = cmds.add_parser("ping", help="one healthz round trip")
    ping.set_defaults(fn=_cmd_ping)

    submit = cmds.add_parser("submit",
                             help="send jobs to the resident daemon")
    submit.add_argument("workloads", nargs="*", metavar="WORKLOAD")
    submit.add_argument("--kind", choices=SUBMIT_KINDS, default="derive")
    cli.passes_flag(submit)
    submit.add_argument("--spec", action="append", metavar="JSON",
                        help="raw job-spec JSON object (repeatable)")
    submit.add_argument("--deadline", type=float, metavar="S",
                        help="per-request deadline override")
    cli.output_flags(submit, json=True)
    submit.set_defaults(fn=_cmd_submit)

    for q in (start, stop, status, ping, submit):
        cli.store_flags(q)  # daemon and clients rendezvous at the store root


def _cmd_start(args) -> int:
    from repro.daemon import state as _state

    if not args.foreground:
        # the child is this same command line, run in the foreground
        doc = _state.spawn_background(args.argv[2:], wait_s=args.wait,
                                      store_root=args.store_dir)
        print(f"daemon running: pid {doc['pid']} at "
              f"{doc['host']}:{doc['port']}")
        return 0

    from repro.daemon.server import Daemon, DaemonConfig

    daemon = Daemon(DaemonConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_limit=args.queue_limit,
        deadline_s=args.deadline,
        store_dir=args.store_dir,
        mem_cache=args.mem_cache,
        obs_out=args.obs,
    ))
    for sig in (signal.SIGTERM, signal.SIGINT):
        signal.signal(sig, lambda *_: daemon.request_drain())
    daemon.start()
    print(f"daemon listening at {daemon.config.host}:{daemon.port} "
          f"(pid {daemon.status_payload()['pid']})", flush=True)
    daemon.serve_until_stopped()
    return 0


def _cmd_stop(args) -> int:
    from repro.daemon import state as _state

    out = _state.stop_daemon(args.store_dir, wait_s=args.wait)
    print(f"daemon pid {out['pid']} drained and stopped")
    return 0


def _cmd_ping(args) -> int:
    from repro.daemon import state as _state

    host, port = _state.endpoint_for(args.store_dir)
    reply = _state.request(host, port, "GET", "/v1/healthz", timeout_s=5.0)
    print(json.dumps(reply.body))
    return 0 if reply.ok else 1


def _cmd_status(args) -> int:
    from repro.daemon import state as _state

    host, port = _state.endpoint_for(args.store_dir)
    reply = _state.request(host, port, "GET", "/v1/status", timeout_s=10.0)
    if not reply.ok:
        raise DaemonError(f"status fetch failed (HTTP {reply.status})")
    doc = cli.emit(args, reply.body, DAEMON_STATUS,
                   what="status envelope")["payload"]
    if args.json:
        return 0
    requests = doc["requests"]
    queue = doc["queue"]
    lat = doc["latency"]["request_s"]
    print(f"daemon {doc['state']}: pid {doc['pid']} at "
          f"{doc['endpoint']['host']}:{doc['endpoint']['port']}, "
          f"up {doc['uptime_s']:.1f}s")
    print(f"  requests: {requests['received']} received, "
          f"{requests['accepted']} accepted, {requests['shed']} shed, "
          f"{requests['memory_hits']} memory hits, "
          f"{requests['deadline']} deadline")
    completed = ", ".join(f"{v} {k}" for k, v in
                          sorted(requests["completed"].items())) or "none"
    print(f"  completed: {completed}")
    print(f"  queue: {queue['outstanding']}/{queue['limit']} outstanding")
    if lat.get("count"):
        print(f"  latency: p50 {lat['p50'] * 1000:.1f} ms / "
              f"p95 {lat['p95'] * 1000:.1f} ms over {lat['count']} request(s)")
    store = doc["store"]
    print(f"  store: {store['hits']} hits / {store['misses']} misses, "
          f"{store['entries']} entries at {store['root']}")
    return 0


def _submit_specs(args) -> list[dict]:
    specs: list[dict] = []
    passes = cli.split_passes(args.passes)
    for name in args.workloads:
        spec: dict = {"kind": args.kind, "workload": name}
        if passes:
            spec["passes"] = passes
        specs.append(spec)
    for raw in args.spec or []:
        try:
            doc = json.loads(raw)
        except json.JSONDecodeError as e:
            raise DaemonError(f"--spec is not valid JSON: {e}") from e
        if not isinstance(doc, dict):
            raise DaemonError("--spec must be a JSON object")
        specs.append(doc)
    if not specs:
        raise DaemonError("nothing to submit (give WORKLOADs or --spec)")
    return specs


def _cmd_submit(args) -> int:
    from repro.daemon import state as _state

    rc = 0
    for spec in _submit_specs(args):
        reply = _state.submit_job(
            _state.store_root_of(args.store_dir), spec,
            deadline_s=args.deadline,
        )
        body = reply.body
        if args.json:
            print(json.dumps({"http": reply.status, **body}))
        elif reply.ok:
            print(f"  {body['status']:<9} {body.get('label', '?'):<32} "
                  f"{(body.get('service_s') or 0) * 1000:9.1f} ms  "
                  f"attempts {body.get('attempts')}"
                  + (f"  [{body['error']}]" if body.get("error") else ""))
        else:
            err = body.get("error", {})
            print(f"  rejected  {spec.get('workload', '?'):<32} "
                  f"HTTP {reply.status}  [{err.get('rule')}] "
                  f"{err.get('message', '')}")
        ok = reply.ok and body.get("status") in OK_STATUSES
        rc = rc if ok else 1
    return rc
