"""The ``load`` command: ``python -m repro load``.

Subcommands::

    run GRID      ramp a grid against the resident daemon
    grids         list the builtin grids

``GRID`` is a JSON file path or a builtin name (``quick``, ``bench``).
Examples::

    python -m repro daemon start --workers 2 --queue-limit 8
    python -m repro load run quick --out BENCH_serve.json
    python -m repro load run grid.json --deadline 10 --store-dir /tmp/cache
    python -m repro daemon stop

The report is a validated ``repro.serve.load/1`` envelope; with
``--out`` it is also landed in the artifact store sink so ``repro perf
record`` can ingest its ``load:*`` metrics from the same file.

Exit status: 0 when the ramp ran and the report validates, 1 when any
step saw transport errors, 2 for usage errors or no reachable daemon.
"""

from __future__ import annotations

import json

from repro import cli
from repro.errors import LoadError


def register(sub) -> None:
    p = sub.add_parser(
        "load",
        description="open-loop load generator for the repro daemon "
        "compile service",
    )
    cmds = p.add_subparsers(dest="command", required=True)

    run = cmds.add_parser("run", help="ramp a grid against the daemon")
    run.add_argument("grid", metavar="GRID",
                     help="grid JSON file, or a builtin name "
                     "(see 'grids')")
    cli.store_flags(run)  # the root the daemon advertises its endpoint in
    run.add_argument("--host", help="daemon host (default: from the "
                     "endpoint record)")
    run.add_argument("--port", type=int, help="daemon port (default: from "
                     "the endpoint record)")
    run.add_argument("--deadline", type=float, metavar="S",
                     help="per-request deadline override")
    cli.output_flags(run, out="repro.serve.load/1 report", json=True)
    run.set_defaults(fn=_cmd_run)

    grids = cmds.add_parser("grids", help="list the builtin grids")
    grids.set_defaults(fn=_cmd_grids)


def _load_grid(name: str) -> dict:
    from repro.load.gen import BUILTIN_GRIDS

    if name in BUILTIN_GRIDS:
        return json.loads(json.dumps(BUILTIN_GRIDS[name]))  # deep copy
    try:
        with open(name, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as e:
        raise LoadError(
            f"no builtin grid or readable file {name!r} ({e})"
        ) from e
    except json.JSONDecodeError as e:
        raise LoadError(f"grid file {name!r} is not valid JSON: {e}") from e


def _print_summary(payload: dict) -> None:
    for step in payload["steps"]:
        outcomes = ", ".join(
            f"{v} {k}" for k, v in step["outcomes"].items()
        ) or "none"
        p50 = step["latency"]["request_s"]["p50"]
        print(f"  rate {step['rate']:g}/s: {step['offered']} offered "
              f"-> {outcomes}; p50 {p50 * 1000:.1f} ms, "
              f"throughput {step['throughput']:g}/s")
    a = payload["analysis"]
    if a["warm_count"] and a["cold_count"]:
        print(f"warm p50 {a['warm_p50_s'] * 1000:.2f} ms over "
              f"{a['warm_count']} hit(s) vs cold p50 "
              f"{a['cold_p50_s'] * 1000:.1f} ms over {a['cold_count']} "
              f"compute(s): {a['warm_speedup']:g}x")
    knee = a["knee"]
    if knee:
        print(f"saturation knee at {knee['rate']:g}/s "
              f"({knee['shed']} shed; accepted p95 "
              f"{knee['accepted_p95_s'] * 1000:.1f} ms); "
              f"max clean rate {a['max_clean_rate']:g}/s")
    else:
        print(f"no saturation knee reached "
              f"(max clean rate {a['max_clean_rate']:g}/s)")


def _cmd_run(args) -> int:
    from repro.daemon import state as _state
    from repro.load.gen import run_grid

    grid = _load_grid(args.grid)
    if args.host and args.port:
        host, port = args.host, args.port
    else:
        host, port = _state.endpoint_for(args.store_dir)
    payload = run_grid(
        grid, host, port,
        deadline_s=args.deadline,
        progress=None if args.json else print,
    )
    if not args.json:
        _print_summary(payload)
    cli.emit(args, payload, store=cli.open_store(args) if args.out else None,
             what="load report")
    errored = sum(
        (step["outcomes"].get("error", 0)) for step in payload["steps"]
    )
    return 1 if errored else 0


def _cmd_grids(args) -> int:
    from repro.load.gen import BUILTIN_GRIDS

    for name, grid in sorted(BUILTIN_GRIDS.items()):
        rates = ", ".join(f"{s['rate']:g}" for s in grid["steps"])
        print(f"  {name:<8} rates {rates} /s, {len(grid['mix'])} mix entries")
    return 0
