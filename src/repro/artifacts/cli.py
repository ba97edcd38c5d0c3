"""The ``artifacts`` command: ``python -m repro artifacts``.

One tool for every artifact the stack emits, loose files and store
entries alike::

    python -m repro artifacts validate BENCH_matrix.json trace.json
    python -m repro artifacts validate --store          # every store artifact
    python -m repro artifacts ls                        # store inventory
    python -m repro artifacts ls report.json trace.json
    python -m repro artifacts cat report.json --payload
    python -m repro artifacts cat ba77c0d2 --payload    # by digest prefix

``validate`` prints one line per document plus each ``artifact/*``
problem (``--json`` for machine-readable rows) and exits 0 when every
document is valid, 1 when any is not, 2 for usage errors.  ``cat``
accepts a file path or a store digest prefix; ``--payload`` unwraps
the envelope.
"""

from __future__ import annotations

import json
import sys

from repro import cli
from repro.artifacts import sink
from repro.artifacts.envelope import load_file, payload_of
from repro.artifacts.validate import describe, validate_document
from repro.errors import ArtifactError


def _store_documents(store) -> list[tuple[str, dict]]:
    """``(label, envelope)`` for every content entry in the store."""
    docs = []
    for row in sink.list_artifacts(store):
        env = sink.get_artifact(store, row["schema"], row["digest"])
        if env is not None:
            docs.append((f"store:{row['digest'][:12]}", env))
    return docs


def _cmd_validate(args) -> int:
    docs: list[tuple[str, dict]] = []
    store = cli.open_store(args)  # None without --store
    if store is not None:
        docs.extend(_store_documents(store))
    for path in args.paths:
        docs.append((path, load_file(path)))
    if not docs:
        raise ArtifactError("name at least one PATH (or use --store)")

    status = 0
    rows = []
    for label, doc in docs:
        problems = validate_document(doc)
        rows.append({
            "path": label,
            "valid": not problems,
            "problems": [p.to_dict() for p in problems],
        })
        if problems:
            status = 1
            if not args.json:
                print(f"INVALID  {label}")
                for p in problems:
                    print(f"  {p}")
        elif not args.json:
            print(f"ok       {label}  [{describe(doc)}]")
    if args.json:
        json.dump({"valid": status == 0, "documents": rows},
                  sys.stdout, indent=2)
        print()
    return status


def _cmd_ls(args) -> int:
    if args.paths:
        for path in args.paths:
            print(f"{describe(load_file(path))}  {path}")
        return 0
    rows = sink.list_artifacts(cli.open_store(args))
    if not rows:
        print("(no artifacts in the store)")
        return 0
    for r in rows:
        elapsed = (f"{r['elapsed_s']:.3f}s"
                   if isinstance(r["elapsed_s"], (int, float)) else "-")
        print(f"{r['schema']:<26} {r['digest'][:12]}  "
              f"{r['producer'] or '-':<22} {elapsed}")
    return 0


def _cmd_cat(args) -> int:
    doc = sink.resolve_artifact(cli.open_store(args), args.target)
    if args.payload:
        doc = payload_of(doc)
    json.dump(doc, sys.stdout, indent=2)
    print()
    return 0


def register(sub) -> None:
    p = sub.add_parser(
        "artifacts",
        description="validate, list, and dump enveloped artifacts "
        "(loose JSON files or content-addressed store entries)",
    )
    cmds = p.add_subparsers(dest="command", required=True)

    v = cmds.add_parser("validate", help="validate artifact documents")
    v.add_argument("paths", nargs="*", metavar="PATH",
                   help="loose artifact JSON files")
    cli.store_flags(
        v, store="also validate every artifact in the store")
    cli.output_flags(v, json=True)
    v.set_defaults(fn=_cmd_validate)

    ls = cmds.add_parser("ls", help="list artifacts (store, or named files)")
    ls.add_argument("paths", nargs="*", metavar="PATH",
                    help="describe these files instead of the store")
    cli.store_flags(ls)
    ls.set_defaults(fn=_cmd_ls)

    cat = cmds.add_parser("cat", help="print one artifact as JSON")
    cat.add_argument("target", metavar="PATH|DIGEST",
                     help="a file path, or a store digest prefix")
    cat.add_argument("--payload", action="store_true",
                     help="print the payload only (unwrap the envelope)")
    cli.store_flags(cat)
    cat.set_defaults(fn=_cmd_cat)
