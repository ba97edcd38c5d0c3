"""The one command line: ``python -m repro <command> [options]``.

=========  ================================================  =======================
command    what it does                                      artifact
=========  ================================================  =======================
pipeline   run a pass pipeline over one algorithm            ``repro.pipeline/1``
bench      cold vs warm pipeline benchmark                   ``repro.pipeline.bench/1``
report     regenerate the EXPERIMENTS.md tables (T1-T5)      (markdown)
obs        profile a workload: spans, metrics, misses        ``repro.obs/1``
check      verify IR, check legality, lint blockability      ``repro.check/1``
par        loop-parallelism detector and race sanitizer      ``repro.par/1``
serve      batch jobs on a worker pool over the store        ``repro.serve.store/1``
daemon     resident compile service (start/stop/submit)      ``repro.daemon.status/1``
load       open-loop load generator against the daemon       ``repro.serve.load/1``
matrix     experiment grids swept over the store             ``repro.matrix/1``
perf       run history: record, diff, trend, gate            ``repro.perf.gate/1``
artifacts  validate, list and dump enveloped artifacts       (any)
=========  ================================================  =======================

Every command is a ``register(subparsers)`` function in its package
plus handlers that take the parsed ``args`` and return an exit status;
this module owns everything they share:

- **the parser** — the only ``ArgumentParser`` in the tree.  Dispatch is
  lazy: ``argv[0]`` resolves to one package and only that package's
  parser is built, so ``repro daemon start`` imports the daemon and
  nothing else.
- **the shared flag groups** — store (``--store-dir``, ``--store`` /
  ``--no-store``; ``--db`` for the perf history), pool
  (``--workers/-j``, ``--retries``, ``--backoff``), observe (``--obs PATH``,
  ``--chrome-trace PATH``) and output (``--out PATH`` writes the
  enveloped artifact, ``--json`` prints JSON on stdout), plus
  ``--passes`` and ``--sizes``.  Each is spelled, defaulted and
  documented here and nowhere else.
- **the exit-code contract** — 0 ok; 1 a verdict (failed verification,
  check error, sanitizer conflict, failed job, regressed gate, invalid
  document); 2 usage, any :class:`~repro.errors.ReproError`, or an
  artifact that fails validation on its way out (every problem is
  printed, nothing is written); 3 ``perf gate`` without a baseline.
  Handlers return 0/1/3; :func:`main` produces every 2.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from importlib import import_module
from typing import Iterator, Optional

from repro.errors import PipelineError, ReproError

#: command -> (module whose ``register`` builds it, one-line summary)
COMMANDS = {
    "pipeline": ("repro.pipeline.cli",
                 "run a pass pipeline over one of the paper's algorithms"),
    "bench": ("repro.pipeline.bench",
              "cold vs warm pipeline benchmark (BENCH_pipeline.json)"),
    "report": ("repro.bench.report",
               "regenerate the EXPERIMENTS.md tables (T1-T5)"),
    "obs": ("repro.obs.cli",
            "profile a workload: spans, metrics, per-loop misses"),
    "check": ("repro.check.cli",
              "verify IR, check legality, lint blockability"),
    "par": ("repro.par.cli",
            "loop-parallelism detector and race sanitizer"),
    "serve": ("repro.serve.cli",
              "batch jobs on a worker pool over the artifact store"),
    "daemon": ("repro.daemon.cli",
               "resident compile service (start/stop/status/submit)"),
    "load": ("repro.load.cli",
             "open-loop load generator against the daemon"),
    "matrix": ("repro.matrix.cli",
               "experiment grids swept over the artifact store"),
    "perf": ("repro.perf.cli",
             "run history: record, diff, trend, gate"),
    "artifacts": ("repro.artifacts.cli",
                  "validate, list and dump enveloped artifacts"),
}

PROG = "python -m repro"


def _usage() -> str:
    lines = [f"usage: {PROG} <command> [options]", "", "commands:"]
    lines += [f"  {name:<10} {summary}" for name, (_, summary) in COMMANDS.items()]
    lines += ["", f"'{PROG} <command> --help' lists a command's options; exit "
              "status is 0 ok, 1 verdict, 2 usage/error, 3 no baseline."]
    return "\n".join(lines)


def main(argv: Optional[list] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help"):
        print(_usage())
        return 0 if argv else 2
    if argv[0] not in COMMANDS:
        print(f"error: unknown command {argv[0]!r}\n\n{_usage()}",
              file=sys.stderr)
        return 2
    module_name = COMMANDS[argv[0]][0]
    parser = argparse.ArgumentParser(prog=PROG)
    import_module(module_name).register(parser.add_subparsers(dest="tool"))
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:  # argparse: 0 after --help, 2 on a usage error
        return int(e.code or 0)
    args.argv = argv
    # what emit() stamps on envelopes: the package for a */cli.py module,
    # the module itself for bench ("repro.pipeline.bench")
    args.producer = module_name.removesuffix(".cli")
    try:
        return args.fn(args)
    except ReproError as e:
        print(f"error: {e}", file=sys.stderr)
        for problem in getattr(e, "problems", ()):
            print(f"  {problem}", file=sys.stderr)
        return 2


# ---- shared flag groups ----------------------------------------------------


def store_flags(p, *, store: str = "", no_store: bool = False) -> None:
    """``--store-dir``; ``store`` is the help text of the opt-in
    ``--store``."""
    p.add_argument("--store-dir", metavar="DIR",
                   help="artifact store root (default .repro-cache/ or "
                   "$REPRO_CACHE_DIR)")
    if store:
        p.add_argument("--store", action="store_true", help=store)
    if no_store:
        p.add_argument("--no-store", action="store_true",
                       help="compute everything; skip the artifact store")


def db_flag(p) -> None:
    """``--db``: the sqlite run-history database kept next to the store."""
    p.add_argument("--db", metavar="PATH",
                   help="sqlite database (default perf.db under "
                   ".repro-cache/ or $REPRO_CACHE_DIR)")


def open_store(args):
    """The :class:`~repro.serve.store.ArtifactStore` the flags select, or
    None under ``--no-store`` / without an opt-in ``--store``."""
    if getattr(args, "no_store", False) or not getattr(args, "store", True):
        return None
    from repro.serve.store import ArtifactStore

    return ArtifactStore(args.store_dir)


def pool_flags(p, *, workers: int = 2, retries: bool = True,
               backoff: bool = True) -> None:
    p.add_argument("--workers", "-j", type=int, default=workers, metavar="N",
                   help="worker processes (default "
                   f"{workers or '0: run in this process'})")
    if retries:
        p.add_argument("--retries", type=int, default=2, metavar="K",
                       help="retries per crashed/timed-out job (default 2)")
    if backoff:
        p.add_argument("--backoff", type=float, default=0.05, metavar="S",
                       help="base retry backoff seconds, doubled per attempt")


def observe_flags(p, *, obs: bool = True, chrome: bool = True) -> None:
    if obs:
        p.add_argument("--obs", metavar="PATH",
                       help="write a repro.obs/1 metrics profile of the run "
                       "here (worker-side counters and spans are merged in)")
    if chrome:
        p.add_argument("--chrome-trace", metavar="PATH",
                       help="write a Chrome trace of the run here (one pid "
                       "lane per worker; open at https://ui.perfetto.dev)")


def output_flags(p, *, out: str = "", default: Optional[str] = None,
                 json: bool = False) -> None:
    """``out`` names what ``--out PATH`` writes (omitted when empty)."""
    if out:
        p.add_argument("--out", metavar="PATH", default=default,
                       help=f"write the enveloped {out} here"
                       + (f" (default {default})" if default else ""))
    if json:
        p.add_argument("--json", action="store_true",
                       help="print JSON on stdout instead of the text summary")


def passes_flag(p) -> None:
    p.add_argument("--passes", "-p",
                   help="comma-separated pass names (default: the "
                   "workload's pipeline)")


def split_passes(text: Optional[str]) -> Optional[list]:
    """``--passes`` value -> pass names (None when the flag was not given)."""
    if not text:
        return None
    return [s.strip() for s in text.split(",") if s.strip()]


def sizes_flag(p) -> None:
    p.add_argument("--sizes", help="override problem sizes, e.g. N=16,KS=4")


def parse_sizes(text: Optional[str]) -> dict:
    sizes: dict = {}
    for part in (text or "").split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise PipelineError(f"bad --sizes entry {part!r} (want NAME=VALUE)")
        name, value = part.split("=", 1)
        try:
            sizes[name.strip()] = float(value) if "." in value else int(value)
        except ValueError:
            raise PipelineError(f"bad --sizes value {value!r}") from None
    return sizes


# ---- shared behaviour ------------------------------------------------------


@contextlib.contextmanager
def observed(args, meta: dict) -> Iterator[dict]:
    """Run the body under :mod:`repro.obs` when ``--obs`` or
    ``--chrome-trace`` ask for it, then write what they name.  The body
    may add :func:`repro.obs.export.metrics` blocks (``analysis_cache=``
    ...) to the yielded dict."""
    blocks: dict = {}
    if not (args.obs or args.chrome_trace):
        yield blocks
        return
    from repro.artifacts import publish
    from repro.obs import core, export

    with core.enabled() as o:
        yield blocks
    if args.obs:
        publish(args.obs, export.metrics(o, meta=meta, **blocks),
                producer="repro.obs")
        print(f"obs metrics written to {args.obs}")
    if args.chrome_trace:
        export.write_json(args.chrome_trace, export.chrome_trace(o))
        print(f"chrome trace written to {args.chrome_trace} "
              "(open at https://ui.perfetto.dev)")


def emit(args, doc: dict, store=None, what: str = "report") -> dict:
    """Envelope ``doc`` and validate it — the one validation, before any
    byte is written; an invalid document raises
    :class:`~repro.errors.ArtifactError`, which :func:`main` turns into
    exit 2 — then write it to ``--out``, land it in ``store`` and print
    it under ``--json``.  Returns the envelope."""
    from repro.artifacts import publish

    out = getattr(args, "out", None)
    env = publish(out, doc, producer=args.producer, store=store)
    if getattr(args, "json", False):
        print(json.dumps(env, indent=2))
    elif out:
        print(f"{what} written to {out}")
    return env

