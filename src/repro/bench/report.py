"""The ``report`` command: regenerate EXPERIMENTS.md — every table,
paper numbers vs measured.

Run:  python -m repro report [--progress] [--only TABLE]
      [--workers N] [--obs OUT.json] [output-path]

Every variant of every table is traced through the cache simulator; the
footer of EXPERIMENTS.md records how long that took (about 5 s on two
workers), and the cold Fig. 8 derivation adds under half a second of
Fourier–Motzkin-checked restructuring.  ``--progress`` prints one line per table as it lands, so
a long run is distinguishable from a hang.  A table builder that raises is
reported and the run exits nonzero; surviving tables are still written.

``--only TABLE`` builds just the tables whose name contains TABLE (case-
insensitive, e.g. ``--only T1``) — the fast path CI smoke jobs use.  A
filtered run refuses to overwrite the default EXPERIMENTS.md, since that
file documents the *full* table set; give an explicit output path.

Every table is built as a ``table`` job on a :mod:`repro.serve` worker
pool, one job per table, exactly as ``serve`` and ``matrix`` run theirs;
``--workers N`` sizes the pool (the shared default, 2; at least 1).  A
table builder that raises (or hangs past its timeout) is reported as a
failure naming its table, and the run exits 1.

``--obs OUT.json`` runs the whole regeneration under :mod:`repro.obs`
observation and writes a ``repro.obs/1`` metrics profile (derivation pass
spans, dependence/Fourier–Motzkin query counts and latencies, analysis-
cache counters) alongside the tables.
"""

from __future__ import annotations

import sys
import time

from repro import cli
from repro.bench import experiments as E
from repro.errors import PipelineError


HEADER = """\
# EXPERIMENTS — paper vs. reproduction

Regenerated by ``python -m repro report`` (this file is its output;
the same tables are asserted in ``benchmarks/``).

**How to read the numbers.**  The paper reports wall-clock seconds on an
IBM RS/6000 model 540.  This reproduction runs the same algorithms through
a trace-driven cache+TLB simulator with a cycle cost model (see
``repro.machine``), at geometry-preserving scale 1/{scale} (problem
dimensions /{scale}, cache capacity /{scale}^2, line and page /{scale}) —
every footprint:capacity ratio matches the paper's testbed.  Absolute
modeled seconds are therefore NOT comparable to the paper's; the claims
under reproduction are the *shapes*: which variant wins, by roughly what
factor, and where the crossovers fall.  Speedup ratios are the comparable
quantity.

**Variant provenance.**  Wherever the paper claims compiler derivability,
the measured variant is the output of this repository's compiler (Fig. 6
from point LU, Fig. 8 with the commutativity oracle, Fig. 10 from Fig. 9,
IF-inspection + unroll-and-jam for T2, trapezoid splitting + triangular
unroll-and-jam + scalar replacement for T1).  Hand transcriptions of the
paper's listings exist separately and the derived code is checked against
them structurally and numerically in ``benchmarks/`` and ``tests/``.

"""

NOTES = """\

## Deviations and their reasons

- **T1** modeled speedups run above the paper (≈3.0 vs 1.8–1.9): the
  cost model charges one cycle per *reference*, so removing loads via
  unroll-and-jam + scalar replacement removes nearly all modeled cost,
  while the real kernel kept paying for its multiply-adds and loop
  overhead.  Reference counts (also tabulated) are the honest signal: the
  transformation removes ~65% of memory traffic.
- **T2** reproduces the ordering exactly (UJ slower than original, UJ+IF
  fastest at both densities) at ≈1.3–1.4 vs the paper's 1.45–1.48.  The
  naive-UJ penalty is exaggerated (ours ~2.5–5x vs the paper's ~1.15x):
  each replicated innermost guard costs us a full modeled B load, where
  the RS/6000 mostly hit registers/cache for it.
- **T3/T4** land in band (≈1.8–2.9 vs 2.3–3.2) with the paper's crossover
  (block 64 marginally behind block 32) reproduced.  The residual gap is
  line-size granularity: at scale 1/4 a cache line holds 4 doubles instead
  of 16, so streaming misses are relatively more expensive.
- **T5** reproduces the paper's signature superlinearity: the point
  algorithm's long-stride row sweeps thrash the (scaled) TLB, so its cost
  grows much faster than the O(N^3) work between the two sizes, and the
  optimized version's win grows with size, as in the paper (2.04 -> 5.49).
- **Figure 6/8 clamps**: the paper's listings elide MIN/MAX clamps (they
  assume the block size divides the problem); the derived code keeps them
  and is exact for every size.  With dividing sizes the iteration sets are
  identical.
"""


def _builders():
    """(builder name, zero-argument table builder), in table order."""
    return [
        ("T1 convolution", E.table_t1_convolution),
        ("T2 IF-inspection", E.table_t2_if_inspection),
        ("T3 LU", E.table_t3_lu),
        ("T4 LU pivot", E.table_t4_lu_pivot),
        ("T5 Givens", E.table_t5_givens),
    ]


def select_builders(only: str | None = None) -> list[tuple]:
    """The table builders, optionally filtered by a case-insensitive
    substring of the table name (``"T1"``, ``"lu"``, ...)."""
    builders = _builders()
    if only is None:
        return builders
    needle = only.lower()
    return [(name, build) for name, build in builders if needle in name.lower()]


def build_all_pool(workers: int, progress: bool = False, only: str | None = None):
    """Build every table (or the ``only`` subset), one ``repro.serve``
    ``table`` job per table on a ``workers``-process pool; returns
    (tables, elapsed_seconds, failures).

    Tables are rebuilt from the jobs' JSON payloads.  ``failures`` is a
    list of (table_name, error) — a failing builder does not kill the
    whole regeneration mid-file.
    """
    from repro.bench.harness import Table
    from repro.serve.jobs import JobSpec
    from repro.serve.pool import WorkerPool

    builders = select_builders(only)
    specs = [
        JobSpec(
            kind="table",
            workload=name,
            timeout_s=1800.0,
            use_store=False,  # simulation output; keyed on nothing stable
            label=f"table:{name}",
        )
        for name, _ in builders
    ]
    t0 = time.time()
    if progress:
        print(f"regenerating {len(specs)} table(s) on {workers} worker(s)...",
              flush=True)
    with WorkerPool(workers=workers) as pool:
        outcomes = pool.run(specs)
    tables = []
    failures: list[tuple[str, str]] = []
    for (name, _), out in zip(builders, outcomes):
        if out.ok and out.value is not None:
            v = out.value
            tables.append(
                Table(
                    title=v["title"],
                    paper_ref=v["paper_ref"],
                    machine=v["machine"],
                    columns=v["columns"],
                    rows=v["rows"],
                    notes=v["notes"],
                )
            )
            if progress:
                print(f"  {name}: done in {out.wall_s:.0f}s (worker "
                      f"{out.worker})", flush=True)
        else:
            failures.append((name, out.error or f"job {out.status}"))
            if progress:
                print(f"  {name}: FAILED ({out.error})", flush=True)
    return tables, time.time() - t0, failures


def render_markdown(tables, elapsed: float) -> str:
    out = [HEADER.format(scale=E.SCALE)]
    for t in tables:
        out.append(f"## {t.title}\n")
        out.append(f"*{t.paper_ref}*  \nmachine: `{t.machine}`\n")
        cols = list(t.columns)
        out.append("| " + " | ".join(cols) + " |")
        out.append("|" + "|".join("---" for _ in cols) + "|")
        for row in t.rows:
            cells = []
            for c in cols:
                v = row.get(c, "")
                cells.append(f"{v:.3g}" if isinstance(v, float) else str(v))
            out.append("| " + " | ".join(cells) + " |")
        for n in t.notes:
            out.append(f"\n> {n}")
        out.append("")
    out.append(
        f"\n*(tables regenerated in {elapsed:.0f}s of simulation; "
        "figure reproductions — code listings and section diagrams — are "
        "asserted by the `bench_fig*` benchmarks)*\n"
    )
    out.append(NOTES)
    return "\n".join(out)


def register(sub) -> None:
    p = sub.add_parser(
        "report", description="regenerate the EXPERIMENTS.md tables"
    )
    p.add_argument("path", nargs="?", default="EXPERIMENTS.md")
    p.add_argument(
        "--progress",
        action="store_true",
        help="print one line per table as it is generated",
    )
    p.add_argument(
        "--only",
        metavar="TABLE",
        help="build only tables whose name contains TABLE (case-insensitive)",
    )
    cli.pool_flags(p)
    cli.observe_flags(p)
    p.set_defaults(fn=run)


def run(args) -> int:
    if args.only is not None:
        if args.path == "EXPERIMENTS.md":
            raise PipelineError(
                "--only writes a partial table set; refusing to "
                "overwrite EXPERIMENTS.md (give an explicit output path)"
            )
        if not select_builders(args.only):
            known = ", ".join(name for name, _ in _builders())
            raise PipelineError(
                f"--only {args.only!r} matches no table (known: {known})"
            )

    meta = {"tool": __name__, "only": args.only or ""}
    with cli.observed(args, meta):
        tables, elapsed, failures = build_all_pool(
            args.workers, progress=args.progress, only=args.only
        )
    text = render_markdown(tables, elapsed)
    with open(args.path, "w") as f:
        f.write(text)
    for t in tables:
        print(t.render())
        print()
    print(f"wrote {args.path} ({elapsed:.0f}s of simulation)")
    if failures:
        for name, tb in failures:
            print(f"\nTABLE FAILED: {name}\n{tb}", file=sys.stderr)
        print(f"{len(failures)} table(s) failed", file=sys.stderr)
        return 1
    return 0
