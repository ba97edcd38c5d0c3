"""Open-loop load generation against the :mod:`repro.daemon` service.

- :mod:`~repro.load.gen` — the generator: ramped fixed-rate arrival
  schedules (open loop: arrivals never wait for completions), a
  deterministic weighted job mix with ``unique`` entries forcing cold
  computes, per-step P² latency streams, and named builtin grids;
- :mod:`~repro.load.report` — the ``repro.serve.load/1`` payload
  (build / shape / flatten) plus the knee/warm-speedup analysis;
- :mod:`~repro.load.cli` — ``python -m repro load run GRID``.

The committed ``BENCH_serve.json`` at the repo root is this package's
output: a ramp showing warm-store hits answered orders of magnitude
below cold-compute latency, and the admission-control knee where the
daemon starts shedding instead of queueing without bound.
"""

from __future__ import annotations

from repro.load.gen import BUILTIN_GRIDS, check_grid, run_grid
from repro.load.report import analyze, build_report

__all__ = [
    "BUILTIN_GRIDS",
    "analyze",
    "build_report",
    "check_grid",
    "run_grid",
]
