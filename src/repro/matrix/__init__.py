"""Declarative experiment matrices: factors × levels → cells, executed
as store-backed jobs through the :mod:`repro.serve` worker pool and
analyzed for per-factor sensitivity.

The paper's blockability story is quantitative — speedup and miss-ratio
as functions of blocking factor, problem size, and cache geometry — and
answering "where does blocking pay?" takes a *sweep*, not a run.  This
package makes the sweep declarative (a JSON grid spec), restartable
(every finished cell is an artifact in the store, so a rerun —
interrupted or not — recomputes only what is missing), and analyzable
(one-factor-at-a-time sensitivity and best-blocking-factor tables over
the rows of the ``repro.matrix/1`` artifact).

Layers:

- :mod:`repro.matrix.grid` — grid spec, validation, cartesian expansion
- :mod:`repro.matrix.cell` — one cell's execution and its store key
- :mod:`repro.matrix.runner` — sweep driver over the worker pool
- :mod:`repro.matrix.analysis` — summaries, sensitivity, best blocking
- :mod:`repro.matrix.report` — the ``repro.matrix/1`` artifact
- :mod:`repro.matrix.cli` — ``python -m repro matrix``
"""

from repro.matrix.analysis import best_blocking, sensitivity, summarize
from repro.matrix.grid import GridSpec, cell_spec
from repro.matrix.report import SCHEMA, build_report
from repro.matrix.runner import run_grid

__all__ = [
    "GridSpec",
    "SCHEMA",
    "best_blocking",
    "build_report",
    "cell_spec",
    "run_grid",
    "sensitivity",
    "summarize",
]
