"""Benchmark-suite configuration.

Every benchmark prints its reproduction table/figure to stdout (run with
``-s`` to see them live); the same tables are collected into EXPERIMENTS.md
by ``python -m repro report``.
"""

import pytest


@pytest.fixture(scope="session")
def show():
    """Print helper that survives capture (section banner + payload)."""

    def _show(title: str, payload: str) -> None:
        print(f"\n{'=' * 72}\n{title}\n{'=' * 72}\n{payload}\n")

    return _show
