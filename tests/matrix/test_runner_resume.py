"""Sweep resume through the artifact store: an interrupted sweep keeps
its finished cells; the rerun recomputes nothing it has, and the final
table is identical to an uninterrupted run.

The interrupt is deterministic: ``run_grid``'s ``on_row`` hook raises
after K rows.  A cell's worker publishes its value to the store *before*
the parent sees the outcome (and so before the hook fires), which is
exactly the durability a SIGKILL would exercise.
"""

from __future__ import annotations

import pytest

from repro.matrix.cell import RESULT_FIELDS
from repro.matrix.grid import FACTOR_ORDER, GridSpec, cell_spec
from repro.matrix.runner import run_grid
from repro.serve.jobs import job_key
from repro.serve.store import ArtifactStore

#: deterministic columns a resumed table must reproduce exactly
STABLE = ("digest",) + FACTOR_ORDER + RESULT_FIELDS


def grid() -> GridSpec:
    return GridSpec.from_factors(
        {"workload": ["matmul"], "b": [2, 4], "cache_kb": [1, 2], "n": [8]}
    )


def stable(rows) -> list:
    return [{k: r[k] for k in STABLE} for r in rows]


class Interrupt(Exception):
    pass


def interrupt_after(k: int):
    seen = []

    def on_row(row: dict) -> None:
        seen.append(row)
        if len(seen) >= k:
            raise Interrupt(f"killed after {k} rows")

    return on_row, seen


class TestResume:
    def test_interrupted_sweep_resumes_without_recompute(self, tmp_path):
        spec = grid()
        root = str(tmp_path / "store")

        # control: the same grid, uninterrupted, against its own store
        control = run_grid(
            spec, workers=1, store=ArtifactStore(str(tmp_path / "store2"))
        )
        assert control["run"]["computed"] == 4

        # interrupted sweep: dies after 2 resolved cells
        on_row, seen = interrupt_after(2)
        with pytest.raises(Interrupt):
            run_grid(spec, workers=1, store=ArtifactStore(root), on_row=on_row)
        assert [r["status"] for r in seen] == ["computed", "computed"]

        # resume in a fresh ArtifactStore on the same root ("fresh
        # process"): the finished cells are hits, only the rest run
        doc = run_grid(spec, workers=1, store=ArtifactStore(root))
        assert doc["run"]["hit"] == 2
        assert doc["run"]["computed"] == 2
        hits = {r["digest"] for r in doc["rows"] if r["status"] == "hit"}
        assert hits == {r["digest"] for r in seen}

        # and the final table matches the uninterrupted control run
        assert stable(doc["rows"]) == stable(control["rows"])

    def test_rerun_recomputes_zero_cells(self, tmp_path):
        spec = grid()
        root = str(tmp_path / "store")
        first = run_grid(spec, workers=1, store=ArtifactStore(root))
        assert first["run"]["computed"] == 4
        second = run_grid(spec, workers=1, store=ArtifactStore(root))
        assert second["run"]["computed"] == 0
        assert stable(first["rows"]) == stable(second["rows"])

    def test_fresh_resolve_lands_as_store_hits(self, tmp_path):
        spec = grid()
        root = str(tmp_path / "store")
        run_grid(spec, workers=1, store=ArtifactStore(root))
        # warm store: every cell is a hit resolved at submit, nothing executes
        doc = run_grid(spec, workers=1, store=ArtifactStore(root))
        assert doc["run"]["hit"] == doc["run"]["total"] == 4
        assert all(r["status"] == "hit" for r in doc["rows"])
        assert all(r["attempts"] == 0 for r in doc["rows"])

    def test_no_store_recomputes(self):
        spec = grid()
        first = run_grid(spec, workers=1, store=None)
        second = run_grid(spec, workers=1, store=None)
        assert first["run"]["computed"] == second["run"]["computed"] == 4
        assert second["run"]["hit"] == 0
        assert stable(first["rows"]) == stable(second["rows"])

    def test_digests_match_store_addresses(self, tmp_path):
        spec = grid()
        store = ArtifactStore(str(tmp_path / "store"))
        doc = run_grid(spec, workers=1, store=store)
        keys = [job_key(cell_spec(cell)) for cell in spec.cells()]
        assert {r["digest"] for r in doc["rows"]} == {store.digest(k) for k in keys}
        assert all(store.get(k)[0] for k in keys)  # each names its artifact

    def test_cells_on_one_digest_are_one_row(self, tmp_path):
        # matmul's default pipeline, once by name and once spelled out
        from repro.pipeline.workloads import get_workload

        explicit = ",".join(get_workload("matmul").default_passes)
        spec = GridSpec.from_factors(
            {"workload": ["matmul"], "recipe": ["default", explicit], "n": [8]}
        )
        rows = []
        doc = run_grid(
            spec, workers=1, store=ArtifactStore(str(tmp_path / "store")),
            on_row=rows.append,
        )
        assert spec.n_cells() == 2
        assert doc["run"]["total"] == doc["run"]["computed"] == 1
        assert [r["recipe"] for r in doc["rows"]] == ["default"]
        assert rows == doc["rows"]
