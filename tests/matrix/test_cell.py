"""Cell execution and content-addressing.

The digest tests pin the store key: the cache geometry is part of it, so
two cells differing only in geometry can never collide onto one cached
artifact, and the sizes are part of it as the bindings they make, so
two cells that bind the same sizes are one artifact.
"""

from __future__ import annotations

import pytest

from repro.errors import MatrixError, PipelineError
from repro.matrix.cell import RESULT_FIELDS, normalize_options, resolve_recipe
from repro.matrix.grid import GridSpec, cell_spec
from repro.serve.jobs import execute_job, job_key
from repro.serve.store import ArtifactStore


def digest_of(**cell) -> str:
    cell.setdefault("workload", "matmul")
    full = dict(GridSpec.from_factors({k: [v] for k, v in cell.items()}).cells()[0])
    return ArtifactStore(root="").digest(job_key(cell_spec(full)))


class TestDigest:
    def test_geometry_changes_the_digest(self):
        base = digest_of()
        assert digest_of(cache_kb=8) != base
        assert digest_of(line_bytes=64) != base
        assert digest_of(assoc=4) != base
        assert digest_of(tlb_entries=8) != base
        assert digest_of(page_bytes=512) != base

    def test_sizes_change_the_digest(self):
        assert digest_of(n=8) != digest_of()
        # lu_nopivot binds b as KS
        assert digest_of(workload="lu_nopivot", b=2) != digest_of(
            workload="lu_nopivot")

    def test_a_b_the_sizes_do_not_read_is_one_digest(self):
        """A cell is keyed by the sizes it binds: matmul and conv read no
        ``b``, so cells differing only in ``b`` are one computation."""
        for workload in ("matmul", "conv"):
            assert digest_of(workload=workload, n=8, b=2) == digest_of(
                workload=workload, n=8, b=4)
        # and n=None is the verify size, spelled out or not
        assert digest_of() == digest_of(n=12)

    def test_recipe_changes_the_digest(self):
        assert digest_of(recipe="point") != digest_of()

    def test_identical_cells_share_a_digest(self):
        assert digest_of(cache_kb=2, b=4) == digest_of(cache_kb=2, b=4)


class TestOptions:
    def test_unknown_option_rejected(self):
        with pytest.raises(MatrixError, match="unknown cell option"):
            normalize_options({"block": 4})

    def test_workload_is_not_an_option(self):
        with pytest.raises(MatrixError, match="unknown cell option"):
            normalize_options({"workload": "matmul"})

    def test_recipe_resolution(self):
        assert resolve_recipe("default") is None
        assert resolve_recipe("point") == []
        assert resolve_recipe("a, b") == ["a", "b"]
        with pytest.raises(MatrixError, match="empty recipe"):
            resolve_recipe(" , ")


class TestRunCell:
    def test_cell_row_is_complete_and_consistent(self):
        spec = cell_spec(
            GridSpec.from_factors(
                {"workload": ["matmul"], "n": [8], "b": [2], "cache_kb": [1]}
            ).cells()[0]
        )
        row = execute_job(spec)
        for field in RESULT_FIELDS:
            assert row[field] is not None, field
        assert row["workload"] == "matmul"
        assert row["sizes"]["N"] == 8
        assert row["refs"] > 0 and row["base_refs"] > 0
        assert 0.0 <= row["miss_ratio"] <= 1.0
        assert row["speedup"] == pytest.approx(
            row["base_modeled_s"] / row["modeled_s"]
        )
        assert row["passes"]  # the default recipe ran real passes

    def test_point_recipe_is_the_baseline(self):
        spec = cell_spec(
            GridSpec.from_factors(
                {"workload": ["matmul"], "recipe": ["point"], "n": [8]}
            ).cells()[0]
        )
        row = execute_job(spec)
        assert row["passes"] == []
        assert row["speedup"] == 1.0
        assert row["refs"] == row["base_refs"]

    def test_a_size_that_breaks_a_stored_fact_fails_before_deriving(self, monkeypatch):
        """``conv n=4`` binds N2=3 against the registered N2 >= 4: the cell
        fails on its sizes, not in a derivation run outside its facts."""
        import repro.pipeline

        def derive(*args, **kwargs):
            raise AssertionError("derived with sizes that break the facts")

        monkeypatch.setattr(repro.pipeline, "derive", derive)
        spec = cell_spec(
            GridSpec.from_factors({"workload": ["conv"], "n": [4]}).cells()[0]
        )
        with pytest.raises(PipelineError, match="N2=3 breaks"):
            execute_job(spec)
