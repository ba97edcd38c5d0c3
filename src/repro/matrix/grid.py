"""Declarative experiment grids: factors × levels → cells.

A grid is a mapping from **factor** names to lists of **levels**:

.. code-block:: json

    {"factors": {"workload": ["lu_nopivot", "conv"],
                 "b": [2, 4, 8],
                 "cache_kb": [1, 2],
                 "n": [16, 24]}}

The factor vocabulary is fixed (:data:`FACTOR_ORDER`): ``workload``,
``recipe`` (``point`` | ``default`` | a comma-separated pass list),
problem size ``n``, blocking factor ``b``, and the cache-geometry knobs
``cache_kb`` / ``line_bytes`` / ``assoc`` / ``tlb_entries`` /
``page_bytes``.  Omitted factors get one default level
(:data:`DEFAULTS`), so a spec only names what it varies.  Expansion is
the full cartesian product in canonical factor order — deterministic, so
a sweep's cell list (and every cell digest) is reproducible from the
spec alone.

Validation is eager: unknown factors, empty or duplicate level lists,
unknown workloads or pass names, and every geometry *combination* are
checked at construction (:class:`~repro.errors.MatrixError`), not after
an hour of sweeping.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.errors import MatrixError, PipelineError, ReproError
from repro.serve.jobs import JobSpec

#: every factor, in canonical (expansion and display) order
FACTOR_ORDER = (
    "workload",
    "recipe",
    "n",
    "b",
    "cache_kb",
    "line_bytes",
    "assoc",
    "tlb_entries",
    "page_bytes",
)

#: the factors that parameterize the machine geometry
GEOMETRY_FACTORS = ("cache_kb", "line_bytes", "assoc", "tlb_entries", "page_bytes")

#: single default level for omitted factors; ``n``/``b`` None means
#: "the workload's verify size" (see Workload.sizes_for)
DEFAULTS = {
    "recipe": "default",
    "n": None,
    "b": None,
    "cache_kb": 4,
    "line_bytes": 32,
    "assoc": 2,
    "tlb_entries": 16,
    "page_bytes": 256,
}

#: hard ceiling on expanded cells: a typo'd grid should fail, not hang
MAX_CELLS = 100_000

_INT_FACTORS = ("n", "b", "line_bytes", "assoc", "tlb_entries", "page_bytes")


@dataclass(frozen=True)
class GridSpec:
    """A validated grid; ``factors`` holds (name, levels) in canonical
    order, including only the factors the spec names."""

    factors: tuple

    # ---- construction -----------------------------------------------------
    @staticmethod
    def from_factors(factors: Mapping[str, Sequence]) -> "GridSpec":
        unknown = set(factors) - set(FACTOR_ORDER)
        if unknown:
            raise MatrixError(
                f"unknown factor(s) {sorted(unknown)} (known: {list(FACTOR_ORDER)})"
            )
        if "workload" not in factors:
            raise MatrixError("a grid must name at least one workload level")
        ordered = []
        for name in FACTOR_ORDER:
            if name not in factors:
                continue
            levels = [_coerce_level(name, v) for v in factors[name]]
            if not levels:
                raise MatrixError(f"factor {name!r} has no levels")
            if len(set(levels)) != len(levels):
                raise MatrixError(f"factor {name!r} has duplicate levels: {levels}")
            ordered.append((name, tuple(levels)))
        spec = GridSpec(factors=tuple(ordered))
        spec._validate()
        return spec

    @staticmethod
    def from_json(doc) -> "GridSpec":
        """From a parsed JSON document: ``{"factors": {...}}`` or a bare
        factor mapping."""
        if isinstance(doc, dict) and isinstance(doc.get("factors"), dict):
            doc = doc["factors"]
        if not isinstance(doc, dict):
            raise MatrixError(
                'grid spec must be a JSON object ({"factors": {...}} or a '
                "bare factor->levels mapping)"
            )
        return GridSpec.from_factors(doc)

    @staticmethod
    def from_cli(args: Sequence[str]) -> "GridSpec":
        """From repeated ``--factor name=v1,v2,...`` values."""
        factors: dict = {}
        for arg in args:
            name, eq, levels = arg.partition("=")
            name = name.strip()
            if not eq or not name:
                raise MatrixError(
                    f"bad --factor {arg!r}: want name=level[,level...]"
                )
            if name in factors:
                raise MatrixError(f"factor {name!r} given twice")
            factors[name] = [s.strip() for s in levels.split(",") if s.strip()]
        return GridSpec.from_factors(factors)

    # ---- validation -------------------------------------------------------
    def _validate(self) -> None:
        from repro.machine.model import machine_from_factors
        from repro.pipeline.passes import get_pass
        from repro.pipeline.workloads import get_workload

        factors = self.factor_map()
        for w in factors.get("workload", ()):
            try:
                get_workload(w)
            except PipelineError as e:
                raise MatrixError(str(e)) from e
        for recipe in factors.get("recipe", ()):
            if recipe in ("point", "default"):
                continue
            names = [s.strip() for s in recipe.split(",") if s.strip()]
            if not names:
                raise MatrixError(f"empty recipe level {recipe!r}")
            for name in names:
                try:
                    get_pass(name)
                except PipelineError as e:
                    raise MatrixError(f"recipe {recipe!r}: {e}") from e
        if self.n_cells() > MAX_CELLS:
            raise MatrixError(
                f"grid expands to {self.n_cells()} cells (max {MAX_CELLS})"
            )
        # fail fast on every *combination* of geometry levels
        geo_levels = [
            factors.get(g, (DEFAULTS[g],)) for g in GEOMETRY_FACTORS
        ]
        for combo in itertools.product(*geo_levels):
            try:
                machine_from_factors(**dict(zip(GEOMETRY_FACTORS, combo)))
            except ReproError as e:
                raise MatrixError(
                    f"bad cache geometry {dict(zip(GEOMETRY_FACTORS, combo))}: {e}"
                ) from e

    # ---- views ------------------------------------------------------------
    def factor_map(self) -> dict:
        return {name: list(levels) for name, levels in self.factors}

    def varied(self) -> dict:
        """Only the factors with more than one level."""
        return {
            name: list(levels) for name, levels in self.factors if len(levels) > 1
        }

    def n_cells(self) -> int:
        out = 1
        for _, levels in self.factors:
            out *= len(levels)
        return out

    def cells(self) -> list[dict]:
        """The full cartesian expansion: one dict per cell with *every*
        factor bound (defaults filled in), in deterministic order."""
        names = [name for name, _ in self.factors]
        level_lists = [levels for _, levels in self.factors]
        out = []
        for combo in itertools.product(*level_lists):
            cell = dict(DEFAULTS)
            cell.update(zip(names, combo))
            out.append(cell)
        return out

    def digest(self) -> str:
        """Content address of the grid itself (names the sweep)."""
        text = json.dumps({"factors": self.factor_map()}, sort_keys=True)
        return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _coerce_level(name: str, value):
    """Levels arrive as JSON values or CLI strings; coerce per factor."""
    if name in ("workload", "recipe"):
        if not isinstance(value, str) or not value.strip():
            raise MatrixError(f"factor {name!r}: level must be a string, got {value!r}")
        return value.strip()
    if name in _INT_FACTORS:
        try:
            out = int(value)
        except (TypeError, ValueError):
            raise MatrixError(
                f"factor {name!r}: level must be an integer, got {value!r}"
            ) from None
        if name not in ("assoc", "tlb_entries") and out < 1:
            raise MatrixError(f"factor {name!r}: level must be >= 1, got {out}")
        if out < 0:
            raise MatrixError(f"factor {name!r}: level must be >= 0, got {out}")
        return out
    if name == "cache_kb":
        try:
            out = float(value)
        except (TypeError, ValueError):
            raise MatrixError(
                f"factor 'cache_kb': level must be a number, got {value!r}"
            ) from None
        if out <= 0:
            raise MatrixError(f"factor 'cache_kb': level must be > 0, got {out}")
        return int(out) if out == int(out) else out
    raise MatrixError(f"unknown factor {name!r}")  # pragma: no cover


def cell_spec(cell: Mapping, timeout_s: float = 600.0) -> JobSpec:
    """The ``repro.serve`` job spec executing one expanded cell."""
    options = {k: cell[k] for k in FACTOR_ORDER if k != "workload"}
    return JobSpec(
        kind="cell",
        workload=cell["workload"],
        options=options,
        timeout_s=timeout_s,
        label=cell_label(cell),
    )


def cell_label(cell: Mapping) -> str:
    n = cell.get("n")
    b = cell.get("b")
    return (
        f"cell:{cell['workload']}:{cell.get('recipe', 'default')}"
        f"@n={'def' if n is None else n},b={'def' if b is None else b},"
        f"{cell.get('cache_kb', DEFAULTS['cache_kb'])}KB"
    )
