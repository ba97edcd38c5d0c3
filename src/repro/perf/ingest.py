"""Artifact ingestion for the run-history database — registry-backed.

The run-history database stores **flat numeric metrics**, because a
timeline only needs numbers with stable names.  The per-schema
flatteners live with their subsystems and are registered next to each
shape in :mod:`repro.artifacts.kinds` (``flatten`` hooks); this
module is the perf-side adapter over that registry:

- :func:`load_artifact` reads a JSON artifact file and validates it
  (the file is outside input; an in-memory document handed to
  :func:`flatten` is the caller's own);
- :func:`detect_schema` resolves the envelope's full schema id and
  requires a registered kind *with* a flatten hook (a bare payload is an
  ``artifact/malformed-envelope`` :class:`~repro.errors.PerfError`);
- :func:`flatten` unwraps the envelope and runs the registered hook;
- :func:`artifact_digest` is the run's content address — the envelope
  digest.

Naming convention (stable across runs; the gate patterns match these):

======================  =================================================
prefix                  meaning
======================  =================================================
``pass:<name>.*``       per-pass pipeline spans (``wall_s``,
                        ``ir_size_after``, ``ir_growth``)
``counter:<name>``      an observability counter
``hist:<name>.*``       histogram summary fields (mean/p50/p95/p99/...)
``span:<name>.*``       span aggregates (``total_s``, ``count``,
                        ``max_s``); a served job is ``span:job:<label>``
``bench:<label>.*``     pipeline-bench entries (``cold_s``, ``warm_s``)
``cell:<...>.*``        matrix cells, keyed by workload/recipe/geometry
======================  =================================================

Duplicate names within one artifact get ``#2``, ``#3``, ... suffixes in
encounter order (see :class:`repro.artifacts.flatten.Sink`), so reruns
of the same artifact flatten to the same names.  Non-numeric and
non-finite values are skipped — a metric that is sometimes ``null``
simply has gaps in its timeline.
"""

from __future__ import annotations

from repro.artifacts import registry
from repro.artifacts.envelope import load_file as _load_file
from repro.artifacts.envelope import schema_id_of
from repro.artifacts.validate import require_valid
from repro.errors import ArtifactError, PerfError


def load_artifact(path: str) -> dict:
    """Read a JSON artifact; :class:`PerfError` (carrying every problem
    row) when it is unreadable or fails validation."""
    try:
        return require_valid(_load_file(path))
    except ArtifactError as e:
        raise PerfError(f"{path}: {e}", e.problems) from e


def detect_schema(doc: dict) -> str:
    """The artifact's full schema id; :class:`PerfError` when the schema
    is unregistered or has no flatten hook (nothing numeric to ingest)."""
    try:
        schema_id = schema_id_of(doc)
    except ArtifactError as e:
        raise PerfError(str(e)) from e
    kind = registry.lookup(schema_id)
    if kind is None:
        known = ", ".join(
            k for k in registry.known_ids()
            if registry.get(k).flatten is not None
        )
        raise PerfError(
            f"unsupported artifact schema {schema_id!r} (known: {known})"
        )
    if kind.flatten is None:
        raise PerfError(
            f"artifact schema {schema_id!r} registers no flatten hook; "
            "nothing to ingest"
        )
    return schema_id


def artifact_digest(doc: dict) -> str:
    """The run's content address: the envelope digest."""
    return str(doc["digest"])


def flatten(doc: dict) -> dict:
    """``{metric name: float}`` for any registered artifact kind."""
    return registry.get(detect_schema(doc)).flatten(doc["payload"])
