"""One enveloped artifact/report backbone for the whole stack.

Every persisted JSON document — pipeline traces, bench tables, obs
profiles, check reports, matrix sweeps, daemon status, perf baselines
and gate verdicts — goes through this package:

- :mod:`~repro.artifacts.envelope` — the one envelope (schema id,
  canonical-JSON sha256 digest, producer, timing) and its readers;
- :mod:`~repro.artifacts.registry` — the schema-id constants (single
  source of truth) and the ``(shape, invariants, flatten)`` registry;
- :mod:`~repro.artifacts.shape` — payload shapes as plain literals and
  the one walker that checks them;
- :mod:`~repro.artifacts.validate` — structured ``artifact/*``
  diagnostics over enveloped documents;
- :mod:`~repro.artifacts.sink` — the content-addressed store as
  universal artifact sink (one key space: the envelope digest);
- :func:`publish` — the one call producers make: envelope, validate,
  write to disk, land in the store.

CLI: ``python -m repro artifacts validate|ls|cat`` works on loose
files and store entries alike.
"""

from __future__ import annotations

from typing import Optional

from repro.artifacts import registry
from repro.artifacts.envelope import (
    ENVELOPE_FIELDS,
    canonical_json,
    envelope,
    is_envelope,
    load_file,
    payload_digest,
    payload_of,
    schema_id_of,
    split_id,
    write_file,
)
from repro.artifacts.sink import (
    find_artifact,
    get_artifact,
    list_artifacts,
    put_artifact,
    resolve_artifact,
)
from repro.artifacts.validate import (
    Problem,
    describe,
    require_valid,
    validate_document,
)
from repro.errors import ArtifactError

__all__ = [
    "ArtifactError",
    "ENVELOPE_FIELDS",
    "Problem",
    "canonical_json",
    "describe",
    "envelope",
    "find_artifact",
    "get_artifact",
    "is_envelope",
    "list_artifacts",
    "load_file",
    "payload_digest",
    "payload_of",
    "publish",
    "put_artifact",
    "registry",
    "require_valid",
    "resolve_artifact",
    "schema_id_of",
    "split_id",
    "validate_document",
    "write_file",
]


def publish(
    path: Optional[str],
    doc: dict,
    schema: Optional[str] = None,
    producer: str = "",
    created_by_run: Optional[str] = None,
    elapsed_s: Optional[float] = None,
    store=None,
) -> dict:
    """Envelope ``doc`` (bare payloads are wrapped, envelopes pass
    through), validate it, write it to ``path`` (when given), and land
    it in ``store`` (when given) under its content address.  Returns
    the envelope — the single call every producer makes."""
    env = doc if is_envelope(doc) else envelope(
        doc,
        schema=schema,
        producer=producer,
        created_by_run=created_by_run,
        elapsed_s=elapsed_s,
    )
    require_valid(env)
    if path is not None:
        write_file(path, env)
    if store is not None:
        put_artifact(store, env)
    return env
