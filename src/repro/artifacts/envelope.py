"""The one artifact envelope every subsystem writes and reads.

Every JSON artifact this repo persists — pipeline traces, bench tables,
obs profiles, check reports, serve batch reports, matrix sweeps, perf
baselines and gate verdicts — is wrapped in the same envelope::

    {
      'schema': 'repro.pipeline',        # kind name, version split out
      'schema_version': 1,
      'digest': 'ba77...',               # sha256 of canonical payload JSON
      'producer': 'repro.pipeline',      # tool that wrote it
      'created_by_run': null | 'run id', # optional provenance hook
      'timing': {'created_s': f, 'elapsed_s': f | null},
      'payload': { ...the subsystem document... }
    }

The payload is the subsystem's own document, byte-for-byte what the
pre-envelope stack wrote to disk (including its inner ``schema`` field,
kept so committed digests do not change).  The digest
is computed over the **canonical JSON** form of the payload — sorted
keys, compact separators — so two payloads with identical content but
different key order digest identically, and the digest doubles as the
artifact's content address in the store sink (:mod:`repro.artifacts.sink`).

Readers take envelopes only: :func:`payload_of` and :func:`schema_id_of`
reject a bare payload with an ``artifact/malformed-envelope``
:class:`~repro.errors.ArtifactError`.
"""

from __future__ import annotations

import hashlib
import json
import time
from typing import Any, Optional

from repro.errors import ArtifactError

#: rule id of the rejection every reader gives a non-envelope document
RULE_MALFORMED = "artifact/malformed-envelope"

#: fields every envelope carries, in canonical order
ENVELOPE_FIELDS = (
    "schema", "schema_version", "digest", "producer",
    "created_by_run", "timing", "payload",
)


def canonical_json(obj: Any) -> str:
    """Canonical text form: sorted keys, compact separators."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def payload_digest(payload: Any) -> str:
    """sha256 hex digest of the canonical JSON form of ``payload``."""
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def split_id(schema_id: str) -> tuple[str, int]:
    """``'repro.obs/1' -> ('repro.obs', 1)``; :class:`ArtifactError`
    when the id is not ``name/version``."""
    name, sep, version = schema_id.partition("/")
    if not name or not sep or not version.isdigit():
        raise ArtifactError(
            f"malformed schema id {schema_id!r} (want 'name/version')"
        )
    return name, int(version)


def envelope(
    payload: dict,
    schema: Optional[str] = None,
    producer: str = "",
    created_by_run: Optional[str] = None,
    elapsed_s: Optional[float] = None,
    created_s: Optional[float] = None,
) -> dict:
    """Wrap ``payload`` in a fresh envelope.

    ``schema`` defaults to the payload's legacy inner ``schema`` field;
    ``elapsed_s`` defaults to the payload's own ``elapsed_s`` when it has
    a numeric one.  The digest is stamped from the canonical payload
    JSON, so enveloping is deterministic given the payload.
    """
    if not isinstance(payload, dict):
        raise ArtifactError("artifact payload must be a JSON object")
    schema_id = schema if schema is not None else payload.get("schema")
    if not isinstance(schema_id, str):
        raise ArtifactError(
            "payload carries no schema id; pass schema='name/version'"
        )
    name, version = split_id(schema_id)
    if elapsed_s is None and isinstance(payload.get("elapsed_s"), (int, float)):
        elapsed_s = float(payload["elapsed_s"])
    return {
        "schema": name,
        "schema_version": version,
        "digest": payload_digest(payload),
        "producer": producer,
        "created_by_run": created_by_run,
        "timing": {
            "created_s": time.time() if created_s is None else created_s,
            "elapsed_s": elapsed_s,
        },
        "payload": payload,
    }


def is_envelope(doc: Any) -> bool:
    """True when ``doc`` structurally looks like an envelope."""
    return (
        isinstance(doc, dict)
        and isinstance(doc.get("schema"), str)
        and "schema_version" in doc
        and "digest" in doc
        and "payload" in doc
    )


def _require_envelope(doc: Any) -> dict:
    if not is_envelope(doc):
        raise ArtifactError(
            f"{RULE_MALFORMED}: document is not an envelope (needs schema, "
            "schema_version, digest and payload; bare payloads are not read)"
        )
    return doc


def payload_of(doc: Any) -> Any:
    """The subsystem document inside the envelope ``doc``."""
    return _require_envelope(doc)["payload"]


def schema_id_of(doc: Any) -> str:
    """The full ``name/version`` schema id of the envelope ``doc``."""
    _require_envelope(doc)
    return f"{doc['schema']}/{doc['schema_version']}"


def load_file(path: str) -> dict:
    """Read a JSON artifact file; :class:`ArtifactError` on unreadable
    or non-object content."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as e:
        raise ArtifactError(f"cannot read artifact {path!r}: {e}") from e
    except json.JSONDecodeError as e:
        raise ArtifactError(f"artifact {path!r} is not valid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise ArtifactError(f"artifact {path!r} is not a JSON object")
    return doc


def write_file(path: str, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
