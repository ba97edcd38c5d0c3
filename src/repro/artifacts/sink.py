"""The content-addressed store as the universal artifact sink.

:mod:`repro.serve.store` gives the stack one durable, checksummed,
atomically-published key/value store; this module gives every subsystem
one way to land enveloped artifacts in it, and one key space: an
envelope is keyed ``('artifact', schema_id, payload digest)``, so the
envelope digest *is* the address — publishing the same payload twice is
one entry, and ``get_artifact`` retrieves by ``(schema id, digest)``
from any process.  There is no second, name-keyed way in: reuse of a
*computation* is the job store's business (:func:`repro.serve.jobs.job_key`
— IR fingerprint, resolved recipe, context facts), where an edited
algorithm is a different key.

``list_artifacts`` scans the store and returns the envelopes — serve's
own job results, the store's other tenants, are not enveloped and are
skipped.
"""

from __future__ import annotations

import os
from typing import Optional

from repro.artifacts.envelope import is_envelope, load_file
from repro.errors import ArtifactError

_CONTENT = "artifact"


def _schema_id(env: dict) -> str:
    return f"{env['schema']}/{env['schema_version']}"


def content_key(env: dict) -> tuple:
    """The store key an envelope is content-addressed under."""
    if not is_envelope(env):
        raise ArtifactError("only enveloped documents go through the sink")
    return (_CONTENT, _schema_id(env), env["digest"])


def put_artifact(store, env: dict) -> str:
    """Publish ``env`` content-addressed; returns the envelope digest."""
    store.put(content_key(env), env)
    return env["digest"]


def get_artifact(store, schema_id: str, digest: str) -> Optional[dict]:
    """The envelope stored for ``(schema_id, digest)``, or None."""
    hit, value = store.get((_CONTENT, schema_id, digest))
    return value if hit else None


def list_artifacts(store) -> list[dict]:
    """Every content entry in the store, newest first.

    Returns ``{schema, digest, producer, created_s, elapsed_s}`` rows;
    non-artifact store entries are skipped.
    """
    rows = []
    for _key_text, value in store.scan():
        if not is_envelope(value):
            continue  # a served job's result
        timing = value.get("timing") or {}
        rows.append({
            "schema": _schema_id(value),
            "digest": value["digest"],
            "producer": value.get("producer", ""),
            "created_s": timing.get("created_s"),
            "elapsed_s": timing.get("elapsed_s"),
        })
    rows.sort(key=lambda r: (r["created_s"] is not None, r["created_s"]),
              reverse=True)
    return rows


def find_artifact(store, digest_prefix: str) -> Optional[dict]:
    """The unique content entry whose digest starts with
    ``digest_prefix``; None when absent, :class:`ArtifactError` when
    ambiguous."""
    matches = {
        value["digest"]: value for _key_text, value in store.scan()
        if is_envelope(value) and value["digest"].startswith(digest_prefix)
    }
    if not matches:
        return None
    if len(matches) > 1:
        have = ", ".join(sorted(digest[:12] for digest in matches))
        raise ArtifactError(
            f"artifact digest prefix {digest_prefix!r} is ambiguous ({have})"
        )
    return next(iter(matches.values()))


def resolve_artifact(store, target: str) -> dict:
    """The document ``target`` names the way every command names an
    artifact: a file path, or else a digest prefix in ``store``."""
    if os.path.exists(target):
        return load_file(target)
    doc = find_artifact(store, target)
    if doc is None:
        raise ArtifactError(
            f"no artifact matches {target!r} "
            "(not a file, no store digest prefix)"
        )
    return doc
