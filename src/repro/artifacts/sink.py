"""The content-addressed store as the universal artifact sink.

:mod:`repro.serve.store` gives the stack one durable, checksummed,
atomically-published key/value store; this module gives every subsystem
one way to land enveloped artifacts in it:

- **content entries** — keyed ``('artifact', schema_id, payload
  digest)``, so the envelope digest *is* the address: publishing the
  same payload twice is one entry, and ``get_artifact`` retrieves by
  ``(schema id, digest)`` from any process;
- **request pointers** — optionally keyed ``('artifact-request',
  schema_id, request key)``, mapping "the report for *this* request"
  (e.g. a check run over these workloads) to the envelope.  This is
  what gives ``repro.check`` and ``repro.obs`` the store-backed
  resumption that derive/cell jobs already had: a repeated request
  short-circuits to the stored artifact instead of recomputing.

Request keys ride through :func:`repro.serve.store.canonical_key`, so
anything the store can canonicalize (nested tuples/dicts of scalars)
works.  ``list_artifacts`` scans the store and returns only genuine
content entries — request pointers and serve's own job artifacts are
recognized by their keys and skipped.
"""

from __future__ import annotations

import os
from typing import Any, Optional

from repro.artifacts.envelope import is_envelope, load_file
from repro.errors import ArtifactError

_CONTENT = "artifact"
_REQUEST = "artifact-request"


def _schema_id(env: dict) -> str:
    return f"{env['schema']}/{env['schema_version']}"


def content_key(env: dict) -> tuple:
    """The store key an envelope is content-addressed under."""
    if not is_envelope(env):
        raise ArtifactError("only enveloped documents go through the sink")
    return (_CONTENT, _schema_id(env), env["digest"])


def request_key(schema_id: str, request: Any) -> tuple:
    """The store key for a request pointer to a ``schema_id`` artifact."""
    return (_REQUEST, schema_id, request)


def put_artifact(store, env: dict, request: Any = None) -> str:
    """Publish ``env`` content-addressed (plus an optional request
    pointer); returns the envelope digest."""
    store.put(content_key(env), env)
    if request is not None:
        store.put(request_key(_schema_id(env), request), env)
    return env["digest"]


def get_artifact(store, schema_id: str, digest: str) -> Optional[dict]:
    """The envelope stored for ``(schema_id, digest)``, or None."""
    hit, value = store.get((_CONTENT, schema_id, digest))
    return value if hit else None


def get_for_request(store, schema_id: str, request: Any) -> Optional[dict]:
    """The envelope a request pointer resolves to, or None."""
    hit, value = store.get(request_key(schema_id, request))
    return value if hit else None


def list_artifacts(store) -> list[dict]:
    """Every content entry in the store, newest first.

    Returns ``{schema, digest, producer, created_s, elapsed_s}`` rows;
    request pointers and non-artifact store entries are skipped.
    """
    from repro.serve.store import canonical_key

    rows = []
    for key_text, value in store.scan():
        if not is_envelope(value):
            continue
        if key_text != canonical_key(content_key(value)):
            continue  # a request pointer or an unrelated entry
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
    matches = []
    seen = set()
    for key_text, value in store.scan():
        if not is_envelope(value):
            continue
        digest = value.get("digest", "")
        if not digest.startswith(digest_prefix) or digest in seen:
            continue
        seen.add(digest)
        matches.append(value)
    if not matches:
        return None
    if len(matches) > 1:
        have = ", ".join(sorted(m["digest"][:12] for m in matches))
        raise ArtifactError(
            f"artifact digest prefix {digest_prefix!r} is ambiguous ({have})"
        )
    return matches[0]


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
