"""Document-level validation: envelope shape, schema identity, payload.

One entry point — :func:`validate_document` — replaces the four
copy-pasted ``if doc.get("schema") != SCHEMA`` scaffolds the subsystems
used to carry.  It returns structured :class:`Problem` rows with stable
rule ids (the ``artifact/*`` catalogue below), so CI and tests can
assert on *which* rule fired, not on message text:

==============================  =============================================
rule id                         fires when
==============================  =============================================
``artifact/not-object``         the document is not a JSON object
``artifact/malformed-envelope`` envelope fields missing or mistyped
``artifact/unknown-schema``     no registered kind matches the schema id
``artifact/stale-version``      the kind name is known, the version is not
``artifact/digest-mismatch``    the digest does not match the payload
``artifact/schema-mismatch``    the payload's inner ``schema`` field
                                disagrees with the envelope
``artifact/invalid-payload``    the payload does not match the kind's declared
                                shape, or (shape clean) breaks one of its
                                invariants — one row per problem
==============================  =============================================

A bare (un-enveloped) payload is an ``artifact/malformed-envelope``
rejection like any other document missing the envelope fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.artifacts import registry
from repro.artifacts.envelope import (
    RULE_MALFORMED,
    is_envelope,
    payload_digest,
    schema_id_of,
)
from repro.artifacts.shape import check
from repro.errors import ArtifactError

RULE_NOT_OBJECT = "artifact/not-object"
RULE_UNKNOWN_SCHEMA = "artifact/unknown-schema"
RULE_STALE_VERSION = "artifact/stale-version"
RULE_DIGEST = "artifact/digest-mismatch"
RULE_SCHEMA_MISMATCH = "artifact/schema-mismatch"
RULE_PAYLOAD = "artifact/invalid-payload"


@dataclass(frozen=True)
class Problem:
    """One validation finding: a stable rule id plus a human message."""

    rule: str
    message: str

    def to_dict(self) -> dict:
        return {"rule": self.rule, "message": self.message}

    def __str__(self) -> str:
        return f"{self.rule}: {self.message}"


#: the envelope's own shape, checked by the same walker as the payloads
_ENVELOPE = {
    "schema_version": int,
    "digest": str,
    "producer": str,
    "timing": {"created_s": float},
    "payload": dict,
}


def _check_schema_known(schema_id: str) -> Optional[Problem]:
    if registry.lookup(schema_id) is not None:
        return None
    name = schema_id.partition("/")[0]
    versions = registry.versions_of(name)
    if versions:
        have = ", ".join(f"{name}/{v}" for v in versions)
        return Problem(
            RULE_STALE_VERSION,
            f"schema {schema_id!r} is a stale version (registered: {have})",
        )
    known = ", ".join(registry.known_ids())
    return Problem(
        RULE_UNKNOWN_SCHEMA,
        f"schema {schema_id!r} is not registered (known: {known})",
    )


def validate_document(doc: Any) -> list[Problem]:
    """Problems with an enveloped document (empty = valid).  Envelope
    checks run first; the registered payload check runs only when the
    schema resolves."""
    if not isinstance(doc, dict):
        return [Problem(RULE_NOT_OBJECT, "document is not a JSON object")]
    if not is_envelope(doc):
        return [Problem(
            RULE_MALFORMED,
            "document is not an envelope (needs schema, schema_version, "
            "digest and payload)",
        )]

    problems = [Problem(RULE_MALFORMED, msg) for msg in check(doc, _ENVELOPE)]
    if problems:
        return problems
    schema_id = schema_id_of(doc)
    payload = doc["payload"]
    if payload_digest(payload) != doc["digest"]:
        problems.append(Problem(
            RULE_DIGEST,
            f"digest {doc['digest'][:12]}... does not match the payload "
            f"(computed {payload_digest(payload)[:12]}...)",
        ))
    inner = payload.get("schema")
    if inner is not None and inner != schema_id:
        problems.append(Problem(
            RULE_SCHEMA_MISMATCH,
            f"payload declares schema {inner!r}, envelope says "
            f"{schema_id!r}",
        ))

    unknown = _check_schema_known(schema_id)
    if unknown is not None:
        problems.append(unknown)
        return problems

    problems.extend(
        Problem(RULE_PAYLOAD, msg)
        for msg in registry.get(schema_id).validate_payload(payload)
    )
    return problems


def require_valid(doc: Any) -> Any:
    """``doc`` back when valid; :class:`ArtifactError` carrying the
    structured problems otherwise."""
    problems = validate_document(doc)
    if problems:
        head = problems[0]
        more = f" (+{len(problems) - 1} more)" if len(problems) > 1 else ""
        raise ArtifactError(f"invalid artifact: {head}{more}", problems)
    return doc


def describe(doc: Any) -> str:
    """One human line for ``ls``-style listings of an envelope."""
    return (f"{schema_id_of(doc):<26} {doc['digest'][:12]}  "
            f"{doc.get('producer') or '-'}")
