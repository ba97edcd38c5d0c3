"""Payload shapes as plain literals, and the one walker that checks them.

A shape is written the way the payload is drawn in a docstring:

==========================  ==============================================
shape                       matches
==========================  ==============================================
``str`` ``bool``            a JSON string / boolean
``int``                     an integer (``True``/``False`` are not)
``float``                   any number, integer or not (booleans are not)
``dict`` ``list``           any object / any list
``{"field": shape, ...}``   an object carrying every named field (extra
                            fields stay legal)
``[shape]``                 a list whose every element matches
``map_of(shape)``           an object whose every value matches
``enum("a", "b")``          one of these strings
``nullable(shape)``         ``null`` — or, as a field, absent — or a match
==========================  ==============================================

:func:`check` is total: it never raises on any JSON value, and reports
every finding as ``<path>: want <type>, got <type>`` or ``<path>:
missing``.  Cross-field arithmetic is not a shape; kinds register it
separately as ``invariants`` (see :mod:`repro.artifacts.registry`),
which run only on a payload this walker found clean.
"""

from __future__ import annotations

from typing import Any

_JSON_NAME = {str: "string", int: "integer", float: "number", bool: "boolean",
              dict: "object", list: "list", type(None): "null"}


class nullable:
    """``null`` (or, as a field, absent) or a match for ``shape``."""

    def __init__(self, shape: Any) -> None:
        self.shape = shape


class map_of:
    """An object whose every value matches ``shape``."""

    def __init__(self, shape: Any) -> None:
        self.shape = shape


class enum:
    """One of the strings ``values``."""

    def __init__(self, *values: str) -> None:
        self.values = values


#: the JSON type a constructor's match is carried by
_CARRIER = {map_of: dict, enum: str}


def check(value: Any, shape: Any, path: str = "") -> list[str]:
    """Problems with ``value`` against ``shape`` (empty = it matches)."""
    if isinstance(shape, nullable):
        if value is None:
            return []
        shape = shape.shape
    kind = type(shape)
    want = shape if kind is type else _CARRIER.get(kind, kind)
    here = path or "payload"
    if not isinstance(value, (int, float) if want is float else want) or (
        isinstance(value, bool) and want is not bool
    ):
        got = _JSON_NAME.get(type(value), type(value).__name__)
        return [f"{here}: want {_JSON_NAME[want]}, got {got}"]
    if kind is enum and value not in shape.values:
        return [f"{here}: want one of {'|'.join(shape.values)}, got {value!r}"]

    prefix = f"{path}." if path else ""
    problems: list[str] = []
    if kind is dict:
        for field, sub in shape.items():
            if field in value:
                problems += check(value[field], sub, prefix + field)
            elif not isinstance(sub, nullable):
                problems.append(f"{prefix}{field}: missing")
    elif kind is map_of:
        for key, item in value.items():
            problems += check(item, shape.shape, f"{prefix}{key}")
    elif kind is list:
        for i, item in enumerate(value):
            problems += check(item, shape[0], f"{path}[{i}]")
    return problems
