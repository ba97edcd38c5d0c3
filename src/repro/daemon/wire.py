"""HTTP/1.1 framing for the daemon socket: the one reader and writer both
ends share.

The daemon speaks a small, strict subset of HTTP/1.1, enough for any
stock HTTP client (``curl``, Python's standard library) to talk to it:

- a start line — ``GET|POST <path> HTTP/1.1`` for a request,
  ``HTTP/1.1 <code> <reason>`` for a reply;
- header lines, each at most :data:`MAX_LINE` bytes and at most
  :data:`MAX_HEADERS` of them; only ``Content-Length``,
  ``Transfer-Encoding`` and ``Connection`` are read;
- a body of exactly ``Content-Length`` bytes, at most :data:`MAX_BODY`
  (no ``Content-Length`` is an empty body; any ``Transfer-Encoding`` is
  refused);
- ``Connection: close`` on the message after which the sender closes.

A message is written with one ``sendall`` of head and body, so Nagle
never holds a body back behind its head.  A message must arrive whole
within ``timeout_s`` of its first byte (:meth:`Connection.read`); one
that breaks a rule, or arrives too slowly, raises :class:`FramingError`,
which the daemon answers with a 400 before it closes the connection.
"""

from __future__ import annotations

import socket
import time
from http import HTTPStatus
from typing import Optional

#: longest start or header line, in bytes, without its CRLF
MAX_LINE = 8192
#: most header lines one message may carry
MAX_HEADERS = 32
#: largest body, in bytes (a job spec is a few hundred)
MAX_BODY = 1 << 20

_MAX_HEAD = (MAX_HEADERS + 1) * (MAX_LINE + 2)
_CHUNK = 1 << 16


class FramingError(ValueError):
    """A message that breaks the framing, or that did not arrive in time."""


def message(start: str, payload: bytes = b"", close: bool = False) -> bytes:
    """One whole message, head and body, ready for one ``sendall``."""
    head = (f"{start}\r\nContent-Type: application/json\r\n"
            f"Content-Length: {len(payload)}\r\n")
    if close:
        head += "Connection: close\r\n"
    return (head + "\r\n").encode("latin-1") + payload


def reply(status: int, payload: bytes, close: bool = False) -> bytes:
    return message(f"HTTP/1.1 {status} {HTTPStatus(status).phrase}", payload, close)


class Connection:
    """One socket and the bytes read from it past the last message."""

    __slots__ = ("sock", "_buf", "_timeout")

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self._buf = b""
        self._timeout = sock.gettimeout()

    def _settimeout(self, timeout_s: float) -> None:
        if timeout_s != self._timeout:  # a syscall: skip it when unchanged
            self.sock.settimeout(timeout_s)
            self._timeout = timeout_s

    def send(self, data: bytes, timeout_s: float) -> None:
        self._settimeout(timeout_s)
        self.sock.sendall(data)

    def close(self) -> None:
        self.sock.close()

    def read(self, timeout_s: float) -> Optional[tuple[str, bytes, bool]]:
        """The next message as ``(start line, body, close)``; None when the
        peer closed (or reset) the connection before its first byte.  Waits
        up to ``timeout_s`` for the first byte (``TimeoutError`` past it),
        then up to ``timeout_s`` more for the rest."""
        buf = self._buf
        if not buf:
            self._settimeout(timeout_s)
            try:
                buf = self.sock.recv(_CHUNK)
            except ConnectionResetError:
                return None
            if not buf:
                return None
        deadline = time.monotonic() + timeout_s
        while (end := buf.find(b"\r\n\r\n")) < 0:
            if len(buf) > _MAX_HEAD:
                raise FramingError(f"message head longer than {_MAX_HEAD} bytes")
            buf = self._more(buf, deadline, timeout_s)
        start, length, close = _parse_head(bytes(buf[:end]))
        stop = end + 4 + length
        while len(buf) < stop:
            buf = self._more(buf, deadline, timeout_s)
        self._buf = buf[stop:]
        return start, bytes(buf[end + 4:stop]), close

    def _more(self, buf, deadline: float, timeout_s: float) -> bytearray:
        """``buf`` and the next bytes to arrive before ``deadline``."""
        try:
            left = deadline - time.monotonic()
            if left <= 0:
                raise TimeoutError
            self._settimeout(left)
            chunk = self.sock.recv(_CHUNK)
        except TimeoutError:
            raise FramingError(
                f"message incomplete {timeout_s:g}s after its first byte"
            ) from None
        if not chunk:
            raise FramingError("connection closed in the middle of a message")
        buf = buf if isinstance(buf, bytearray) else bytearray(buf)
        buf += chunk
        return buf


def _parse_head(head: bytes) -> tuple[str, int, bool]:
    lines = head.split(b"\r\n")
    if len(lines) > MAX_HEADERS + 1:
        raise FramingError(f"more than {MAX_HEADERS} header lines")
    if max(map(len, lines)) > MAX_LINE:
        raise FramingError(f"header line longer than {MAX_LINE} bytes")
    length, close = None, False
    for line in lines[1:]:
        name, sep, value = line.partition(b":")
        if not sep:
            raise FramingError(f"malformed header line {line[:80].decode('latin-1')!r}")
        name, value = name.strip().lower(), value.strip()
        if name == b"content-length":
            if length is not None or not value.isdigit() or int(value) > MAX_BODY:
                raise FramingError(
                    f"Content-Length must be one integer in [0, {MAX_BODY}], "
                    f"got {value[:80].decode('latin-1')!r}"
                )
            length = int(value)
        elif name == b"transfer-encoding":
            raise FramingError("Transfer-Encoding is not supported; send Content-Length")
        elif name == b"connection":
            close = value.lower() == b"close"
    return lines[0].decode("latin-1"), length or 0, close


def read_request(conn: Connection, timeout_s: float) -> Optional[tuple[str, str, bytes]]:
    """``(method, path, body)`` of the next request, or None; see
    :meth:`Connection.read`."""
    msg = conn.read(timeout_s)
    if msg is None:
        return None
    start, body, _ = msg
    method, _, rest = start.partition(" ")
    path, _, version = rest.partition(" ")
    if method not in ("GET", "POST") or version != "HTTP/1.1" or path[:1] != "/":
        raise FramingError(
            f"request line must be 'GET|POST <path> HTTP/1.1', got {start[:80]!r}"
        )
    return method, path, body


def read_reply(conn: Connection, timeout_s: float) -> Optional[tuple[int, bytes, bool]]:
    """``(status, body, close)`` of the next reply, or None; see
    :meth:`Connection.read`."""
    msg = conn.read(timeout_s)
    if msg is None:
        return None
    start, body, close = msg
    version, _, rest = start.partition(" ")
    status = rest[:3]
    if version != "HTTP/1.1" or len(status) != 3 or not status.isdecimal():
        raise FramingError(f"malformed status line {start[:80]!r}")
    return int(status), body, close
