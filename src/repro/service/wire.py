"""The routing service's HTTP/1.1 message head, read the same way at both ends.

The daemon reads a request's header fields with :func:`read_headers` (the
stdlib's connection loop has read the request line), the client an
answer's status line and fields with :func:`read_head`.  Both keep the
stdlib's limits — :data:`MAX_LINE` bytes a line, :data:`MAX_HEADERS`
fields a head — and raise one error, :class:`HeadError`, which carries the
status a server refuses the head with.

The stdlib's own reader, ``http.client.parse_headers``, builds an
``email`` message from every head (docs/PERFORMANCE.md has what that
cost a repository hit).  This one reads lines, splits each at its colon
and is stricter where leniency lets two readers of one message disagree:
a repeated or non-numeric ``Content-Length`` and an obsolete folded line
are refused.
"""

from __future__ import annotations

import re
from typing import BinaryIO, Dict, Optional, Tuple

from ..errors import ServiceError

__all__ = [
    "MAX_HEADERS",
    "MAX_LINE",
    "HeadError",
    "Headers",
    "closes",
    "http_version",
    "read_head",
    "read_headers",
]

#: Longest line of a head, line ending included (``http.client._MAXLINE``).
MAX_LINE = 65536
#: Most header fields in one head (``http.client._MAXHEADERS``).
MAX_HEADERS = 100

_TOKEN = re.compile(rb"[!#$%&'*+\-.^_`|~0-9A-Za-z]+")
_VERSION = re.compile(r"HTTP/([0-9]{1,10})\.([0-9]{1,10})")
_LENGTH = re.compile(r"[0-9]{1,18}")  # no body this service reads is longer


class HeadError(ServiceError):
    """A message head that is malformed (``status`` 400) or over one of the
    limits (``status`` 431)."""

    def __init__(self, message: str, status: int = 400) -> None:
        super().__init__(message)
        self.status = status


class Headers(Dict[str, str]):
    """Header fields by lower-cased name, looked up in any case.  The values
    of a repeated field are joined with ``", "``, as RFC 9110 §5.3 allows."""

    def __getitem__(self, name: str) -> str:
        return super().__getitem__(name.lower())

    def __contains__(self, name: object) -> bool:
        return isinstance(name, str) and super().__contains__(name.lower())

    def get(  # type: ignore[override]
        self, name: str, default: Optional[str] = None
    ) -> Optional[str]:
        return super().get(name.lower(), default)


def http_version(text: str) -> Optional[Tuple[int, int]]:
    """``(major, minor)`` of an ``HTTP/x.y`` word, ``None`` for anything else."""
    match = _VERSION.fullmatch(text)
    return None if match is None else (int(match[1]), int(match[2]))


def closes(version: Tuple[int, int], headers: Headers) -> bool:
    """Whether the connection ends after the message this head starts:
    ``Connection: close``, or HTTP/1.0 without ``keep-alive``."""
    tokens = {token.strip().lower() for token in headers.get("connection", "").split(",")}
    return "close" in tokens or (version < (1, 1) and "keep-alive" not in tokens)


def _line(rfile: BinaryIO) -> bytes:
    line = rfile.readline(MAX_LINE + 1)
    if len(line) > MAX_LINE:
        raise HeadError(f"a head line is longer than {MAX_LINE} bytes", 431)
    return line


def read_headers(rfile: BinaryIO) -> Headers:
    """The header fields of a head, read up to and including its blank line."""
    headers = Headers()
    for _ in range(MAX_HEADERS + 1):
        line = _line(rfile)
        if line in (b"\r\n", b"\n"):
            length = headers.get("content-length")
            if length is not None and not _LENGTH.fullmatch(length):
                raise HeadError(f"Content-Length must be a number of bytes, got {length!r}")
            return headers
        if not line.endswith(b"\n"):
            raise HeadError("the connection closed inside a message head")
        if line[:1] in (b" ", b"\t"):
            raise HeadError("a folded header line (obsolete line folding)")
        name, colon, value = line.partition(b":")
        if not colon or not _TOKEN.fullmatch(name):
            raise HeadError(f"malformed header line {line[:80]!r}")
        key = name.decode("ascii").lower()
        text = value.strip(b" \t\r\n").decode("latin-1")
        if key in headers:
            if key == "content-length":
                raise HeadError("a repeated Content-Length")
            text = headers[key] + ", " + text
        headers[key] = text
    raise HeadError(f"more than {MAX_HEADERS} header fields", 431)


def read_head(rfile: BinaryIO) -> Optional[Tuple[str, Headers]]:
    """A message's start line (line ending removed) and its header fields;
    ``None`` when the stream ends before the message's first byte."""
    line = _line(rfile)
    if not line:
        return None
    if not line.endswith(b"\n"):
        raise HeadError("the connection closed inside a message head")
    return line.rstrip(b"\r\n").decode("latin-1"), read_headers(rfile)
