"""The service's HTTP/1.1 head reader (``repro.service.wire``).

Both ends of the routing service read message heads through it, so its
contract is held on its own: on any bytes it returns a head, ``None`` for
a stream that ended before its first byte, or raises ``HeadError``; it
never asks its stream for more than one bounded line at a time, nor for
more lines than the limits allow.
"""

from __future__ import annotations

import http.client
import io

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ServiceError
from repro.service import wire
from repro.service.wire import HeadError, Headers, read_head, read_headers


class BoundedReader:
    """A stream that fails the test on any read but a bounded ``readline``."""

    def __init__(self, data: bytes) -> None:
        self.stream = io.BytesIO(data)
        self.lines = 0

    def readline(self, limit: int = -1) -> bytes:
        assert 0 < limit <= wire.MAX_LINE + 1, limit
        self.lines += 1
        return self.stream.readline(limit)


def head(*lines: bytes) -> BoundedReader:
    return BoundedReader(b"".join(line + b"\r\n" for line in lines) + b"\r\n")


_LINES = st.one_of(
    st.binary(max_size=40),
    st.sampled_from([
        b"HTTP/1.1 200 OK", b"GET /health HTTP/1.1", b"Content-Length: 5",
        b"Content-Length: 5, 6", b"content-length: -1", b"Host: x", b" folded",
        b"\tfolded", b"Bad Name: v", b"NoColon", b": empty", b"X-\xc3\xbc: \xff",
        b"Connection: close", b"",
    ]),
)


class TestReadHead:
    @settings(max_examples=300, deadline=None)
    @given(data=st.one_of(
        st.binary(max_size=300),
        st.lists(_LINES, max_size=12).map(lambda ls: b"\r\n".join(ls) + b"\r\n\r\n"),
    ))
    @example(data=b"")
    @example(data=b"GET / HTTP/1.1\r\nContent-Length: 1\r\ncontent-length: 1\r\n\r\n")
    def test_any_bytes_give_a_head_or_the_one_error(self, data):
        reader = BoundedReader(data)
        try:
            result = read_head(reader)
        except HeadError as exc:
            assert exc.status in (400, 431)
        else:
            if result is None:
                assert data == b""
            else:
                start, headers = result
                assert isinstance(start, str) and isinstance(headers, Headers)
                assert "\n" not in start
        assert reader.lines <= wire.MAX_HEADERS + 2

    def test_a_head_is_its_start_line_and_fields_in_any_case(self):
        start, headers = read_head(head(
            b"HTTP/1.1 200 OK", b"Content-Length:  12 ", b"X-Tag: a", b"x-tag: b",
        ))
        assert start == "HTTP/1.1 200 OK"
        assert headers["content-length"] == headers.get("CONTENT-LENGTH") == "12"
        assert "Content-Length" in headers and "Expect" not in headers
        assert headers.get("X-TAG") == "a, b"

    def test_bare_line_feeds_end_lines_too(self):
        assert read_head(BoundedReader(b"GET / HTTP/1.1\nHost: x\n\n"))[1] == {"host": "x"}

    @pytest.mark.parametrize(
        "lines, message",
        [
            ((b"Content-Length: 5", b"Content-Length: 5"), "repeated Content-Length"),
            ((b"Content-Length: 5", b"content-length: 6"), "repeated Content-Length"),
            ((b"Content-Length: 5, 6",), "Content-Length must be a number"),
            ((b"Content-Length: +5",), "Content-Length must be a number"),
            ((b"Content-Length: " + b"9" * 19,), "Content-Length must be a number"),
            ((b"X-A: 1", b" folded"), "folded"),
            ((b"Name : v",), "malformed header line"),
            ((b"X-\xc3\xbc: v",), "malformed header line"),
            ((b"no colon",), "malformed header line"),
            ((b"X-A: 1", b"\tx: v"), "obsolete line folding"),
        ],
    )
    def test_fields_two_readers_could_disagree_on_are_refused(self, lines, message):
        with pytest.raises(HeadError, match=message) as caught:
            read_headers(head(*lines))
        assert caught.value.status == 400

    def test_a_head_cut_off_is_refused(self):
        with pytest.raises(HeadError, match="closed inside a message head"):
            read_head(BoundedReader(b"HTTP/1.1 200 OK\r\nContent-Le"))
        with pytest.raises(HeadError, match="closed inside a message head"):
            read_head(BoundedReader(b"HTTP/1.1 200"))

    def test_the_line_limit(self):
        fits = b"X: " + b"v" * (wire.MAX_LINE - 5)  # + CRLF: MAX_LINE bytes
        assert len(read_headers(head(fits))["x"]) == wire.MAX_LINE - 5
        with pytest.raises(HeadError, match="longer than") as caught:
            read_headers(head(fits + b"v"))
        assert caught.value.status == 431
        assert str(caught.value) == f"a head line is longer than {wire.MAX_LINE} bytes"

    def test_the_field_limit(self):
        fields = [b"X-%d: v" % i for i in range(wire.MAX_HEADERS)]
        assert len(read_headers(head(*fields))) == wire.MAX_HEADERS
        reader = head(*fields, b"X-last: v")
        with pytest.raises(HeadError, match="more than") as caught:
            read_headers(reader)
        assert caught.value.status == 431
        assert reader.lines == wire.MAX_HEADERS + 1

    def test_the_limits_are_the_stdlibs(self):
        """The daemon refuses no head the stdlib's reader took, and the
        limits docs/SERVICE.md states are these."""
        assert (wire.MAX_LINE, wire.MAX_HEADERS) == (
            http.client._MAXLINE, http.client._MAXHEADERS,
        ) == (65536, 100)

    def test_the_error_is_a_service_error(self):
        assert issubclass(HeadError, ServiceError)


class TestVersions:
    @pytest.mark.parametrize(
        "word, version",
        [
            ("HTTP/1.1", (1, 1)), ("HTTP/1.0", (1, 0)), ("HTTP/2.0", (2, 0)),
            ("HTTP/01.10", (1, 10)), ("HTTP/1", None), ("http/1.1", None),
            ("HTTP/1.1.1", None), ("HTTP/١.1", None), ("HTTP/" + "1" * 11 + ".1", None),
        ],
    )
    def test_http_version(self, word, version):
        assert wire.http_version(word) == version

    @pytest.mark.parametrize(
        "version, connection, closes",
        [
            ((1, 1), None, False), ((1, 1), "close", True), ((1, 1), "Keep-Alive, Close", True),
            ((1, 0), None, True), ((1, 0), "keep-alive", False), ((1, 0), "close", True),
        ],
    )
    def test_closes(self, version, connection, closes):
        headers = Headers() if connection is None else Headers(connection=connection)
        assert wire.closes(version, headers) is closes
