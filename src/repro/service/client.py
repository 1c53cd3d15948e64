"""HTTP/1.1 client for the routing service daemon, on the stdlib's sockets.

Used by the ``locusroute jobs`` subcommands, the CI service smoke, and
any script that wants to talk to a running ``locusroute serve`` without
extra dependencies.  All methods return the server's decoded JSON; HTTP
errors surface as :class:`~repro.errors.ServiceError` carrying the
server's ``error`` message when one was sent.

Each thread that calls a client keeps one persistent connection to the
daemon, and :meth:`ServiceClient.wait` is answered when the job
finishes (``?wait=``): a job costs a submit, one held status request and
a result read, not a connection per call and a poll per tick.  A request
is one ``sendall`` of head and body; the answer's head is read by
:mod:`.wire`, as the daemon reads requests, and its body by its
``Content-Length``.
"""

from __future__ import annotations

import json
import socket
import ssl
import threading
import time
from typing import Any, Dict, List, Optional, Tuple
from urllib.parse import urlsplit

from ..errors import ServiceError
from .wire import HeadError, closes, http_version, read_head

__all__ = ["ServiceClient"]


class _Kept:
    """Holds one thread's socket and its reader and closes them when
    dropped: at that thread's exit or with the client, since no ``with``
    block spans calls."""

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.rfile = sock.makefile("rb")

    def close(self) -> None:
        self.rfile.close()
        self.sock.close()

    __del__ = close


def _exchange(kept: _Kept, message: bytes) -> Optional[Tuple[int, str, bytes, bool]]:
    """Send *message* on *kept* and read the answer: its status, reason,
    body and whether the daemon closes the connection after it.  ``None``
    when the socket died before any byte of an answer arrived."""
    try:
        kept.sock.sendall(message)
        head = read_head(kept.rfile)
    except (BrokenPipeError, ConnectionResetError):
        return None
    if head is None:
        return None
    start, headers = head
    version_word, _, rest = start.partition(" ")
    code, _, reason = rest.partition(" ")
    version = http_version(version_word)
    if version is None or not (len(code) == 3 and code.isascii() and code.isdigit()):
        raise HeadError(f"malformed status line {start[:80]!r}")
    length = headers.get("Content-Length")
    if length is None:
        raise HeadError("an answer without Content-Length")
    raw = kept.rfile.read(int(length))
    if len(raw) < int(length):
        raise ConnectionError("the connection closed inside an answer's body")
    return int(code), reason, raw, closes(version, headers)


class ServiceClient:
    """Client for one service base URL (e.g. ``http://127.0.0.1:8642``)."""

    def __init__(self, url: str = "http://127.0.0.1:8642", timeout_s: float = 30.0) -> None:
        self.url = url.rstrip("/")
        self.timeout_s = timeout_s
        parts = urlsplit(self.url)
        try:
            port = parts.port  # ValueError: not a port number
            if parts.scheme not in ("http", "https") or not parts.hostname:
                raise ValueError
        except ValueError:
            raise ServiceError(
                f"service URL must be http(s)://host[:port], got {url!r}"
            ) from None
        self._tls = parts.scheme == "https"
        self._address = (parts.hostname, port or (443 if self._tls else 80))
        self._host = parts.netloc  # the Host header
        self._prefix = parts.path
        self._local = threading.local()  # .kept: the calling thread's _Kept

    # -- transport -----------------------------------------------------
    def _connect(self) -> _Kept:
        """A new socket to the daemon, for the calling thread to keep."""
        sock = socket.create_connection(self._address, self.timeout_s)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        if self._tls:
            try:
                sock = ssl.create_default_context().wrap_socket(
                    sock, server_hostname=self._address[0]
                )
            except OSError:
                sock.close()
                raise
        return _Kept(sock)

    def _request(
        self,
        path: str,
        body: Optional[Dict[str, Any]] = None,
        ok_statuses: tuple = (200, 202),
    ) -> Dict[str, Any]:
        method = "GET" if body is None else "POST"
        head = f"{method} {self._prefix}{path} HTTP/1.1\r\nHost: {self._host}\r\n"
        data = b""
        if body is not None:
            data = json.dumps(body).encode("utf-8")
            head += f"Content-Type: application/json\r\nContent-Length: {len(data)}\r\n"
        message = (head + "\r\n").encode("utf-8") + data
        kept = getattr(self._local, "kept", None)
        try:
            answer = None if kept is None else _exchange(kept, message)
            if answer is None:
                # Nothing kept, or the kept socket died before any answer
                # byte: the daemon restarted or timed the idle connection
                # out.  Ask (once more) on a new one.  A repeated POST
                # /jobs is safe, dedup makes it one more audit row and no
                # second execution.
                if kept is not None:
                    kept.close()
                kept = self._local.kept = self._connect()
                answer = _exchange(kept, message)
                if answer is None:
                    raise ConnectionResetError("the connection closed without an answer")
        except (HeadError, OSError) as exc:
            if kept is not None:
                kept.close()  # whatever state it is in, do not reuse it
            self._local.kept = None
            raise ServiceError(
                f"cannot reach routing service at {self.url}: {exc}"
            ) from exc
        status, reason, raw, close = answer
        if close:
            kept.close()
            self._local.kept = None
        try:
            payload = json.loads(raw)
        except ValueError as exc:
            raise ServiceError(
                f"service returned HTTP {status} {reason}, not JSON"
            ) from exc
        if status not in ok_statuses:
            raise ServiceError(
                payload.get("error", f"service returned HTTP {status}")
            )
        return payload

    # -- API -----------------------------------------------------------
    def health(self) -> Dict[str, Any]:
        return self._request("/health")

    def stats(self) -> Dict[str, Any]:
        return self._request("/stats")

    def submit(
        self,
        kind: str,
        params: Optional[Dict[str, Any]] = None,
        force: bool = False,
    ) -> Dict[str, Any]:
        """Submit a job; returns {job_id, fingerprint, kind, status, ...}."""
        return self._request(
            "/jobs", body={"kind": kind, "params": params or {}, "force": force}
        )

    def status(self, job_id: str) -> Dict[str, Any]:
        return self._request(f"/jobs/{job_id}")

    def result(self, job_id: str) -> Dict[str, Any]:
        """The persisted result row of a finished job (409 -> error)."""
        return self._request(f"/jobs/{job_id}/result")

    def list_jobs(
        self, status: Optional[str] = None, limit: int = 200
    ) -> List[Dict[str, Any]]:
        query = f"?limit={limit}" + (f"&status={status}" if status else "")
        return self._request(f"/jobs{query}")["jobs"]

    def wait(
        self, job_id: str, timeout_s: float = 300.0, poll_s: float = 0.1
    ) -> Dict[str, Any]:
        """Block until the job reaches ``done``/``failed``; returns its record.

        Each status request asks the daemon to hold it (``?wait=``) for the
        time left, at most half the socket timeout, and is answered when
        the job finishes.  *poll_s* is the pause after an answer that was
        not final: a hold that expired, or a daemon that ignores ``?wait=``.
        """
        deadline = time.monotonic() + timeout_s
        while True:
            hold = max(0.0, min(deadline - time.monotonic(), self.timeout_s / 2))
            record = self._request(f"/jobs/{job_id}?wait={hold:.3f}")
            if record["status"] in ("done", "failed"):
                return record
            if time.monotonic() >= deadline:
                raise ServiceError(
                    f"job {job_id} still {record['status']} after {timeout_s}s"
                )
            time.sleep(poll_s)

    def wait_healthy(self, timeout_s: float = 30.0, poll_s: float = 0.2) -> None:
        """Block until /health answers (daemon startup)."""
        deadline = time.monotonic() + timeout_s
        while True:
            try:
                self.health()
                return
            except ServiceError:
                if time.monotonic() >= deadline:
                    raise
                time.sleep(poll_s)
