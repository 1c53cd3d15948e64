"""Stdlib HTTP client for the routing service daemon.

Used by the ``locusroute jobs`` subcommands, the CI service smoke, and
any script that wants to talk to a running ``locusroute serve`` without
extra dependencies.  All methods return the server's decoded JSON; HTTP
errors surface as :class:`~repro.errors.ServiceError` carrying the
server's ``error`` message when one was sent.

Each thread that calls a client keeps one persistent connection to the
daemon, and :meth:`ServiceClient.wait` is answered when the job
finishes (``?wait=``): a job costs a submit, one held status request and
a result read, not a connection per call and a poll per tick.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from typing import Any, Dict, List, Optional

from ..errors import ServiceError

__all__ = ["ServiceClient"]

_CONNECTIONS = {
    "http": http.client.HTTPConnection,
    "https": getattr(http.client, "HTTPSConnection", None),  # absent without ssl
}


class _Kept:
    """Holds one thread's connection and closes it when dropped: at that
    thread's exit or with the client, since no ``with`` block spans calls."""

    def __init__(self, connection: http.client.HTTPConnection) -> None:
        self.connection = connection

    def __del__(self) -> None:
        self.connection.close()


class ServiceClient:
    """Client for one service base URL (e.g. ``http://127.0.0.1:8642``)."""

    def __init__(self, url: str = "http://127.0.0.1:8642", timeout_s: float = 30.0) -> None:
        self.url = url.rstrip("/")
        self.timeout_s = timeout_s
        scheme, _, rest = self.url.partition("://")
        self._host, slash, prefix = rest.partition("/")
        self._prefix = slash + prefix
        self._connect = _CONNECTIONS.get(scheme)
        if self._connect is None or not self._host:
            raise ServiceError(f"service URL must be http(s)://host[:port], got {url!r}")
        self._local = threading.local()  # .kept: the calling thread's _Kept

    # -- transport -----------------------------------------------------
    def _connection(self) -> http.client.HTTPConnection:
        """The calling thread's connection: opened by its first request,
        then kept, so concurrent callers never share a socket."""
        kept = getattr(self._local, "kept", None)
        if kept is None:
            kept = _Kept(self._connect(self._host, timeout=self.timeout_s))
            self._local.kept = kept
        return kept.connection

    def _request(
        self,
        path: str,
        body: Optional[Dict[str, Any]] = None,
        ok_statuses: tuple = (200, 202),
    ) -> Dict[str, Any]:
        data = None if body is None else json.dumps(body).encode("utf-8")
        method = "GET" if data is None else "POST"
        headers = {"Content-Type": "application/json"} if data else {}
        connection = None
        try:
            connection = self._connection()
            reused = connection.sock is not None
            try:
                connection.request(method, self._prefix + path, data, headers)
                response = connection.getresponse()
            except (BrokenPipeError, ConnectionResetError):
                # No response byte arrived (RemoteDisconnected is a
                # ConnectionResetError).  On a kept connection that is a
                # daemon that restarted or timed the idle connection out:
                # ask once more on a new one.  A repeated POST /jobs is
                # safe, dedup makes it one more audit row and no second
                # execution.
                connection.close()
                if not reused:
                    raise
                connection.request(method, self._prefix + path, data, headers)
                response = connection.getresponse()
            status, raw = response.status, response.read()
        except (http.client.HTTPException, OSError) as exc:
            if connection is not None:
                connection.close()  # whatever state it is in, do not reuse it
            raise ServiceError(
                f"cannot reach routing service at {self.url}: {exc}"
            ) from exc
        try:
            payload = json.loads(raw)
        except ValueError as exc:
            raise ServiceError(
                f"service returned HTTP {status} {response.reason}, not JSON"
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
