"""The routing service daemon: a job queue over the salvage pool.

``locusroute serve`` turns the batch CLI into a long-running service:
clients submit routing/simulation/experiment jobs over a tiny JSON/HTTP
API (stdlib :class:`ThreadingHTTPServer`, no new dependencies), the
daemon deduplicates identical work, executes on the existing
:func:`~repro.harness.pool.pool_map_salvage` process pool, and persists
every run into the SQLite repository.

Dedup semantics (docs/SERVICE.md)
---------------------------------
Every submission gets its own job row (audit trail), but identical work
executes once:

- a fingerprint already **done** in the repository is answered
  immediately — job row with status ``done``, zero executions; any other
  is queued, and its execution runs through the result cache, so a warm
  ``mp`` / ``sm`` / ``experiment`` entry is answered without simulating;
- a fingerprint already **queued or running** gains a follower job
  (``dedup_of`` = the primary's id) that completes when the shared
  execution does — counted in ``service.jobs.dedup_hits``;
- ``force=True`` skips the repository lookup and queues an execution,
  which still runs through the result cache: a forced ``route`` routes
  again, a forced ``mp`` / ``sm`` / ``experiment`` whose entry the cache
  holds is answered from it without simulating.  It still coalesces with
  an in-flight execution of the same fingerprint, which is already the
  execution the caller asked for.

Execution model
---------------
One dispatcher thread drains the queue in batches and hands each batch
to :func:`pool_map_salvage` (``jobs`` workers), so a crashed worker is
respawned and a twice-failed job becomes a *failed row*, never a dead
daemon.  Repository writes happen only on daemon threads — pool workers
return payloads; the dispatcher persists them.  The workers do write
the result cache (``<cache_dir>/results.sqlite``), each through its
own connection.  A daemon holds an exclusive lock on ``<db>.lock`` from
construction to :meth:`stop`, so a second daemon on the same file is
refused; one started on the file of a daemon killed mid-run re-adopts
its ``queued`` and ``running`` rows under their own job ids.

Waiting
-------
A caller that wants a job's outcome is *notified*, it does not poll:
``GET /jobs/<id>?wait=<seconds>`` is held on one condition variable that
the dispatcher notifies once per finished execution, connections are
persistent (``HTTP/1.1``) and every response leaves in one TCP write.

Telemetry: ``service.jobs.submitted / dedup_hits / repo_hits /
executed / failed``, ``service.queue.enqueued /
drained``, ``service.http.connections / requests`` (their ratio is the
connection reuse), and a ``service.job`` span per execution (job latency).
"""

from __future__ import annotations

import fcntl
import json
import math
import queue
import socket
import sqlite3
import sys
import threading
import time
import uuid
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import IO, Any, Callable, Dict, List, Optional, Set, Tuple
from urllib.parse import urlsplit

from ..errors import ReproError, ServiceError
from ..harness.cache import ResultCache, jsonify
from ..harness.pool import pool_map_salvage
from ..obs import telemetry as obs
from .jobs import JobSpec, execute_job_in_worker, job_key
from .repository import Repository
from .wire import HeadError, closes, http_version, read_headers

__all__ = ["RoutingService", "ServiceServer", "serve", "DEFAULT_PORT"]

DEFAULT_PORT = 8642
#: Longest hold one ``?wait=`` request is given; a longer wait asks again.
MAX_WAIT_S = 30.0
#: Largest ``POST /jobs`` body read; a longer one is refused unread (413).
MAX_BODY_BYTES = 1 << 20
#: Seconds a connection may sit between requests before its thread is freed.
IDLE_TIMEOUT_S = 60.0
_SQLITE_MAX_INT = 2**63 - 1  # a larger LIMIT is an OverflowError, not a bigger page


def _claim(db_path: str) -> Optional[IO[str]]:
    """Hold an exclusive lock on ``<db_path>.lock`` (``None`` in memory).

    The lock lives as long as the returned handle is open; a daemon that
    is killed loses it with its process.
    """
    if db_path == ":memory:":
        return None
    handle = open(db_path + ".lock", "a")
    try:
        fcntl.flock(handle, fcntl.LOCK_EX | fcntl.LOCK_NB)
    except OSError:
        handle.close()
        raise ServiceError(
            f"another daemon is serving {db_path} (it holds {db_path}.lock)"
        ) from None
    return handle


class RoutingService:
    """Job queue + dedup + pool execution + repository persistence.

    Parameters
    ----------
    repository:
        The canonical store (shared with the HTTP layer and reports).
    cache:
        Optional result cache that executions run through: warm entries
        answer without simulating, fresh ones warm it.
    jobs:
        Salvage-pool width per batch (``1`` executes in-process, which
        tests use for speed and determinism).
    timeout_s:
        Per-job pool timeout (retried once, then the job fails).
    poll_s:
        Dispatcher queue poll interval.
    paused:
        Start with the dispatcher stopped; :meth:`start` launches it.
        Tests use this to pile up submissions deterministically.
    """

    def __init__(
        self,
        repository: Repository,
        cache: Optional[ResultCache] = None,
        jobs: int = 1,
        timeout_s: Optional[float] = None,
        poll_s: float = 0.05,
        paused: bool = False,
    ) -> None:
        self.repository = repository
        self.cache = cache
        self.jobs = max(1, jobs)
        self.timeout_s = timeout_s
        self.poll_s = poll_s
        self._queue: "queue.Queue[Tuple[str, JobSpec, str]]" = queue.Queue()
        self._lock = threading.Lock()
        self._inflight: Dict[str, str] = {}  # fingerprint -> primary job id
        self._followers: Dict[str, List[str]] = {}  # fingerprint -> follower ids
        self._stop = threading.Event()
        #: Notified after a finished execution's rows are written, and by
        #: :meth:`stop`: what held :meth:`status` calls and :meth:`drain` wait on.
        self._finished = threading.Condition()
        self._thread: Optional[threading.Thread] = None
        self._claimed = _claim(repository.path)
        self._readopt()
        if not paused:
            self.start()

    def _readopt(self) -> None:
        """Queue again the jobs a killed daemon left ``queued`` or ``running``.

        Each row keeps its job id.  Per fingerprint the oldest row is the
        primary and the rest follow it, as if just submitted.  A row whose
        result is already stored is ``done``; one whose stored parameters
        no longer give its fingerprint fails: the code changed since it
        was submitted.
        """
        unfinished = self.repository.jobs(("queued", "running"), _SQLITE_MAX_INT)
        for job in reversed(unfinished):  # oldest first
            job_id, fingerprint = job["job_id"], job["fingerprint"]
            try:
                spec = JobSpec.from_params(job["kind"], job["config"])
                changed = job_key(spec) != fingerprint
            except ReproError:
                changed = True
            if changed:
                self.repository.set_status(
                    job_id, "failed",
                    error="the code changed since submission: its parameters "
                    "no longer give the stored fingerprint",
                )
            elif self.repository.get_result(fingerprint) is not None:
                self.repository.set_status(job_id, "done")
            else:
                self.repository.set_status(job_id, "queued")
                self._enqueue(job_id, spec, fingerprint)

    # -- lifecycle -----------------------------------------------------
    def start(self) -> None:
        """Launch the dispatcher thread (idempotent)."""
        if self._thread is not None and self._thread.is_alive():
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._dispatch_loop, name="locusroute-dispatcher", daemon=True
        )
        self._thread.start()

    def stop(self, timeout_s: float = 10.0) -> None:
        """Stop the dispatcher (current batch finishes first) and release
        the database's lock to the next daemon.

        Held :meth:`status` calls return at once with the job's current
        record, so tearing a server down never waits out a hold.
        """
        self._stop.set()
        with self._finished:
            self._finished.notify_all()
        if self._thread is not None:
            self._thread.join(timeout=timeout_s)
            self._thread = None
        if self._claimed is not None:
            self._claimed.close()
            self._claimed = None

    def drain(self, timeout_s: float = 60.0) -> bool:
        """Block until every accepted job has finished (or *timeout_s*).

        A job's fingerprint is in flight from :meth:`submit` until its
        rows are final, so "nothing in flight" also means the queue is
        empty and no batch is executing.
        """
        with self._finished:
            return self._finished.wait_for(lambda: not self._inflight, timeout_s)

    # -- submission ----------------------------------------------------
    def submit(
        self,
        kind: str,
        params: Optional[Dict[str, Any]] = None,
        force: bool = False,
    ) -> Dict[str, Any]:
        """Submit one job; returns its submission record.

        The record always carries ``job_id``, ``fingerprint``, ``kind``
        and ``status``; deduplicated submissions add ``dedup_of``.
        """
        spec = JobSpec.from_params(kind, params)
        fingerprint = job_key(spec)
        job_id = uuid.uuid4().hex[:12]
        obs.incr("service.jobs.submitted")

        if not force:
            stored = self.repository.get_result(fingerprint)
            if stored is not None:
                obs.incr("service.jobs.repo_hits")
                self.repository.add_job(
                    job_id, fingerprint, spec.kind, spec.params,
                    status="done", source="repository",
                )
                return self._submission(job_id, fingerprint, spec, "done")

        def add_row(primary: Optional[str]) -> None:
            self.repository.add_job(
                job_id, fingerprint, spec.kind, spec.params, status="queued",
                source="executed" if primary is None else "dedup", dedup_of=primary,
            )

        primary = self._enqueue(job_id, spec, fingerprint, add_row)
        if primary is None:
            return self._submission(job_id, fingerprint, spec, "queued")
        obs.incr("service.jobs.dedup_hits")
        return self._submission(job_id, fingerprint, spec, "queued", dedup_of=primary)

    def _enqueue(
        self,
        job_id: str,
        spec: JobSpec,
        fingerprint: str,
        add_row: Callable[[Optional[str]], None] = lambda primary: None,
    ) -> Optional[str]:
        """Put a job in flight: the primary of its fingerprint, queued for
        execution, or a follower of the primary already in flight (returned).

        ``add_row(primary)`` writes the job's row before anything can
        finish it: a follower's under the lock :meth:`_finish` takes, a
        primary's before it is queued.
        """
        with self._lock:
            primary = self._inflight.get(fingerprint)
            if primary is not None:
                self._followers.setdefault(fingerprint, []).append(job_id)
                add_row(primary)
                return primary
            self._inflight[fingerprint] = job_id
        add_row(None)
        self._queue.put((job_id, spec, fingerprint))
        obs.incr("service.queue.enqueued")
        return None

    @staticmethod
    def _submission(
        job_id: str,
        fingerprint: str,
        spec: JobSpec,
        status: str,
        dedup_of: Optional[str] = None,
    ) -> Dict[str, Any]:
        record = {
            "job_id": job_id,
            "fingerprint": fingerprint,
            "kind": spec.kind,
            "status": status,
        }
        if dedup_of is not None:
            record["dedup_of"] = dedup_of
        return record

    # -- queries -------------------------------------------------------
    def status(self, job_id: str, wait_s: float = 0.0) -> Optional[Dict[str, Any]]:
        """The job's record (``None`` for an unknown id), held up to *wait_s*.

        A hold ends when the job is ``done``/``failed``, the id is
        unknown, *wait_s* has passed or the service stops.
        """
        return self._held(lambda: self.repository.get_job(job_id), wait_s)

    def result(
        self, job_id: str, wait_s: float = 0.0
    ) -> Tuple[Optional[Dict[str, Any]], str]:
        """(result row or None, state) for a job id, held like :meth:`status`.

        States: ``unknown``, ``pending``, ``failed``, ``done``.
        """
        return self._result(job_id, wait_s, text=False)

    def result_text(self, job_id: str, wait_s: float = 0.0) -> Tuple[Optional[str], str]:
        """:meth:`result` with the row as its stored JSON object text."""
        return self._result(job_id, wait_s, text=True)

    def _result(self, job_id: str, wait_s: float, text: bool) -> Tuple[Any, str]:
        job = self._held(lambda: self.repository.job_result(job_id, text), wait_s)
        if job is None:
            return None, "unknown"
        if job["status"] == "failed":
            return None, "failed"
        if job["status"] != "done":
            return None, "pending"
        if job["result"] is None:  # done job whose row was lost to corruption
            return None, "failed"
        return job["result"], "done"

    def _held(
        self, read: Callable[[], Optional[Dict[str, Any]]], wait_s: float
    ) -> Optional[Dict[str, Any]]:
        """``read()`` once the job it reads is finished, or *wait_s* has
        passed, the service stops, or it reads ``None`` (an unknown id).

        The row is read under the condition :meth:`_finish` notifies, so a
        job that finishes between the read and the wait still wakes the
        caller.
        """
        deadline = time.monotonic() + wait_s
        with self._finished:
            while True:
                record = read()
                left = deadline - time.monotonic()
                if (
                    record is None
                    or record["status"] in ("done", "failed")
                    or left <= 0
                    or self._stop.is_set()
                ):
                    return record
                self._finished.wait(left)

    def stats(self) -> Dict[str, Any]:
        """Queue depth, in-flight map size, counters, repository counts."""
        counters = {
            name: value
            for name, value in dict(obs.get_telemetry().counters).items()
            if name.startswith(("service.", "circuits.", "route.geometry_"))
        }
        with self._lock:
            inflight = len(self._inflight)
        return {
            "queue_depth": self._queue.qsize(),
            "inflight": inflight,
            "pool_jobs": self.jobs,
            "counters": counters,
            "repository": {
                "path": self.repository.path,
                "jobs": self.repository.counts(),
            },
        }

    # -- dispatcher ----------------------------------------------------
    def _take_batch(self) -> List[Tuple[str, JobSpec, str]]:
        """Block briefly for the first job, then drain what's queued."""
        try:
            first = self._queue.get(timeout=self.poll_s)
        except queue.Empty:
            return []
        batch = [first]
        while True:
            try:
                batch.append(self._queue.get_nowait())
            except queue.Empty:
                return batch

    def _dispatch_loop(self) -> None:
        while not self._stop.is_set():
            batch = self._take_batch()
            if batch:
                self._run_batch(batch)

    def _run_batch(self, batch: List[Tuple[str, JobSpec, str]]) -> None:
        obs.incr("service.queue.drained", len(batch))
        for job_id, _spec, fingerprint in batch:
            self.repository.set_status(job_id, "running")
            for follower in self._followers_of(fingerprint):
                self.repository.set_status(follower, "running")
        cache_dir = str(self.cache.directory) if self.cache is not None else None
        report = pool_map_salvage(
            execute_job_in_worker,
            [(spec, cache_dir) for _jid, spec, _fp in batch],
            jobs=self.jobs,
            timeout_s=self.timeout_s,
        )
        failures = {f.index: f for f in report.failures}
        for i, (job_id, spec, fingerprint) in enumerate(batch):
            outcome = report.results[i]
            if outcome is None:
                error = failures[i].describe("job") if i in failures else "lost"
                obs.incr("service.jobs.failed")
                self._finish(job_id, fingerprint, "failed", error=error)
                continue
            payload, wall = outcome
            telemetry = report.telemetry[i]  # a worker's, merged by the pool
            obs.incr("service.jobs.executed")
            obs.record_span("service.job", wall, 0.0)
            self.repository.record_result(
                fingerprint, spec.kind, spec.params,
                jsonify(payload), telemetry=jsonify(telemetry), wall_s=wall,
            )
            self._finish(job_id, fingerprint, "done")

    def _followers_of(self, fingerprint: str) -> List[str]:
        with self._lock:
            return list(self._followers.get(fingerprint, ()))

    def _finish(
        self, job_id: str, fingerprint: str, status: str, error: Optional[str] = None
    ) -> None:
        self.repository.set_status(job_id, status, error=error)
        with self._lock:
            followers = self._followers.pop(fingerprint, [])
            self._inflight.pop(fingerprint, None)
        for follower in followers:
            self.repository.set_status(follower, status, error=error)
        with self._finished:
            self._finished.notify_all()


# ----------------------------------------------------------------------
# HTTP layer
# ----------------------------------------------------------------------
class _Handler(BaseHTTPRequestHandler):
    """JSON/HTTP facade over :class:`RoutingService`.

    ========  =======================  =======================================
    method    path                     meaning
    ========  =======================  =======================================
    GET       /health                  liveness probe
    GET       /stats                   queue depth, counters, repository counts
    GET       /jobs                    submission history (?status=, ?limit=)
    GET       /jobs/<id>               one job's status record (?wait=)
    GET       /jobs/<id>/result        payload (409 while pending, 500 failed;
                                       ?wait=)
    POST      /jobs                    submit {"kind": ..., "params": {...}}
    ========  =======================  =======================================

    ``?wait=<seconds>`` holds the request until the job is finished (or
    the id unknown, the hold over, the service stopping) and then answers
    exactly as without it; holds are clamped to ``MAX_WAIT_S``.  A number
    that does not parse (``limit``, ``wait``, ``Content-Length``) is a
    ``400``, a body over ``MAX_BODY_BYTES`` a ``413``, and any other method
    a ``404``: an endpoint is a method and a path.

    The head is read by :mod:`.wire`; every answer, a refusal included, is
    compact JSON.  Connections are persistent.  Headers and body leave in
    one write (buffered ``wfile``, Nagle off): written apart, the body
    would sit behind Nagle's algorithm until the client's delayed ACK of
    the header segment, ~40 ms on every reused connection.
    """

    server_version = "locusroute-service/1"
    protocol_version = "HTTP/1.1"
    wbufsize = -1  # handle_one_request flushes once per response
    disable_nagle_algorithm = True
    timeout = IDLE_TIMEOUT_S  # stdlib closes the connection on TimeoutError

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass  # the daemon's stdout belongs to the operator, not access logs

    @property
    def service(self) -> RoutingService:
        return self.server.service  # type: ignore[attr-defined]

    def setup(self) -> None:
        super().setup()
        obs.incr("service.http.connections")
        self.server.connections.add(self.connection)  # type: ignore[attr-defined]

    def finish(self) -> None:
        self.server.connections.discard(self.connection)  # type: ignore[attr-defined]
        super().finish()

    def parse_request(self) -> bool:
        """Parse the request line and head, refusing what does not parse;
        count the request and note whether it carries a body.

        The stdlib's rules stand: a bad request line is a 400, a version
        other than HTTP/1.x a 505, a head over the limits a 431; a path's
        leading ``//`` is one ``/``; an HTTP/1.0 connection closes unless it
        asks for keep-alive.  ``100 Continue`` leaves at once: held in the
        buffered ``wfile`` until the final answer, it stalled a client that
        waits for it before sending its body.
        """
        self.command, self.request_version = None, ""  # a refusal still gets a status line
        self.close_connection = True
        self.requestline = self.raw_requestline.rstrip(b"\r\n").decode("latin-1")
        words = self.requestline.split()
        if not words:
            return False  # a blank line: close without an answer
        version = http_version(words[2]) if len(words) == 3 else None
        if version is None:
            self.send_error(400, f"bad request line {self.requestline!r}")
            return False
        if version[0] != 1:
            self.send_error(505, f"{words[2]} is not supported")
            return False
        self.command, path, self.request_version = words
        self.path = "/" + path.lstrip("/") if path.startswith("//") else path
        if not hasattr(self, "do_" + self.command):
            self.send_error(404, f"no such endpoint {self.command} {self.path!r}")
            return False
        try:
            self._target = urlsplit(self.path)
        except ValueError:
            self.send_error(400, f"bad request target {self.path!r}")
            return False
        try:
            self.headers = read_headers(self.rfile)
        except HeadError as exc:
            self.send_error(exc.status, str(exc))
            return False
        self.close_connection = closes(version, self.headers)
        obs.incr("service.http.requests")
        self._body_unread = (
            self.headers.get("Content-Length", "0") != "0"
            or "Transfer-Encoding" in self.headers
        )
        if version >= (1, 1) and self.headers.get("Expect", "").lower() == "100-continue":
            self.send_response_only(100)
            self.end_headers()
            self.wfile.flush()
        return True

    def send_error(
        self, code: int, message: Optional[str] = None, explain: Optional[str] = None
    ) -> None:
        """Refuse with ``{"error": ...}`` like every other answer, not the
        stdlib's HTML page, and close: after a request that did not parse,
        nothing more on the connection can be framed."""
        self._body_unread = True
        self._send(code, {"error": message or self.responses[code][0]})

    def _send(self, code: int, payload: Dict[str, Any]) -> None:
        """Answer with *payload*."""
        self._send_json(code, json.dumps(payload, separators=(",", ":")))

    def _send_json(self, code: int, text: str) -> None:
        """Answer with the JSON *text*, and close the connection after an
        answer given without reading the request's body (a refused
        ``POST``, a ``GET`` that sent one), so that the body is never
        parsed as the connection's next request."""
        body = text.encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if self._body_unread:
            self.send_header("Connection", "close")  # sets close_connection
        self.end_headers()
        self.wfile.write(body)

    def _number(
        self,
        name: str,
        text: str,
        convert: Callable[[str], float],
        ceiling: float = math.inf,
    ) -> Optional[float]:
        """*text* as a finite number >= 0, clamped to *ceiling*; ``None``
        after answering 400 when it is not one."""
        try:
            value = convert(text)
            if not 0 <= value < math.inf:
                raise ValueError
        except ValueError:
            error = f"{name} must be a non-negative number, got {text!r}"
            self._send(400, {"error": error})
            return None
        return min(value, ceiling)

    def do_GET(self) -> None:  # noqa: N802
        parts = [p for p in self._target.path.split("/") if p]
        params = dict(
            pair.split("=", 1) for pair in self._target.query.split("&") if "=" in pair
        )
        if parts == ["health"]:
            self._send(200, {"ok": True})
        elif parts == ["stats"]:
            self._send(200, self.service.stats())
        elif parts == ["jobs"]:
            limit = self._number(
                "limit", params.get("limit", "200"), int, _SQLITE_MAX_INT
            )
            if limit is None:
                return
            status = params.get("status")
            self._send(200, {"jobs": self.service.repository.jobs(status, limit)})
        elif len(parts) == 2 and parts[0] == "jobs":
            wait_s = self._number("wait", params.get("wait", "0"), float, MAX_WAIT_S)
            if wait_s is None:
                return
            record = self.service.status(parts[1], wait_s)
            if record is None:
                self._send(404, {"error": f"unknown job {parts[1]!r}"})
            else:
                self._send(200, record)
        elif len(parts) == 3 and parts[0] == "jobs" and parts[2] == "result":
            wait_s = self._number("wait", params.get("wait", "0"), float, MAX_WAIT_S)
            if wait_s is None:
                return
            stored, state = self.service.result_text(parts[1], wait_s)
            if state == "unknown":
                self._send(404, {"error": f"unknown job {parts[1]!r}"})
            elif state == "pending":
                self._send(409, {"status": "pending"})
            elif state == "failed":
                job = self.service.status(parts[1]) or {}
                self._send(500, {"error": job.get("error") or "job failed"})
            else:
                self._send_json(200, '{"status":"done",' + stored[1:])
        else:
            self._send(404, {"error": f"no such endpoint {self._target.path!r}"})

    def do_POST(self) -> None:  # noqa: N802
        if self._target.path.rstrip("/") != "/jobs":
            self._send(404, {"error": f"no such endpoint {self._target.path!r}"})
            return
        length = int(self.headers.get("Content-Length", "0"))  # digits: wire checked
        if length > MAX_BODY_BYTES:
            error = f"request body of {length} bytes is over {MAX_BODY_BYTES}"
            self._send(413, {"error": error})
            return
        raw = self.rfile.read(length)
        # Read, unless it came chunked: that encoding is not decoded here.
        self._body_unread = "Transfer-Encoding" in self.headers
        try:
            body = json.loads(raw or b"{}")
            if not isinstance(body, dict):
                raise ValueError("body must be a JSON object")
        except (ValueError, RecursionError) as exc:  # RecursionError: nested too deep
            self._send(400, {"error": f"bad request body: {exc}"})
            return
        try:
            record = self.service.submit(
                str(body.get("kind", "")),
                body.get("params") or {},
                force=bool(body.get("force", False)),
            )
        except ReproError as exc:
            self._send(400, {"error": str(exc)})
            return
        self._send(200 if record["status"] == "done" else 202, record)


class ServiceServer(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying the service instance for handlers."""

    daemon_threads = True

    def __init__(self, address: Tuple[str, int], service: RoutingService) -> None:
        self.service = service
        #: Accepted sockets whose handler thread is still serving them.
        self.connections: Set[socket.socket] = set()
        super().__init__(address, _Handler)  # a failed bind calls server_close

    def handle_error(self, request: Any, client_address: Any) -> None:
        """A client that went away mid-connection is no traceback's worth."""
        if not isinstance(sys.exc_info()[1], ConnectionError):
            super().handle_error(request, client_address)

    def server_close(self) -> None:
        """Close the listening socket and every persistent connection, so a
        closed server answers nobody (its handler threads see EOF and exit)."""
        super().server_close()
        for connection in list(self.connections):
            try:
                connection.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # the peer closed it first


def serve(
    host: str = "127.0.0.1",
    port: int = DEFAULT_PORT,
    db: str = ".locusroute_service.sqlite",
    cache_dir: Optional[str] = ".locusroute_cache",
    jobs: int = 1,
    timeout_s: Optional[float] = None,
    paused: bool = False,
) -> ServiceServer:
    """Build a ready-to-run server (pass ``port=0`` for an OS-picked port).

    The caller owns the loop: ``server.serve_forever()`` to run,
    ``server.shutdown()`` + ``server.service.stop()`` +
    ``server.service.repository.close()`` to tear down.
    """
    try:
        repository = Repository(db)
    except sqlite3.OperationalError as exc:  # busy or unopenable, not corrupt
        raise ServiceError(f"cannot open repository {db}: {exc}") from exc
    cache = ResultCache(cache_dir) if cache_dir is not None else None
    try:
        service = RoutingService(
            repository, cache=cache, jobs=jobs, timeout_s=timeout_s, paused=paused
        )
    except BaseException:
        repository.close()
        raise
    try:
        return ServiceServer((host, port), service)
    except OSError as exc:  # the port is taken: give the database back
        service.stop()
        repository.close()
        raise ServiceError(f"cannot listen on {host}:{port}: {exc.strerror}") from exc
