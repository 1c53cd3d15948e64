"""SQLite-backed result repository: the service's canonical store.

The result cache (:mod:`repro.harness.cache`) answers exactly one
question — "have I run this fingerprint before?" — from one keyed table.
The repository keeps that content-addressed contract
(``fingerprint -> payload``) beside a submission history
(``schema.sql``), so the daemon, ``report.py``, and ad-hoc ``sqlite3``
sessions can ask richer questions: every submission ever made, which
ones shared an execution, how long each kind takes, what failed and why.

Concurrency and corruption policy
---------------------------------
One :class:`Repository` serialises its own statements behind a lock and
opens its file through :func:`~repro.harness.cache.open_sqlite` (WAL
mode, a busy timeout, ``synchronous=NORMAL``), so the daemon's HTTP
threads and dispatcher thread share one instance safely, and *separate
processes* (a daemon plus a CLI report) contend through SQLite's own
file locking.  A second daemon on the same file is refused: the
:class:`~repro.service.daemon.RoutingService` holds ``<name>.lock``.
Result writes are idempotent ``INSERT OR REPLACE`` keyed by
fingerprint — two processes racing to record the same configuration
both succeed and agree.

A corrupted or truncated database degrades to a miss, never an error:
``open_sqlite`` moves a file that is not a database aside (counted in
``service.repository.recovered``), and a row that fails to decode
mid-read is treated as absent (``service.repository.corrupt_rows``), as
the result cache treats a truncated value.
"""

from __future__ import annotations

import json
import sqlite3
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

from ..harness.cache import open_sqlite
from ..obs import telemetry as obs

__all__ = ["Repository", "REPOSITORY_SCHEMA"]

PathLike = Union[str, Path]

#: Bump to invalidate persisted payloads on a format change (mirrors
#: ``CACHE_SCHEMA`` for the result cache; the two version independently).
REPOSITORY_SCHEMA = 1

_SCHEMA_PATH = Path(__file__).with_name("schema.sql")


class Repository:
    """The persistent job/result store over one SQLite file.

    Parameters
    ----------
    path:
        Database file (created on first use), or ``":memory:"`` for an
        ephemeral store (tests).
    timeout_s:
        SQLite busy timeout for cross-process lock contention.
    """

    def __init__(self, path: PathLike = ":memory:", timeout_s: float = 30.0) -> None:
        self.path = str(path)
        self._lock = threading.Lock()
        self._conn = open_sqlite(
            self.path, _SCHEMA_PATH.read_text(), "NORMAL",
            "service.repository.recovered", timeout_s,
        )
        self._conn.row_factory = sqlite3.Row

    def close(self) -> None:
        with self._lock:
            self._conn.close()

    def _write(self, sql: str, params: Sequence[Any]) -> None:
        with self._lock:
            self._conn.execute(sql, params)
            self._conn.commit()

    def _read(self, sql: str, params: Sequence[Any] = ()) -> List[sqlite3.Row]:
        """The rows of one query; none (counted) if the file fails mid-read."""
        try:
            with self._lock:
                return self._conn.execute(sql, params).fetchall()
        except sqlite3.DatabaseError:
            obs.incr("service.repository.corrupt_rows")
            return []

    @staticmethod
    def _decoded(row: sqlite3.Row) -> Dict[str, Any]:
        """A row as a plain dict, its ``config`` JSON decoded (``{}`` if not)."""
        record = dict(row)
        try:
            record["config"] = json.loads(record["config"])
        except (TypeError, ValueError):
            record["config"] = {}
        return record

    # -- jobs ----------------------------------------------------------
    def add_job(
        self,
        job_id: str,
        fingerprint: str,
        kind: str,
        config: Dict[str, Any],
        status: str = "queued",
        source: str = "executed",
        dedup_of: Optional[str] = None,
    ) -> None:
        """Persist one submission (deduplicated ones included)."""
        now = time.time()
        finished = now if status in ("done", "failed") else None
        self._write(
            "INSERT INTO jobs (job_id, fingerprint, kind, config, status,"
            " source, dedup_of, submitted_unix, finished_unix)"
            " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
            (
                job_id,
                fingerprint,
                kind,
                json.dumps(config, sort_keys=True),
                status,
                source,
                dedup_of,
                now,
                finished,
            ),
        )

    def set_status(
        self,
        job_id: str,
        status: str,
        error: Optional[str] = None,
    ) -> None:
        """Advance a job through queued -> running -> done/failed."""
        now = time.time()
        started = now if status == "running" else None
        finished = now if status in ("done", "failed") else None
        self._write(
            "UPDATE jobs SET status = ?,"
            " error = COALESCE(?, error),"
            " started_unix = COALESCE(started_unix, ?),"
            " finished_unix = COALESCE(?, finished_unix)"
            " WHERE job_id = ?",
            (status, error, started, finished, job_id),
        )

    def get_job(self, job_id: str) -> Optional[Dict[str, Any]]:
        """One submission row as a plain dict (config decoded), or None."""
        rows = self._read("SELECT * FROM jobs WHERE job_id = ?", (job_id,))
        return self._decoded(rows[0]) if rows else None

    def jobs(
        self, status: Union[None, str, Sequence[str]] = None, limit: int = 200
    ) -> List[Dict[str, Any]]:
        """Submission history, newest first (optionally of one or more statuses)."""
        query = "SELECT * FROM jobs"
        params: List[Any] = []
        if status is not None:
            statuses = [status] if isinstance(status, str) else list(status)
            query += f" WHERE status IN ({', '.join('?' * len(statuses))})"
            params.extend(statuses)
        query += " ORDER BY submitted_unix DESC, job_id DESC LIMIT ?"
        params.append(limit)
        return [self._decoded(r) for r in self._read(query, params)]

    def counts(self) -> Dict[str, int]:
        """Job counts by status (the queue-depth view of the history)."""
        rows = self._read("SELECT status, COUNT(*) AS n FROM jobs GROUP BY status")
        return {r["status"]: r["n"] for r in rows}

    # -- results -------------------------------------------------------
    def record_result(
        self,
        fingerprint: str,
        kind: str,
        config: Dict[str, Any],
        payload: Dict[str, Any],
        telemetry: Optional[Dict[str, Any]] = None,
        wall_s: Optional[float] = None,
    ) -> None:
        """Persist one execution's payload (idempotent per fingerprint)."""
        self._write(
            "INSERT OR REPLACE INTO results (fingerprint, kind, config,"
            " payload, telemetry, schema_version, wall_s, created_unix)"
            " VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
            (
                fingerprint,
                kind,
                json.dumps(config, sort_keys=True),
                json.dumps(payload, sort_keys=True),
                json.dumps(telemetry or {}, sort_keys=True),
                REPOSITORY_SCHEMA,
                wall_s,
                time.time(),
            ),
        )

    def get_result(self, fingerprint: str) -> Optional[Dict[str, Any]]:
        """The stored result row for a fingerprint, or ``None`` on miss.

        Wrong-schema and undecodable rows are misses (and counted), the
        same treatment the result cache gives stale or truncated entries.
        """
        rows = self._read("SELECT * FROM results WHERE fingerprint = ?", (fingerprint,))
        if not rows or rows[0]["schema_version"] != REPOSITORY_SCHEMA:
            obs.incr("service.repository.misses")
            return None
        row = rows[0]
        try:
            record = {
                "fingerprint": row["fingerprint"],
                "kind": row["kind"],
                "config": json.loads(row["config"]),
                "payload": json.loads(row["payload"]),
                "telemetry": json.loads(row["telemetry"]),
                "wall_s": row["wall_s"],
                "created_unix": row["created_unix"],
            }
        except (TypeError, ValueError):
            obs.incr("service.repository.corrupt_rows")
            obs.incr("service.repository.misses")
            return None
        obs.incr("service.repository.hits")
        return record

    def history(
        self, kind: Optional[str] = None, limit: int = 100
    ) -> List[Dict[str, Any]]:
        """Stored results, newest first, payloads omitted (summary view)."""
        query = (
            "SELECT fingerprint, kind, config, wall_s, created_unix"
            " FROM results"
        )
        params: List[Any] = []
        if kind is not None:
            query += " WHERE kind = ?"
            params.append(kind)
        query += " ORDER BY created_unix DESC LIMIT ?"
        params.append(limit)
        return [self._decoded(r) for r in self._read(query, params)]
