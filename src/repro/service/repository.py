"""SQLite-backed result repository: the service's canonical store.

The file cache (:mod:`repro.harness.cache`) answers exactly one
question — "have I run this fingerprint before?" — and cannot be
queried, joined, or audited.  The repository keeps that content-addressed
contract (``fingerprint -> payload``) but in SQLite (``schema.sql``), so
the daemon, ``report.py``, and ad-hoc ``sqlite3`` sessions can ask
richer questions: every submission ever made, which ones shared an
execution, how long each kind takes, what failed and why.

Concurrency and corruption policy
---------------------------------
One :class:`Repository` serialises its own statements behind a lock and
opens SQLite in WAL mode with a busy timeout, so the daemon's HTTP
threads and dispatcher thread share one instance safely, and *separate
processes* (a daemon plus a CLI report) contend through SQLite's own
file locking.  A second daemon on the same file is refused: the
:class:`~repro.service.daemon.RoutingService` holds ``<name>.lock``.
Result writes are idempotent ``INSERT OR REPLACE`` keyed by
fingerprint — two processes racing to record the same configuration
both succeed and agree.

A corrupted or truncated database degrades to a miss, never an error:
if the file cannot even be opened as a database it is moved aside to
``<name>.corrupt.<n>`` and recreated empty (counted in
``service.repository.recovered``); a row that fails to decode mid-read
is treated as absent (``service.repository.corrupt_rows``).  This is
the same contract the file cache keeps for truncated pickles.
"""

from __future__ import annotations

import json
import sqlite3
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

from ..obs import telemetry as obs

__all__ = ["Repository", "REPOSITORY_SCHEMA"]

PathLike = Union[str, Path]

#: Bump to invalidate persisted payloads on a format change (mirrors
#: ``CACHE_SCHEMA`` for the file cache; the two version independently).
REPOSITORY_SCHEMA = 1

_SCHEMA_PATH = Path(__file__).with_name("schema.sql")


def _schema_sql() -> str:
    return _SCHEMA_PATH.read_text()


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
        self._timeout_s = timeout_s
        self._lock = threading.Lock()
        self._conn = self._open()

    # -- connection / recovery -----------------------------------------
    def _connect(self) -> sqlite3.Connection:
        conn = sqlite3.connect(
            self.path, timeout=self._timeout_s, check_same_thread=False
        )
        conn.row_factory = sqlite3.Row
        conn.execute("PRAGMA journal_mode=WAL")
        conn.execute("PRAGMA synchronous=NORMAL")
        conn.executescript(_schema_sql())
        conn.commit()
        return conn

    def _open(self) -> sqlite3.Connection:
        try:
            return self._connect()
        except sqlite3.DatabaseError:
            if self.path == ":memory:":
                raise
        # Corrupt/truncated file: move it aside and start fresh — the
        # canonical store must degrade to a miss, not a crash loop.
        target = Path(self.path)
        for n in range(1000):
            aside = target.with_name(f"{target.name}.corrupt.{n}")
            if not aside.exists():
                target.replace(aside)
                break
        obs.incr("service.repository.recovered")
        return self._connect()

    def close(self) -> None:
        with self._lock:
            self._conn.close()

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
        with self._lock:
            self._conn.execute(
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
            self._conn.commit()

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
        with self._lock:
            self._conn.execute(
                "UPDATE jobs SET status = ?,"
                " error = COALESCE(?, error),"
                " started_unix = COALESCE(started_unix, ?),"
                " finished_unix = COALESCE(?, finished_unix)"
                " WHERE job_id = ?",
                (status, error, started, finished, job_id),
            )
            self._conn.commit()

    def get_job(self, job_id: str) -> Optional[Dict[str, Any]]:
        """One submission row as a plain dict (config decoded), or None."""
        try:
            with self._lock:
                row = self._conn.execute(
                    "SELECT * FROM jobs WHERE job_id = ?", (job_id,)
                ).fetchone()
        except sqlite3.DatabaseError:
            obs.incr("service.repository.corrupt_rows")
            return None
        return self._job_dict(row) if row is not None else None

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
        try:
            with self._lock:
                rows = self._conn.execute(query, params).fetchall()
        except sqlite3.DatabaseError:
            obs.incr("service.repository.corrupt_rows")
            return []
        return [self._job_dict(r) for r in rows]

    def counts(self) -> Dict[str, int]:
        """Job counts by status (the queue-depth view of the history)."""
        try:
            with self._lock:
                rows = self._conn.execute(
                    "SELECT status, COUNT(*) AS n FROM jobs GROUP BY status"
                ).fetchall()
        except sqlite3.DatabaseError:
            obs.incr("service.repository.corrupt_rows")
            return {}
        return {r["status"]: r["n"] for r in rows}

    @staticmethod
    def _job_dict(row: sqlite3.Row) -> Dict[str, Any]:
        record = dict(row)
        try:
            record["config"] = json.loads(record["config"])
        except (TypeError, ValueError):
            record["config"] = {}
        return record

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
        with self._lock:
            self._conn.execute(
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
            self._conn.commit()

    def get_result(self, fingerprint: str) -> Optional[Dict[str, Any]]:
        """The stored result row for a fingerprint, or ``None`` on miss.

        Wrong-schema and undecodable rows are misses (and counted), the
        same treatment the file cache gives stale or truncated entries.
        """
        try:
            with self._lock:
                row = self._conn.execute(
                    "SELECT * FROM results WHERE fingerprint = ?",
                    (fingerprint,),
                ).fetchone()
        except sqlite3.DatabaseError:
            obs.incr("service.repository.corrupt_rows")
            obs.incr("service.repository.misses")
            return None
        if row is None:
            obs.incr("service.repository.misses")
            return None
        if row["schema_version"] != REPOSITORY_SCHEMA:
            obs.incr("service.repository.misses")
            return None
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
        try:
            with self._lock:
                rows = self._conn.execute(query, params).fetchall()
        except sqlite3.DatabaseError:
            obs.incr("service.repository.corrupt_rows")
            return []
        out = []
        for row in rows:
            record = dict(row)
            try:
                record["config"] = json.loads(record["config"])
            except (TypeError, ValueError):
                record["config"] = {}
            out.append(record)
        return out
