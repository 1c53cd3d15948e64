"""Tests for the SQLite result repository (service.repository)."""

from __future__ import annotations

import multiprocessing
import sqlite3

import pytest

from repro.obs import telemetry as obs
from repro.service.repository import REPOSITORY_SCHEMA, Repository


@pytest.fixture
def repo(tmp_path):
    r = Repository(tmp_path / "svc.sqlite")
    yield r
    r.close()


class TestJobs:
    def test_add_and_get_round_trip(self, repo):
        repo.add_job("j1", "fp1", "route", {"which": "bnrE", "iterations": 2})
        job = repo.get_job("j1")
        assert job["job_id"] == "j1"
        assert job["fingerprint"] == "fp1"
        assert job["status"] == "queued"
        assert job["config"] == {"which": "bnrE", "iterations": 2}
        assert job["submitted_unix"] > 0
        assert job["started_unix"] is None

    def test_get_missing_job_is_none(self, repo):
        assert repo.get_job("absent") is None

    def test_status_lifecycle_stamps_timestamps(self, repo):
        repo.add_job("j1", "fp1", "route", {})
        repo.set_status("j1", "running")
        running = repo.get_job("j1")
        assert running["status"] == "running"
        assert running["started_unix"] is not None
        repo.set_status("j1", "done")
        done = repo.get_job("j1")
        assert done["status"] == "done"
        assert done["finished_unix"] >= done["started_unix"]

    def test_failed_status_records_error(self, repo):
        repo.add_job("j1", "fp1", "route", {})
        repo.set_status("j1", "failed", error="boom")
        assert repo.get_job("j1")["error"] == "boom"

    def test_dedup_submission_keeps_its_own_row(self, repo):
        repo.add_job("j1", "fp1", "route", {})
        repo.add_job("j2", "fp1", "route", {}, source="dedup", dedup_of="j1")
        assert repo.get_job("j2")["dedup_of"] == "j1"
        assert len(repo.jobs()) == 2

    def test_jobs_filter_and_counts(self, repo):
        repo.add_job("j1", "fp1", "route", {})
        repo.add_job("j2", "fp2", "mp", {}, status="done")
        repo.add_job("j3", "fp3", "sm", {}, status="done")
        assert {j["job_id"] for j in repo.jobs(status="done")} == {"j2", "j3"}
        assert repo.counts() == {"queued": 1, "done": 2}


class TestResults:
    def test_record_and_get_round_trip(self, repo):
        repo.record_result(
            "fp1", "route", {"which": "bnrE"}, {"quality": 42},
            telemetry={"counters": {"x": 1}}, wall_s=0.5,
        )
        record = repo.get_result("fp1")
        assert record["payload"] == {"quality": 42}
        assert record["config"] == {"which": "bnrE"}
        assert record["telemetry"] == {"counters": {"x": 1}}
        assert record["wall_s"] == 0.5

    def test_miss_is_none(self, repo):
        assert repo.get_result("absent") is None

    def test_record_is_idempotent_per_fingerprint(self, repo):
        repo.record_result("fp1", "route", {}, {"v": 1})
        repo.record_result("fp1", "route", {}, {"v": 2})
        assert repo.get_result("fp1")["payload"] == {"v": 2}
        assert len(repo.history()) == 1

    def test_wrong_schema_version_is_a_miss(self, repo):
        repo.record_result("fp1", "route", {}, {"v": 1})
        with repo._lock:
            repo._conn.execute(
                "UPDATE results SET schema_version = ?", (REPOSITORY_SCHEMA + 1,)
            )
            repo._conn.commit()
        assert repo.get_result("fp1") is None

    def test_undecodable_payload_is_a_miss(self, repo):
        repo.record_result("fp1", "route", {}, {"v": 1})
        with repo._lock:
            repo._conn.execute(
                "UPDATE results SET payload = ?", ("{not json",)
            )
            repo._conn.commit()
        assert repo.get_result("fp1") is None

    def test_history_filters_by_kind(self, repo):
        repo.record_result("fp1", "route", {}, {})
        repo.record_result("fp2", "experiment", {}, {})
        kinds = [r["kind"] for r in repo.history(kind="experiment")]
        assert kinds == ["experiment"]


class TestCorruptionRecovery:
    def test_garbage_file_is_moved_aside_and_recreated(self, tmp_path):
        db = tmp_path / "svc.sqlite"
        db.write_bytes(b"\x00\x01 this is not a database " * 10)
        repo = Repository(db)
        try:
            assert repo.get_result("anything") is None
            repo.record_result("fp1", "route", {}, {"v": 1})
            assert repo.get_result("fp1")["payload"] == {"v": 1}
        finally:
            repo.close()
        assert (tmp_path / "svc.sqlite.corrupt.0").exists()

    def test_truncated_database_recovers(self, tmp_path):
        db = tmp_path / "svc.sqlite"
        first = Repository(db)
        first.record_result("fp1", "route", {}, {"v": 1})
        first.close()
        db.write_bytes(db.read_bytes()[:100])
        repo = Repository(db)
        try:
            # Whether sqlite rejects the truncated header at open (file
            # moved aside) or only at first read, the contract holds:
            # degrade to a miss, stay writable.
            assert repo.get_result("fp1") is None
            repo.record_result("fp2", "route", {}, {"v": 2})
            assert repo.get_result("fp2")["payload"] == {"v": 2}
        finally:
            repo.close()

    def test_repeat_recovery_takes_the_next_free_name(self, tmp_path):
        db = tmp_path / "svc.sqlite"
        before = obs.get_telemetry().count("service.repository.recovered")
        garbage = [b"\x00 first garbage " * 10, b"\x00 second garbage " * 10]
        for data in garbage:
            db.write_bytes(data)
            repo = Repository(db)
            try:
                repo.record_result("fp1", "route", {}, {"v": 1})
            finally:
                repo.close()
        assert (tmp_path / "svc.sqlite.corrupt.0").read_bytes() == garbage[0]
        assert (tmp_path / "svc.sqlite.corrupt.1").read_bytes() == garbage[1]
        assert obs.get_telemetry().count("service.repository.recovered") - before == 2

    def test_undecodable_row_is_a_counted_miss(self, repo):
        repo.record_result("fp1", "route", {}, {"v": 1})
        with repo._lock:
            repo._conn.execute("UPDATE results SET payload = ?", ("{not json",))
            repo._conn.commit()
        counters = ("service.repository.corrupt_rows", "service.repository.misses")
        before = [obs.get_telemetry().count(name) for name in counters]
        assert repo.get_result("fp1") is None
        after = [obs.get_telemetry().count(name) for name in counters]
        assert [a - b for a, b in zip(after, before)] == [1, 1]

    def test_memory_database_never_recovers_silently(self):
        repo = Repository(":memory:")
        repo.record_result("fp1", "route", {}, {"v": 1})
        assert repo.get_result("fp1")["payload"] == {"v": 1}
        repo.close()


class TestBusyIsNotCorrupt:
    def test_a_locked_file_keeps_its_rows(self, tmp_path):
        db = tmp_path / "svc.sqlite"
        first = Repository(db)
        first.record_result("fp1", "route", {}, {"v": 1})
        first.close()
        holder = sqlite3.connect(db, isolation_level=None)
        try:
            holder.execute("PRAGMA locking_mode=EXCLUSIVE")
            holder.execute("BEGIN EXCLUSIVE")
            with pytest.raises(sqlite3.OperationalError, match="locked"):
                Repository(db, timeout_s=0.05)
        finally:
            holder.close()
        assert list(tmp_path.glob("*.corrupt.*")) == []
        repo = Repository(db)
        try:
            assert repo.get_result("fp1")["payload"] == {"v": 1}
        finally:
            repo.close()

    def test_a_lock_that_sqlite_does_not_wait_for_is_retried(self, tmp_path, monkeypatch):
        # Processes creating one file at once can deadlock on the switch
        # to WAL; SQLite answers "database is locked" at once instead of
        # waiting out the busy timeout, so opening retries until it ends.
        real_connect = sqlite3.connect
        errors = ["database is locked"]

        def connect(*args, **kwargs):
            if errors:
                raise sqlite3.OperationalError(errors.pop())
            return real_connect(*args, **kwargs)

        monkeypatch.setattr(sqlite3, "connect", connect)
        repo = Repository(tmp_path / "svc.sqlite")
        repo.close()
        errors.append("unable to open database file")
        with pytest.raises(sqlite3.OperationalError, match="unable to open"):
            Repository(tmp_path / "svc.sqlite")
        assert errors == []

    def test_the_repository_commits_under_synchronous_normal(self, repo):
        # NORMAL, not the result cache's FULL: a job's three or four
        # commits sit on every request's path, and WAL stays consistent.
        assert repo._conn.execute("PRAGMA journal_mode").fetchone()[0] == "wal"
        assert repo._conn.execute("PRAGMA synchronous").fetchone()[0] == 1

    def test_a_store_in_a_missing_directory_opens(self, tmp_path):
        db = tmp_path / "not" / "yet" / "svc.sqlite"
        repo = Repository(db)
        try:
            repo.record_result("fp1", "route", {}, {"v": 1})
            assert repo.get_result("fp1")["payload"] == {"v": 1}
        finally:
            repo.close()
        assert db.exists()


def _record_from_process(item):
    """Module-level pool worker (picklable under spawn)."""
    db_path, worker_id = item
    repo = Repository(db_path)
    try:
        for n in range(10):
            repo.record_result(
                "shared-fp", "route", {"worker": worker_id},
                {"worker": worker_id, "n": n},
            )
            repo.add_job(f"w{worker_id}-j{n}", "shared-fp", "route", {})
    finally:
        repo.close()
    return worker_id


class TestConcurrentAccess:
    def test_two_processes_racing_on_one_fingerprint(self, tmp_path):
        db = tmp_path / "svc.sqlite"
        ctx = multiprocessing.get_context("spawn")
        with ctx.Pool(2) as pool:
            results = pool.map(
                _record_from_process, [(str(db), 1), (str(db), 2)]
            )
        assert sorted(results) == [1, 2]
        repo = Repository(db)
        try:
            record = repo.get_result("shared-fp")
            assert record["payload"]["worker"] in (1, 2)
            assert len(repo.jobs(limit=100)) == 20  # every submission kept
            # The database itself is intact.
            check = repo._conn.execute("PRAGMA integrity_check").fetchone()[0]
            assert check == "ok"
        finally:
            repo.close()

    def test_threaded_use_through_one_instance(self, repo):
        import threading

        def work(worker_id):
            for n in range(25):
                repo.record_result(f"fp-{worker_id}-{n}", "route", {}, {"n": n})
                repo.add_job(f"j-{worker_id}-{n}", f"fp-{worker_id}-{n}", "route", {})

        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(repo.history(limit=200)) == 100
        assert repo.counts() == {"queued": 100}
