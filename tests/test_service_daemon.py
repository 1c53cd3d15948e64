"""End-to-end tests for the routing service (daemon, HTTP, CLI, viz).

Everything runs with a pool width of 1 (in-process execution) and
quick 24-wire circuits, so the whole module stays fast and
deterministic.  The acceptance scenario from the issue — two identical
submissions plus one distinct one yield exactly two executions and
three persisted job rows — is ``test_dedup_three_submissions_two_executions``.

The transport tests count instead of timing wherever they can: the
daemon's ``service.http.connections`` / ``service.http.requests``
counters say how many connections were accepted and how many requests
served, so "one persistent connection" and "one held request, not a
poll loop" are exact assertions.
"""

from __future__ import annotations

import contextlib
import http.client
import json
import math
import random
import socket
import sqlite3
import struct
import sys
import threading
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import RoutingError, ServiceError
from repro.harness.cache import ResultCache, jsonify
from repro.harness.simjobs import SimConfig, run_sim_configs
from repro.obs import telemetry as obs
from repro.service import daemon as daemon_module
from repro.service import (
    JobSpec,
    Repository,
    RoutingService,
    ServiceClient,
    execute_job,
    job_key,
    serve,
)
from repro.service.jobs import route_payload
from repro.updates import UpdateSchedule
from repro.viz import ascii_job_timeline

ROUTE_PARAMS = {"which": "bnrE", "n_wires": 24, "iterations": 1, "quick": True}


def quick_route_params(**overrides):
    params = dict(ROUTE_PARAMS)
    params.update(overrides)
    return params


def tiny_mp_params():
    return {
        "which": "bnrE",
        "n_wires": 24,
        "iterations": 1,
        "n_procs": 4,
        "send_rmt": 2,
        "send_loc": 10,
    }


def counter(name):
    return obs.snapshot()["counters"].get(name, 0)


def executed_count():
    return counter("service.jobs.executed")


def connections():
    return counter("service.http.connections")


def requests():
    return counter("service.http.requests")


def wait_until(predicate, timeout_s=10.0):
    deadline = time.monotonic() + timeout_s
    while not predicate():
        assert time.monotonic() < deadline, "condition not reached in time"
        time.sleep(0.002)


@pytest.fixture
def failing_router(monkeypatch):
    """Route jobs fail inside the worker.  Submission bounds leave no
    in-range parameter the router itself rejects, so the failure is
    injected: the pool runs width-1 jobs in this process."""

    class FailingRouter:
        def __init__(self, circuit, iterations):
            pass

        def run(self):
            raise RoutingError("router failed in iteration 1")

    monkeypatch.setattr("repro.service.jobs.SequentialRouter", FailingRouter)


@pytest.fixture
def service(tmp_path):
    svc = RoutingService(
        Repository(tmp_path / "svc.sqlite"),
        cache=ResultCache(tmp_path / "cache"),
        jobs=1,
        paused=True,
    )
    yield svc
    svc.stop()
    svc.repository.close()


class TestDedup:
    def test_dedup_three_submissions_two_executions(self, service):
        """The issue's acceptance scenario, against a paused queue."""
        before = executed_count()
        a = service.submit("route", quick_route_params())
        b = service.submit("route", quick_route_params())  # identical
        c = service.submit("route", quick_route_params(iterations=2))  # distinct
        assert b["dedup_of"] == a["job_id"]
        assert "dedup_of" not in c
        assert a["fingerprint"] == b["fingerprint"] != c["fingerprint"]

        service.start()
        assert service.drain(timeout_s=60)
        assert executed_count() - before == 2
        assert service.repository.counts() == {"done": 3}

        rows = [service.result(r["job_id"]) for r in (a, b, c)]
        for stored, state in rows:
            assert state == "done"
        assert rows[0][0]["payload"] == rows[1][0]["payload"]
        assert rows[0][0]["fingerprint"] != rows[2][0]["fingerprint"]

        # The dedup'd row kept its own audit trail.
        follower = service.status(b["job_id"])
        assert follower["source"] == "dedup"
        assert follower["dedup_of"] == a["job_id"]

    def test_service_result_matches_direct_execution(self, service):
        record = service.submit("route", quick_route_params())
        service.start()
        assert service.drain(timeout_s=60)
        stored, state = service.result(record["job_id"])
        assert state == "done"
        direct = execute_job(JobSpec.from_params("route", quick_route_params()))
        assert stored["payload"] == direct

    def test_repository_hit_skips_execution(self, service):
        first = service.submit("route", quick_route_params())
        service.start()
        assert service.drain(timeout_s=60)
        before = executed_count()
        again = service.submit("route", quick_route_params())
        assert again["status"] == "done"
        assert executed_count() == before
        assert service.status(again["job_id"])["source"] == "repository"
        assert (
            service.result(again["job_id"])[0]["payload"]
            == service.result(first["job_id"])[0]["payload"]
        )

    def test_force_reexecutes_a_stored_fingerprint(self, service):
        service.start()
        service.submit("route", quick_route_params())
        assert service.drain(timeout_s=60)
        before = executed_count()
        forced = service.submit("route", quick_route_params(), force=True)
        assert forced["status"] == "queued"
        assert service.drain(timeout_s=60)
        assert executed_count() - before == 1

    def test_file_cache_read_through(self, service):
        """A repository miss is executed, and the execution reads through a
        warm file cache: no simulation, the warm row's payload."""
        config = SimConfig(
            kind="mp",
            which="bnrE",
            n_wires=24,
            schedule=UpdateSchedule(send_rmt_every=2, send_loc_every=10),
            n_procs=4,
            iterations=1,
        )
        warm = run_sim_configs([config], cache=service.cache)[0]  # warm the file cache
        runs = counter("sim.mp.runs")
        record = service.submit("mp", tiny_mp_params())
        assert record["status"] == "queued"
        service.start()
        assert service.drain(timeout_s=60)
        assert counter("sim.mp.runs") == runs
        assert service.status(record["job_id"])["source"] == "executed"
        stored, state = service.result(record["job_id"])
        assert state == "done"
        assert stored["payload"] == jsonify({"kind": "mp", **warm.summary_dict()})

    def test_unknown_kind_rejected(self, service):
        with pytest.raises(ServiceError, match="unknown job kind"):
            service.submit("teleport", {})

    def test_unknown_parameter_rejected(self, service):
        with pytest.raises(ServiceError, match="unknown parameter"):
            service.submit("route", {"wires": 24})

    def test_runtime_failure_becomes_failed_row(self, service, failing_router):
        record = service.submit("route", quick_route_params())
        service.start()
        assert service.drain(timeout_s=60)
        stored, state = service.result(record["job_id"])
        assert stored is None and state == "failed"
        job = service.status(record["job_id"])
        assert job["status"] == "failed"
        assert "iteration" in job["error"]

    def test_failed_fingerprint_is_not_cached(self, service, failing_router):
        service.start()
        service.submit("route", quick_route_params())
        assert service.drain(timeout_s=60)
        again = service.submit("route", quick_route_params())
        assert again["status"] == "queued"  # no done-result to dedup against


def leave_rows_of_a_killed_daemon(db, spec):
    """A ``running`` primary and its ``queued`` follower, as a daemon
    killed mid-run leaves them, plus a row the current code fingerprints
    differently."""
    fingerprint = job_key(spec)
    killed = Repository(db)
    killed.add_job("primary", fingerprint, "route", spec.params)
    killed.set_status("primary", "running")
    killed.add_job(
        "follower", fingerprint, "route", spec.params,
        source="dedup", dedup_of="primary",
    )
    killed.add_job("stale", "0" * len(fingerprint), "route", spec.params)
    killed.close()


class TestRestart:
    def test_a_killed_daemons_rows_are_readopted(self, tmp_path):
        """The primary and its follower finish under a new daemon on the
        same file with one execution; the stale row fails, saying why."""
        db = tmp_path / "svc.sqlite"
        spec = JobSpec.from_params("route", quick_route_params())
        leave_rows_of_a_killed_daemon(db, spec)

        before = executed_count()
        svc = RoutingService(Repository(db), jobs=1)
        try:
            assert svc.drain(timeout_s=60)
            assert executed_count() - before == 1
            direct = execute_job(spec)
            for job_id in ("primary", "follower"):
                stored, state = svc.result(job_id)
                assert state == "done" and stored["payload"] == direct, job_id
            stale = svc.status("stale")
            assert stale["status"] == "failed"
            assert "code changed since submission" in stale["error"]
        finally:
            svc.stop()
            svc.repository.close()

    def test_a_stored_result_finishes_a_readopted_row_unexecuted(self, tmp_path):
        """Killed between recording the result and finishing the rows: the
        rows are ``done`` at once and nothing runs again."""
        db = tmp_path / "svc.sqlite"
        spec = JobSpec.from_params("route", quick_route_params())
        leave_rows_of_a_killed_daemon(db, spec)
        repo = Repository(db)
        repo.record_result(
            job_key(spec), "route", spec.params, jsonify(execute_job(spec))
        )

        before = executed_count()
        svc = RoutingService(repo, jobs=1, paused=True)
        try:
            assert svc.stats()["queue_depth"] == 0
            for job_id in ("primary", "follower"):
                assert svc.result(job_id)[1] == "done", job_id
            assert executed_count() == before
        finally:
            svc.stop()
            repo.close()

    def test_a_second_daemon_on_the_file_is_refused(self, tmp_path):
        """The second daemon neither starts nor takes over the running
        daemon's ``running`` row; once the first stops, the file is free."""
        db = tmp_path / "svc.sqlite"
        first = RoutingService(Repository(db), jobs=1, paused=True)
        second_repo = Repository(db)
        try:
            record = first.submit("route", quick_route_params())
            first.repository.set_status(record["job_id"], "running")
            with pytest.raises(ServiceError, match="another daemon"):
                RoutingService(second_repo, jobs=1, paused=True)
            assert second_repo.get_job(record["job_id"])["status"] == "running"
            assert first.stats()["inflight"] == 1
        finally:
            first.stop()
            first.repository.close()
        third = RoutingService(second_repo, jobs=1, paused=True)
        third.stop()
        second_repo.close()

    def test_serve_refuses_a_served_file(self, tmp_path):
        db = str(tmp_path / "svc.sqlite")
        with running_server(tmp_path, paused=True):
            with pytest.raises(ServiceError, match="another daemon"):
                daemon_module.serve(port=0, db=db, cache_dir=None)

    def test_an_unopenable_repository_is_a_service_error(self, tmp_path):
        """A database SQLite cannot open (here: a directory) is not moved
        aside as corrupt: it is a ServiceError, which ``serve`` prints as
        one ``error:`` line with exit code 2."""
        (tmp_path / "db").mkdir()
        with pytest.raises(ServiceError, match="cannot open repository .*unable to open"):
            daemon_module.serve(port=0, db=str(tmp_path / "db"), cache_dir=None)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["db"]

    def test_a_taken_port_gives_the_file_back(self, tmp_path):
        """A daemon that cannot listen is a one-line error and releases
        its database, so the next one on the file starts."""
        db = str(tmp_path / "other.sqlite")
        with running_server(tmp_path, paused=True) as srv:
            port = srv.server_address[1]
            with pytest.raises(ServiceError, match=f"cannot listen on 127.0.0.1:{port}"):
                daemon_module.serve(port=port, db=db, cache_dir=None)
        repo = Repository(db)
        RoutingService(repo, paused=True).stop()
        repo.close()


class TestJobParameters:
    """What each job kind accepts, with its defaults: the service's own
    schema, which the ``jobs submit`` command line is a loop over."""

    ACCEPTED = {
        "route": {"which": "bnrE", "n_wires": None, "quick": False, "iterations": 3},
        "mp": {
            "which": "bnrE", "n_wires": None, "quick": False, "iterations": 3,
            "n_procs": 16, "send_loc": None, "send_rmt": None, "req_loc": None,
            "req_rmt": None, "blocking": False,
        },
        "sm": {
            "which": "bnrE", "n_wires": None, "quick": False, "iterations": 3,
            "n_procs": 16, "line_size": 8, "protocol": "invalidate",
        },
        "experiment": {"exp_id": "T6", "quick": False},
    }
    #: names the command line knows that no job kind takes
    NEVER = (
        "name", "wires", "procs", "packet_structure", "interrupts",
        "check_invariants", "line_sizes", "timeout", "jobs", "cache_dir",
    )

    @pytest.mark.parametrize("kind", sorted(ACCEPTED))
    def test_defaults_are_filled_for_exactly_the_accepted_names(self, kind):
        required = {"exp_id": "t6"} if kind == "experiment" else {}
        assert JobSpec.from_params(kind, required).params == self.ACCEPTED[kind]

    @pytest.mark.parametrize("kind", sorted(ACCEPTED))
    def test_every_other_name_is_rejected(self, kind):
        required = {"exp_id": "t6"} if kind == "experiment" else {}
        others = {n for names in self.ACCEPTED.values() for n in names} | set(self.NEVER)
        for name in sorted(others - set(self.ACCEPTED[kind])):
            with pytest.raises(ServiceError, match="unknown parameter"):
                JobSpec.from_params(kind, {**required, name: 1})

    @pytest.mark.parametrize(
        "kind, name, value",
        [
            ("sm", "line_size", "x"),
            ("sm", "n_procs", True),
            ("sm", "protocol", 1),
            ("mp", "send_loc", "10"),
            ("mp", "blocking", "no"),
            ("route", "n_wires", 24.0),
            ("route", "quick", 1),
            ("experiment", "exp_id", 1),
        ],
    )
    def test_a_value_of_the_wrong_json_type_is_refused_by_name(self, kind, name, value):
        required = {"exp_id": "t6"} if kind == "experiment" else {}
        with pytest.raises(ServiceError, match=f"parameter '{name}' of {kind} jobs must be"):
            JobSpec.from_params(kind, {**required, name: value})

    @pytest.mark.parametrize(
        "kind, name, value",
        [
            ("route", "n_wires", 10**9),
            ("route", "n_wires", -5),
            ("mp", "n_procs", 0),
            ("sm", "n_procs", 200),
            ("route", "iterations", 0),
            ("sm", "line_size", 3),
            ("mp", "send_loc", 10**30),
            ("mp", "req_rmt", 1_000_001),
        ],
    )
    def test_an_out_of_range_integer_is_refused_by_name(self, kind, name, value):
        with pytest.raises(ServiceError, match=f"parameter '{name}' of {kind} jobs must be"):
            JobSpec.from_params(kind, {name: value})

    def test_the_bounds_admit_their_edges(self):
        assert JobSpec.from_params("route", {"n_wires": 100_000, "iterations": 10})
        assert JobSpec.from_params("sm", {"n_wires": 1, "n_procs": 63, "line_size": 4})
        assert JobSpec.from_params("mp", {"n_procs": 1, "iterations": 1})
        assert JobSpec.from_params(
            "mp",
            {name: 1_000_000 for name in ("send_loc", "send_rmt", "req_loc", "req_rmt")},
        )

    def test_cli_flags_reach_the_parameter_they_name(self):
        from repro.cli import _jobs_submit_params, build_parser

        def params(*argv):
            return _jobs_submit_params(build_parser().parse_args(["jobs", "submit", *argv]))

        assert params("route") == {}
        assert params(
            "mp", "--name", "MDC", "--wires", "24", "--procs", "4", "--iterations", "2",
            "--quick", "--send-loc", "5", "--send-rmt", "2", "--req-loc", "1",
            "--req-rmt", "3", "--blocking", "--line-size", "16", "--exp-id", "T1",
        ) == {
            "which": "MDC", "n_wires": 24, "n_procs": 4, "iterations": 2, "quick": True,
            "send_loc": 5, "send_rmt": 2, "req_loc": 1, "req_rmt": 3, "blocking": True,
        }
        assert params("sm", "--procs", "4", "--line-size", "16", "--protocol", "update") == {
            "n_procs": 4, "line_size": 16, "protocol": "update",
        }
        assert params("route", "--procs", "4", "--wires", "24") == {"n_wires": 24}
        assert params("experiment", "--exp-id", "T1", "--quick", "--wires", "9") == {
            "exp_id": "T1", "quick": True,
        }


@contextlib.contextmanager
def running_server(tmp_path, port=0, paused=False):
    """A daemon serving on a thread; torn down completely on exit."""
    srv = serve(
        port=port,
        db=str(tmp_path / "svc.sqlite"),
        cache_dir=str(tmp_path / "cache"),
        jobs=1,
        paused=paused,
    )
    thread = threading.Thread(
        target=srv.serve_forever, kwargs={"poll_interval": 0.02}, daemon=True
    )
    thread.start()
    try:
        yield srv
    finally:
        srv.shutdown()
        thread.join(timeout=10)
        srv.service.stop()
        srv.service.repository.close()
        srv.server_close()


def client_of(srv, **kwargs):
    return ServiceClient(f"http://127.0.0.1:{srv.server_address[1]}", **kwargs)


@pytest.fixture
def server(tmp_path):
    with running_server(tmp_path) as srv:
        yield srv


@pytest.fixture
def client(server):
    return client_of(server)


@pytest.fixture
def paused_server(tmp_path):
    with running_server(tmp_path, paused=True) as srv:
        yield srv


class TestHTTP:
    def test_health_and_stats(self, client):
        assert client.health() == {"ok": True}
        stats = client.stats()
        assert stats["pool_jobs"] == 1
        assert "queue_depth" in stats and "repository" in stats

    def test_stats_count_materialised_wires(self, client):
        obs.incr("circuits.wires_materialised", 3)
        assert client.stats()["counters"]["circuits.wires_materialised"] >= 3

    def test_stats_count_geometry_preparation(self, client):
        # One table build per prepared circuit, covering all its wires —
        # never one per wire.  (27 wires: a circuit no other test has made,
        # since the harness memoises named circuits and their tables.)
        before = client.stats()["counters"]
        record = client.submit("mp", dict(tiny_mp_params(), n_wires=27))
        assert client.wait(record["job_id"], timeout_s=60)["status"] == "done"
        after = client.stats()["counters"]
        moved = {
            name: after.get(name, 0) - before.get(name, 0)
            for name in ("route.geometry_builds", "route.geometry_wires")
        }
        assert moved == {"route.geometry_builds": 1, "route.geometry_wires": 27}

    def test_submit_wait_result_round_trip(self, client):
        record = client.submit("route", quick_route_params())
        finished = client.wait(record["job_id"], timeout_s=60)
        assert finished["status"] == "done"
        result = client.result(record["job_id"])
        assert result["status"] == "done"
        direct = execute_job(JobSpec.from_params("route", quick_route_params()))
        assert result["payload"] == direct

    def test_dedup_over_http(self, client):
        a = client.submit("route", quick_route_params(iterations=2))
        b = client.submit("route", quick_route_params(iterations=2))
        if b.get("status") != "done":  # a may already have finished
            assert b.get("dedup_of") == a["job_id"] or b["status"] == "done"
        client.wait(a["job_id"], timeout_s=60)
        client.wait(b["job_id"], timeout_s=60)
        assert (
            client.result(a["job_id"])["payload"]
            == client.result(b["job_id"])["payload"]
        )

    def test_bad_kind_is_a_400(self, client):
        with pytest.raises(ServiceError, match="unknown job kind"):
            client.submit("teleport", {})

    def test_unknown_job_is_a_404(self, client):
        with pytest.raises(ServiceError, match="unknown job"):
            client.status("nope")
        with pytest.raises(ServiceError, match="unknown job"):
            client.result("nope")

    def test_list_jobs_reflects_history(self, client):
        record = client.submit("route", quick_route_params())
        client.wait(record["job_id"], timeout_s=60)
        jobs = client.list_jobs()
        assert any(j["job_id"] == record["job_id"] for j in jobs)
        assert client.list_jobs(status="failed") == []

    def test_unreachable_service_raises(self):
        bad = ServiceClient("http://127.0.0.1:9", timeout_s=0.5)
        with pytest.raises(ServiceError, match="cannot reach"):
            bad.health()


class TestConnections:
    """One persistent connection per client thread; one retry when a kept
    connection turns out to be dead; one TCP write per response."""

    def test_one_thread_uses_one_connection(self, client):
        before = connections(), requests()
        record = client.submit("route", quick_route_params())  # 1
        client.wait(record["job_id"], timeout_s=60)  # 2
        for _ in range(3):  # 3..14
            client.health()
            client.stats()
            client.status(record["job_id"])
            client.result(record["job_id"])
        client.list_jobs()  # 15
        client.list_jobs(status="failed", limit=5)  # 16
        client.submit("route", quick_route_params())  # 17: a repository hit
        with pytest.raises(ServiceError):  # 18: a 400 keeps the connection
            client.submit("teleport", {})
        with pytest.raises(ServiceError):  # 19: so does a 404
            client.status("nope")
        client.health()  # 20
        assert connections() - before[0] == 1
        assert requests() - before[1] == 20

    def test_threads_sharing_a_client_get_their_own_connection(self, client):
        before = connections()
        problems = []
        barrier = threading.Barrier(2)

        def worker(iterations):
            try:
                barrier.wait(timeout=10)
                mine = client.submit("route", quick_route_params(iterations=iterations))
                client.wait(mine["job_id"], timeout_s=60)
                for _ in range(40):
                    assert client.status(mine["job_id"])["job_id"] == mine["job_id"]
                    result = client.result(mine["job_id"])
                    assert result["fingerprint"] == mine["fingerprint"]
            except Exception as exc:  # reported on the main thread
                problems.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in (1, 2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
        assert problems == []
        assert connections() - before == 2

    def test_responses_are_not_held_by_nagle(self, client):
        """Headers and body written apart stall ~40 ms per request on a
        kept connection (Nagle against the client's delayed ACK): 50
        requests took 2.2 s on the stock handler, ~25 ms on this one."""
        client.health()
        before = connections()
        start = time.monotonic()
        for _ in range(50):
            client.health()
        assert time.monotonic() - start < 1.0
        assert connections() == before

    def test_restarted_daemon_is_reached_on_the_one_retry(self, tmp_path):
        with running_server(tmp_path) as first:
            port = first.server_address[1]
            client = client_of(first)
            assert client.health() == {"ok": True}
        with running_server(tmp_path, port=port):
            before = connections()
            assert client.health() == {"ok": True}
            assert connections() - before == 1
        with running_server(tmp_path, port=port):
            # A POST is retried too: a repeat would be deduplicated.
            record = client.submit("route", quick_route_params())
            assert client.wait(record["job_id"], timeout_s=60)["status"] == "done"

    def test_unreachable_daemon_is_one_attempt(self, tmp_path, monkeypatch):
        attempts = []
        connect = ServiceClient._connect

        def counting_connect(self):
            attempts.append(self._address)
            return connect(self)

        monkeypatch.setattr(ServiceClient, "_connect", counting_connect)
        with running_server(tmp_path) as srv:
            client = client_of(srv, timeout_s=2.0)
            client.health()
        assert len(attempts) == 1
        # The kept connection is dead: one retry, which is refused.
        with pytest.raises(ServiceError, match="cannot reach"):
            client.health()
        assert len(attempts) == 2
        # Nothing kept: one attempt, no retry.
        with pytest.raises(ServiceError, match="cannot reach"):
            client.health()
        assert len(attempts) == 3

    def test_idle_connection_is_closed_and_reopened(self, tmp_path, monkeypatch):
        monkeypatch.setattr(daemon_module._Handler, "timeout", 0.05)
        with running_server(tmp_path) as srv:
            client = client_of(srv)
            before = connections()
            client.health()
            wait_until(lambda: not srv.connections)  # the handler thread let go
            assert client.health() == {"ok": True}
            assert connections() - before == 2

    def test_vanished_client_is_not_a_traceback(self, paused_server, capsys):
        client = client_of(paused_server)
        record = client.submit("route", quick_route_params())
        before = requests()
        sock = socket.create_connection(("127.0.0.1", paused_server.server_address[1]))
        sock.sendall(
            b"GET /jobs/%s?wait=10 HTTP/1.1\r\nHost: x\r\n\r\n"
            % record["job_id"].encode()
        )
        wait_until(lambda: requests() > before)
        # Linger 0: close() sends a reset, as a killed client's kernel would.
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        sock.close()
        paused_server.service.stop()  # ends the hold; the reply has nowhere to go
        wait_until(lambda: len(paused_server.connections) == 1)  # the client's own
        assert capsys.readouterr().err == ""

    def test_bad_url_is_refused_at_construction(self):
        for url in ("127.0.0.1:8642", "ftp://127.0.0.1", "http://"):
            with pytest.raises(ServiceError, match="service URL"):
                ServiceClient(url)

    def test_https_wraps_the_socket_with_tls(self, server, capsys):
        """An ``https://`` client speaks TLS first: against this plain-HTTP
        daemon the handshake fails, as a ServiceError."""
        secure = ServiceClient(f"https://127.0.0.1:{server.server_address[1]}", timeout_s=5)
        with pytest.raises(ServiceError, match="cannot reach.*SSL"):
            secure.health()
        assert client_of(server).health() == {"ok": True}
        assert "Traceback" not in capsys.readouterr().err

    def test_base_url_path_prefix_is_kept(self, server):
        prefixed = ServiceClient(f"http://127.0.0.1:{server.server_address[1]}/api/")
        with pytest.raises(ServiceError, match="no such endpoint '/api/health'"):
            prefixed.health()


class TestHeldWait:
    """``?wait=``: the daemon answers when the job finishes; nobody polls."""

    def _wait_in_thread(self, client, job_id, **kwargs):
        """Start ``client.wait`` on a thread; returns (thread, outcome list)
        once the daemon has the held request."""
        before = requests()
        outcome = []

        def run():
            try:
                outcome.append(client.wait(job_id, **kwargs))
            except ServiceError as exc:
                outcome.append(exc)

        thread = threading.Thread(target=run)
        thread.start()
        wait_until(lambda: requests() > before)
        return thread, outcome

    def _finished(self, thread, outcome):
        thread.join(timeout=60)
        assert not thread.is_alive()
        return outcome[0]

    def test_wait_is_one_request_answered_at_completion(self, paused_server):
        client = client_of(paused_server)
        before = requests()
        record = client.submit("route", quick_route_params())
        thread, outcome = self._wait_in_thread(client, record["job_id"], timeout_s=60)
        assert outcome == []  # held: the job cannot finish while paused
        paused_server.service.start()
        assert self._finished(thread, outcome)["status"] == "done"
        assert requests() - before == 2  # the submit and ONE status request

    def test_follower_wakes_with_its_primary(self, paused_server):
        client = client_of(paused_server)
        primary = client.submit("route", quick_route_params())
        follower = client.submit("route", quick_route_params())
        assert follower["dedup_of"] == primary["job_id"]
        before = requests()
        thread, outcome = self._wait_in_thread(client, follower["job_id"], timeout_s=60)
        paused_server.service.start()
        finished = self._finished(thread, outcome)
        assert finished["status"] == "done" and finished["source"] == "dedup"
        assert requests() - before == 1

    def test_failed_job_wakes_its_waiter_with_the_error(self, paused_server, failing_router):
        client = client_of(paused_server)
        record = client.submit("route", quick_route_params())
        before = requests()
        thread, outcome = self._wait_in_thread(client, record["job_id"], timeout_s=60)
        paused_server.service.start()
        finished = self._finished(thread, outcome)
        assert finished["status"] == "failed" and "iteration" in finished["error"]
        assert requests() - before == 1

    def test_wait_times_out_naming_the_last_status(self, paused_server):
        client = client_of(paused_server)
        record = client.submit("route", quick_route_params())
        before = requests()
        start = time.monotonic()
        with pytest.raises(ServiceError, match="still queued after 0.3s"):
            client.wait(record["job_id"], timeout_s=0.3)
        assert 0.25 <= time.monotonic() - start < 1.5
        assert requests() - before == 1  # held for the whole 0.3 s, not polled

    def test_unknown_job_is_answered_at_once(self, paused_server):
        client = client_of(paused_server)
        start = time.monotonic()
        with pytest.raises(ServiceError, match="unknown job"):
            client.wait("nope", timeout_s=10)
        with pytest.raises(ServiceError, match="unknown job"):
            client._request("/jobs/nope/result?wait=10")
        assert time.monotonic() - start < 1.0

    def test_stop_releases_held_waits(self, paused_server):
        client = client_of(paused_server)
        record = client.submit("route", quick_route_params())
        path = f"/jobs/{record['job_id']}?wait=10"
        before = requests()
        outcome = []
        thread = threading.Thread(target=lambda: outcome.append(client._request(path)))
        thread.start()
        wait_until(lambda: requests() > before)
        start = time.monotonic()
        paused_server.service.stop()
        thread.join(timeout=10)
        assert time.monotonic() - start < 1.0
        assert outcome[0]["status"] == "queued"  # the current record, not an error

    def test_held_answers_equal_unheld_ones(self, client):
        record = client.submit("route", quick_route_params())
        job = f"/jobs/{record['job_id']}"
        # The result route holds too: one request from queued to payload.
        held = client._request(f"{job}/result?wait=30")
        assert held == client.result(record["job_id"])
        assert client._request(f"{job}?wait=5") == client.status(record["job_id"])

    def test_pending_result_is_still_a_409_after_its_hold(self, paused_server):
        client = client_of(paused_server)
        record = client.submit("route", quick_route_params())
        start = time.monotonic()
        pending = client._request(
            f"/jobs/{record['job_id']}/result?wait=0.2", ok_statuses=(409,)
        )
        assert pending == {"status": "pending"}
        assert time.monotonic() - start >= 0.2

    def test_hold_is_clamped_by_the_daemon(self, paused_server, monkeypatch):
        monkeypatch.setattr(daemon_module, "MAX_WAIT_S", 0.1)
        client = client_of(paused_server)
        record = client.submit("route", quick_route_params())
        start = time.monotonic()
        assert client._request(f"/jobs/{record['job_id']}?wait=10")["status"] == "queued"
        assert time.monotonic() - start < 1.0

    def test_daemon_that_does_not_hold_is_polled_every_poll_s(
        self, paused_server, monkeypatch
    ):
        monkeypatch.setattr(daemon_module, "MAX_WAIT_S", 0.0)  # as one without ?wait=
        client = client_of(paused_server)
        record = client.submit("route", quick_route_params())
        before = requests()
        with pytest.raises(ServiceError, match="still queued"):
            client.wait(record["job_id"], timeout_s=0.3, poll_s=0.05)
        assert 3 <= requests() - before <= 8

    def test_status_hold_has_no_lost_wakeup(self, service):
        """A job finished at a random instant around the waiter's row read
        always wakes it: no hold runs to expiry on a finished job."""
        rng = random.Random(18)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for round_ in range(250):
                job_id, fingerprint = f"job{round_}", f"fp{round_}"
                service.repository.add_job(job_id, fingerprint, "route", {})
                delay = rng.uniform(0.0, 4e-4)

                def finish():
                    time.sleep(delay)
                    service._finish(job_id, fingerprint, "done")

                finisher = threading.Thread(target=finish)
                start = time.monotonic()
                finisher.start()
                record = service.status(job_id, wait_s=10.0)
                elapsed = time.monotonic() - start
                finisher.join(timeout=10)
                assert not finisher.is_alive()
                assert record["status"] == "done", round_
                assert elapsed < 5.0, (round_, delay, elapsed)
        finally:
            sys.setswitchinterval(interval)

    def test_drain_wakes_on_the_last_finish(self, service):
        service.submit("route", quick_route_params())
        assert not service.drain(timeout_s=0.05)  # paused: still in flight
        service.start()
        assert service.drain(timeout_s=60)
        assert service.drain(timeout_s=0)  # nothing in flight: at once


class TestMalformedInput:
    """Bad numbers are 400s and oversized bodies 413s, never a traceback
    and a dropped connection; an unread body closes the connection."""

    def _exchange(self, connection, method, path, headers=None, body=None):
        connection.putrequest(method, path)
        for name, value in (headers or {}).items():
            connection.putheader(name, value)
        connection.endheaders(body)
        response = connection.getresponse()
        return response.status, response.getheader("Connection"), json.loads(response.read())

    @pytest.fixture
    def raw(self, server):
        connection = http.client.HTTPConnection(
            "127.0.0.1", server.server_address[1], timeout=10
        )
        yield connection
        connection.close()

    @pytest.mark.parametrize(
        "path",
        [
            "/jobs?limit=abc",
            "/jobs?limit=-1",
            "/jobs?limit=1.5",
            "/jobs/x?wait=soon",
            "/jobs/x?wait=-1",
            "/jobs/x?wait=nan",
            "/jobs/x?wait=inf",
            "/jobs/x/result?wait=",
        ],
    )
    def test_bad_query_number_is_a_400(self, raw, path):
        before = connections()
        status, connection, payload = self._exchange(raw, "GET", path)
        assert status == 400 and "must be a non-negative number" in payload["error"]
        # Nothing was left unread, so the connection serves the next request.
        assert connection is None
        assert self._exchange(raw, "GET", "/health")[0] == 200
        assert connections() - before == 1

    def test_bad_query_number_through_the_client(self, client):
        with pytest.raises(ServiceError, match="limit must be a non-negative number"):
            client.list_jobs(limit="abc")
        assert client.health() == {"ok": True}

    @pytest.mark.parametrize(
        "body, named",
        [
            ({"kind": "sm", "params": {"line_size": "x"}}, "line_size"),
            ({"kind": "mp", "params": {"send_loc": "10"}}, "send_loc"),
            ({"kind": "mp", "params": {"blocking": "no", "req_rmt": 5}}, "blocking"),
            ({"kind": "route", "params": [24]}, "parameters"),
            ({"kind": "sm", "params": {"protocol": "bogus"}}, "protocol"),
        ],
    )
    def test_wrong_typed_job_is_a_400_on_a_live_connection(self, raw, capsys, body, named):
        status, connection, payload = self._exchange(
            raw, "POST", "/jobs", {"Content-Length": str(len(json.dumps(body)))},
            json.dumps(body).encode(),
        )
        assert status == 400 and named in payload["error"]
        assert connection is None  # the body was read: the connection stays
        assert self._exchange(raw, "GET", "/health")[0] == 200
        assert "Traceback" not in capsys.readouterr().err

    def test_huge_limit_is_the_whole_history(self, raw):
        status, _, payload = self._exchange(raw, "GET", "/jobs?limit=" + "9" * 30)
        assert status == 200 and payload == {"jobs": []}

    def test_bad_content_length_is_a_400_and_closes(self, raw):
        status, connection, payload = self._exchange(
            raw, "POST", "/jobs", {"Content-Length": "zz"}
        )
        assert status == 400 and "Content-Length" in payload["error"]
        assert connection == "close"
        assert self._exchange(raw, "GET", "/health")[0] == 200  # reconnects

    def test_oversized_body_is_a_413_unread(self, raw):
        declared = str(daemon_module.MAX_BODY_BYTES + 1)
        start = time.monotonic()
        status, connection, payload = self._exchange(
            raw, "POST", "/jobs", {"Content-Length": declared}  # and no body sent
        )
        assert status == 413 and declared in payload["error"]
        assert connection == "close"
        assert time.monotonic() - start < 1.0  # answered without waiting for it
        assert self._exchange(raw, "GET", "/health")[0] == 200

    def test_oversized_submission_through_the_client(self, client):
        with pytest.raises(ServiceError):
            client.submit("route", {"which": "x" * (2 * daemon_module.MAX_BODY_BYTES)})
        assert client.health() == {"ok": True}

    SMUGGLED = b"GET /stats HTTP/1.1\r\nHost: x\r\n\r\n"

    @pytest.mark.parametrize(
        "head, answer",
        [
            (b"POST /nope HTTP/1.1\r\nContent-Length: %d" % len(SMUGGLED), b"404"),
            (b"GET /health HTTP/1.1\r\nContent-Length: %d" % len(SMUGGLED), b"200"),
            (b"POST /jobs HTTP/1.1\r\nTransfer-Encoding: chunked", b"400"),
        ],
    )
    def test_unread_body_is_never_the_next_request(self, server, head, answer):
        """A body the daemon did not read must not be served as a request
        of its own: the reply says ``Connection: close`` and means it."""
        address = ("127.0.0.1", server.server_address[1])
        with socket.create_connection(address, timeout=10) as sock:
            sock.sendall(head + b"\r\nHost: x\r\n\r\n" + self.SMUGGLED)
            received = b""
            with contextlib.suppress(ConnectionResetError):
                while chunk := sock.recv(65536):
                    received += chunk
        assert received.count(b"HTTP/1.1 ") == 1
        assert received.startswith(b"HTTP/1.1 " + answer)
        assert b"Connection: close" in received and b"queue_depth" not in received


def answers(received):
    """(status, headers, JSON body) of each final answer in *received*,
    framed by ``Content-Length``; interim ``100 Continue`` heads skipped."""
    found = []
    while received:
        head, blank, rest = received.partition(b"\r\n\r\n")
        assert blank, received
        status_line, *fields = head.decode("latin-1").split("\r\n")
        version, status, _ = status_line.split(" ", 2)
        assert version == "HTTP/1.1", status_line
        headers = {n.lower(): v.strip() for n, _, v in (f.partition(":") for f in fields)}
        length = 0 if status == "100" else int(headers["content-length"])
        if status != "100":
            found.append((int(status), headers, json.loads(rest[:length])))
        received = rest[length:]
    return found


def talk(port, raw):
    """Send *raw* on a new connection, half-close it and read everything
    the daemon answers before it closes."""
    received = b""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        with contextlib.suppress(OSError):  # it closed before reading everything
            sock.sendall(raw)
            sock.shutdown(socket.SHUT_WR)
        with contextlib.suppress(ConnectionResetError):  # it closed on unread bytes
            while chunk := sock.recv(65536):
                received += chunk
    return answers(received)


class TestRequestHead:
    """The stdlib's request rules, kept under the service's own head
    reader, and what it refuses besides; every refusal is JSON."""

    @pytest.mark.parametrize(
        "raw, status, message",
        [
            (b"GET /health HTTP/1.1 x\r\n\r\n", 400, "bad request line"),
            (b"GET /health\r\n\r\n", 400, "bad request line"),
            (b"GET /health HTTP/1\r\n\r\n", 400, "bad request line"),
            (b"GET /health HTTP/2.0\r\n\r\n", 505, "HTTP/2.0 is not supported"),
            (b"GET /health HTTP/0.9\r\n\r\n", 505, "HTTP/0.9 is not supported"),
            (b"GET /health HTTP/1.1\r\nX: " + b"v" * 65536 + b"\r\n\r\n", 431, "longer than"),
            (
                b"GET /health HTTP/1.1\r\n" + b"".join(b"X-%d: v\r\n" % i for i in range(101))
                + b"\r\n",
                431, "more than 100 header fields",
            ),
            (
                b"POST /jobs HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\n{}",
                400, "repeated Content-Length",
            ),
            (b"POST /jobs HTTP/1.1\r\nContent-Length: 2, 2\r\n\r\n{}", 400, "Content-Length"),
            (b"GET /health HTTP/1.1\r\nX-A: 1\r\n folded\r\n\r\n", 400, "folded"),
            (b"PUT /jobs HTTP/1.1\r\n\r\n", 404, "no such endpoint PUT '/jobs'"),
            (b"GET http://[x/health HTTP/1.1\r\n\r\n", 400, "bad request target"),
        ],
    )
    def test_a_refused_head_is_one_json_answer_and_a_close(self, server, raw, status, message):
        ((code, headers, body),) = talk(server.server_address[1], raw)
        assert code == status and message in body["error"]
        assert headers["connection"] == "close"

    def test_a_doubled_slash_is_one(self, server):
        ((code, _, body),) = talk(server.server_address[1], b"GET //health HTTP/1.1\r\n\r\n")
        assert (code, body) == (200, {"ok": True})

    def test_http_1_0_closes_unless_it_keeps_alive(self, server):
        port = server.server_address[1]
        twice = b"GET /health HTTP/1.0\r\n\r\n" * 2
        assert len(talk(port, twice)) == 1  # closed after the first answer
        kept = b"GET /health HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"
        assert len(talk(port, kept * 2)) == 2
        assert len(talk(port, b"GET /health HTTP/1.1\r\n\r\n" * 2)) == 2

    def test_answers_are_compact_json(self, client, server):
        record = client.submit("route", quick_route_params())
        client.wait(record["job_id"], timeout_s=60)
        connection = http.client.HTTPConnection("127.0.0.1", server.server_address[1])
        try:
            connection.request("GET", f"/jobs/{record['job_id']}/result")
            raw = connection.getresponse().read()
        finally:
            connection.close()
        assert raw == json.dumps(json.loads(raw), separators=(",", ":")).encode()

    def test_expect_100_continue_is_answered_before_the_body(self, paused_server):
        """The interim answer leaves at once: held back until the final
        one, it stalled a client that waits for it (curl: 1 s a POST)."""
        body = json.dumps({"kind": "route", "params": quick_route_params()}).encode()
        address = ("127.0.0.1", paused_server.server_address[1])
        with socket.create_connection(address, timeout=10) as sock:
            sock.sendall(
                b"POST /jobs HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\n"
                b"Expect: 100-continue\r\nContent-Length: %d\r\n\r\n" % len(body)
            )
            sock.settimeout(2.0)
            interim = b""
            while not interim.endswith(b"\r\n\r\n"):
                interim += sock.recv(1)
            assert interim == b"HTTP/1.1 100 Continue\r\n\r\n"
            sock.settimeout(10)
            sock.sendall(body)
            sock.shutdown(socket.SHUT_WR)
            received = b""
            while chunk := sock.recv(65536):
                received += chunk
        ((status, _, record),) = answers(received)
        assert status == 202 and record["status"] == "queued"


_MAX_BODY = daemon_module.MAX_BODY_BYTES
_JOBS = [
    json.dumps({"kind": "route", "params": ROUTE_PARAMS}).encode(),
    json.dumps({"kind": "route", "params": ROUTE_PARAMS, "force": True}).encode(),
    json.dumps({"kind": "sm", "params": {"n_wires": 24, "line_size": 3}}).encode(),
    b"{}",
]
_ODD_METHODS = st.one_of(
    st.sampled_from(["PUT", "HEAD", "get", ""]), st.text(alphabet="GETPOS@\x00é", max_size=5)
)
_TARGETS = {
    "GET": [
        "/health", "/stats", "/jobs", "/jobs?limit=2", "/jobs?limit=x",
        "/jobs?status=done&limit=" + "9" * 40, "/jobs/nope", "/jobs/nope/result?wait=0",
        "/jobs/nope?wait=inf", "//health", "/nope",
    ],
    "POST": ["/jobs", "/jobs/", "//jobs", "/nope"],
}
_ODD_TARGETS = st.one_of(
    st.sampled_from(["*", "http://[x/health", "http://h/jobs", ""]), st.text(max_size=12)
)
_ODD_VERSIONS = st.sampled_from(["HTTP/2.0", "HTTP/0.9", "HTTP/1", "http/1.1", "", "HTTP/1.1 x"])
_ODD_NAMES = st.sampled_from(
    ["Content-Length", "content-length", "Transfer-Encoding", "X-Ünïcode", "X Bad", ""]
)
_MOSTLY = st.sampled_from([True, True, True, False])
_VALUES = ["0", "2", "17", "100-continue", "close", "keep-alive", "x"]
_ODD_VALUES = st.one_of(
    st.sampled_from(["5, 6", "-1", "+3", "chunked", "é", str(_MAX_BODY + 1), "9" * 30]),
    st.text(max_size=8),
)
_ODD_BODIES = st.one_of(
    st.sampled_from([b"[" * 100_000, b"[]", b'{"kind": "route", "params": 7}']),
    st.binary(max_size=40),
)


@st.composite
def fuzzed_requests(draw):
    """Raw request bytes: a request line, header fields (duplicate and
    conflicting lengths, folded lines, non-ASCII), then a body that a
    ``Content-Length`` may or may not declare.  Each part is a common
    well-formed value three times in four, so that a good share of the
    requests get past the head and reach the endpoints."""

    def usually(common, odd):
        return draw(st.sampled_from(common)) if draw(_MOSTLY) else draw(odd)

    method = usually(["GET", "POST"], _ODD_METHODS)
    target = usually(_TARGETS.get(method, _TARGETS["GET"]), _ODD_TARGETS)
    line = f"{method} {target} {usually(['HTTP/1.1', 'HTTP/1.0'], _ODD_VERSIONS)}"
    fields = [
        f"{usually(['Host', 'Expect', 'Connection'], _ODD_NAMES)}: "
        f"{usually(_VALUES, _ODD_VALUES)}"
        for _ in range(draw(st.integers(0, 4)))
    ]
    body = usually(_JOBS if method == "POST" else [b""], _ODD_BODIES)
    if draw(_MOSTLY):
        fields.append(f"Content-Length: {len(body)}")
    if fields and not draw(_MOSTLY):
        fields.insert(1, " folded")
    head = "\r\n".join([line, *fields, "", ""])
    return head.encode("utf-8", "surrogatepass") + body


class TestFuzzedSurface:
    #: What the daemon may answer anything with: 500 is only a failed job's
    #: result, and 414 the stdlib loop's refusal of a request line longer
    #: than the head reader's line limit.
    ANSWERS = {200, 202, 400, 404, 409, 413, 414, 431, 505}

    def test_any_request_gets_a_listed_json_answer_or_a_close(self, tmp_path, capsys):
        with running_server(tmp_path, paused=True) as srv:
            port = srv.server_address[1]

            @settings(max_examples=150, deadline=None)
            @given(raw=fuzzed_requests())
            @example(raw=b"POST /jobs HTTP/1.1\r\nContent-Length: 100000\r\n\r\n" + b"[" * 100_000)
            def exchange(raw):
                for status, _, body in talk(port, raw):
                    assert status in self.ANSWERS, (status, body, raw[:200])
                    if status not in (200, 202, 409):
                        assert isinstance(body["error"], str), (status, body)

            exchange()
            assert client_of(srv).health() == {"ok": True}
        assert "Traceback" not in capsys.readouterr().err


def get_raw(srv, path):
    """``(status, body bytes)`` of one GET, read as it left the daemon."""
    connection = http.client.HTTPConnection("127.0.0.1", srv.server_address[1], timeout=10)
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


def store_done_job(repo, job_id, fingerprint, payload):
    """A done job and its stored result."""
    repo.record_result(fingerprint, "route", {"n_wires": 24}, payload, wall_s=0.25)
    repo.add_job(job_id, fingerprint, "route", {"n_wires": 24}, status="done")


def overwrite_results(repo, column, value):
    """Overwrite one column of every stored result in place."""
    with repo._lock:
        repo._conn.execute(f"UPDATE results SET {column} = ?", (value,))
        repo._conn.commit()


class TestStoredAnswer:
    """``GET /jobs/<id>/result`` sends the stored JSON columns as stored:
    spliced into the answer, checked by decoding, never encoded again."""

    COMPACT = {"separators": (",", ":")}

    def test_every_kind_answers_byte_compact(self, client, server):
        params = {
            "route": quick_route_params(),
            "mp": tiny_mp_params(),
            "sm": {"which": "bnrE", "n_wires": 24, "iterations": 1, "n_procs": 4, "line_size": 16},
        }
        for kind, job in params.items():
            record = client.wait(client.submit(kind, job)["job_id"], timeout_s=60)
            status, raw = get_raw(server, f"/jobs/{record['job_id']}/result")
            answer = json.loads(raw)
            assert status == 200 and answer["payload"]["kind"] == kind
            assert raw == json.dumps(answer, **self.COMPACT).encode(), kind
            stored = server.service.repository.get_result(record["fingerprint"])
            assert answer == {"status": "done", **stored}

    def test_an_overwritten_payload_is_a_json_500_and_a_resubmission_heals(
        self, client, server
    ):
        record = client.wait(client.submit("route", quick_route_params())["job_id"], 60)
        first = client.result(record["job_id"])
        overwrite_results(server.service.repository, "payload", "{not json")
        status, raw = get_raw(server, f"/jobs/{record['job_id']}/result")
        assert status == 500 and b"not json" not in raw
        assert set(json.loads(raw)) == {"error"}
        before = executed_count()
        again = client.submit("route", quick_route_params())
        assert again["status"] == "queued"
        client.wait(again["job_id"], timeout_s=60)
        assert executed_count() - before == 1
        for job_id in (record["job_id"], again["job_id"]):
            assert client.result(job_id)["payload"] == first["payload"]

    def test_a_legacy_row_answers_valid_json(self, server):
        repo = server.service.repository
        payload = {"kind": "route", "quality": {"height": 7, "wirelength": 1.5}}
        store_done_job(repo, "legacy", "f" * 64, {})
        for name, value in (("config", {"n_wires": 24}), ("payload", payload),
                            ("telemetry", {"counters": {"a": 1}})):
            overwrite_results(repo, name, json.dumps(value, sort_keys=True))
        status, raw = get_raw(server, "/jobs/legacy/result")
        assert status == 200 and b'"height": 7' in raw
        assert json.loads(raw) == {"status": "done", **repo.get_result("f" * 64)}

    def test_nan_and_inf_answer_as_jsonify_passes_them(self, server):
        repo = server.service.repository
        payload = jsonify({"x": float("nan"), "y": [math.inf, -math.inf], "z": 0.1})
        store_done_job(repo, "floats", "e" * 64, payload)
        status, raw = get_raw(server, "/jobs/floats/result")
        answer = json.loads(raw)
        assert status == 200 and math.isnan(answer["payload"]["x"])
        assert answer["payload"]["y"] == [math.inf, -math.inf]
        expected = {"status": "done", **repo.get_result("e" * 64)}
        assert json.dumps(answer) == json.dumps(expected)
        assert list(answer) == list(expected)

    def test_a_column_that_is_not_text_is_a_miss(self, server):
        repo = server.service.repository
        store_done_job(repo, "blob", "d" * 64, {})
        overwrite_results(repo, "payload", b'{"v": 1}')
        assert repo.get_result("d" * 64) is None
        assert get_raw(server, "/jobs/blob/result")[0] == 500

    def test_a_read_that_fails_is_a_counted_miss(self, service):
        class Unreadable:
            def execute(self, sql, params):
                raise sqlite3.DatabaseError("database disk image is malformed")

        repo = service.repository
        store_done_job(repo, "done", "c" * 64, {"v": 1})
        readable, repo._conn = repo._conn, Unreadable()
        counters = ("service.repository.corrupt_rows", "service.repository.misses")
        before = [counter(name) for name in counters]
        try:
            assert repo.get_result("c" * 64) is None
            assert repo.job_result("done") is None
        finally:
            repo._conn = readable
        after = [counter(name) for name in counters]
        assert [a - b for a, b in zip(after, before)] == [2, 1]

    def test_one_read_gives_status_and_row(self, service):
        repo = service.repository
        store_done_job(repo, "done", "c" * 64, {"v": 1})
        repo.add_job("waiting", "c" * 64, "route", {})
        repo.add_job("orphan", "b" * 64, "route", {}, status="done")
        repo.add_job("broke", "a" * 64, "route", {}, status="failed")
        repo.set_status("broke", "failed", error="boom")
        counters = ("service.repository.hits", "service.repository.misses")
        before = [counter(name) for name in counters]
        text = repo.job_result("done", text=True)
        assert json.loads(text["result"]) == repo.job_result("done")["result"]
        assert repo.job_result("done")["result"] == repo.get_result("c" * 64)
        assert repo.job_result("waiting") == {"status": "queued", "error": None, "result": None}
        assert repo.job_result("broke") == {"status": "failed", "error": "boom", "result": None}
        assert repo.job_result("orphan") == {"status": "done", "error": None, "result": None}
        assert repo.job_result("absent") is None
        after = [counter(name) for name in counters]
        assert [a - b for a, b in zip(after, before)] == [4, 1]
        assert service.result_text("orphan") == (None, "failed")
        assert service.result_text("waiting") == (None, "pending")
        assert service.result_text("done") == (text["result"], "done")


class TestCLI:
    def test_route_json_matches_service_payload(self, capsys):
        # --wires pins the circuit, so the service job's `quick` flag is
        # irrelevant to the payload and the two paths must agree exactly.
        from repro.cli import main

        assert main(
            ["route", "--wires", "24", "--iterations", "1", "--json"]
        ) == 0
        printed = json.loads(capsys.readouterr().out)
        direct = execute_job(JobSpec.from_params("route", quick_route_params()))
        assert printed == direct

    def test_route_reads_no_path(self, capsys):
        # A route job reports the quality, the heights and the work, so
        # neither it nor `route --json` builds a RoutePath, and the printed
        # bytes are the ones the CLI printed when the router kept a dict.
        from repro.cli import main

        before = counter("route.paths_materialised")
        assert main(["route", "--wires", "60", "--iterations", "2", "--json"]) == 0
        assert capsys.readouterr().out == (
            '{\n "kind": "route",\n "per_iteration_height": [\n  31,\n  30\n ],\n'
            ' "quality": {\n  "circuit_height": 30,\n  "occupancy_factor": 1803,\n'
            '  "total_wire_cells": 3107\n },\n "work_cells": 226894\n}\n'
        )
        payload = execute_job(JobSpec.from_params("route", quick_route_params(iterations=2)))
        assert payload["work_cells"] > 0
        assert counter("route.paths_materialised") == before

    def test_jobs_submit_wait_and_result(self, server, capsys):
        from repro.cli import main

        url = f"http://127.0.0.1:{server.server_address[1]}"
        assert main(
            [
                "jobs", "--url", url, "submit", "route",
                "--wires", "24", "--iterations", "1", "--quick",
                "--wait", "--json",
            ]
        ) == 0
        # --wait prints the finished job's payload itself.
        printed = json.loads(capsys.readouterr().out)
        assert printed["kind"] == "route"
        assert printed == execute_job(JobSpec.from_params("route", quick_route_params()))

    def test_jobs_list_and_stats(self, server, client, capsys):
        from repro.cli import main

        record = client.submit("route", quick_route_params())
        client.wait(record["job_id"], timeout_s=60)
        url = f"http://127.0.0.1:{server.server_address[1]}"
        assert main(["jobs", "--url", url, "list"]) == 0
        out = capsys.readouterr().out
        assert record["job_id"] in out
        assert main(["jobs", "--url", url, "stats"]) == 0
        assert "queue_depth" in capsys.readouterr().out

    def test_jobs_list_timeline(self, server, client, capsys):
        from repro.cli import main

        record = client.submit("route", quick_route_params())
        client.wait(record["job_id"], timeout_s=60)
        url = f"http://127.0.0.1:{server.server_address[1]}"
        assert main(["jobs", "--url", url, "list", "--timeline"]) == 0
        assert record["job_id"] in capsys.readouterr().out


class TestServiceReport:
    def test_report_renders_repository(self, service, tmp_path):
        from repro.harness.report import main as report_main

        record = service.submit("route", quick_route_params())
        service.start()
        assert service.drain(timeout_s=60)
        out = tmp_path / "report.md"
        assert report_main(
            ["--service", service.repository.path, str(out)]
        ) == 0
        text = out.read_text()
        assert record["job_id"] in text
        assert "## Job counts" in text
        assert "## Stored results" in text

    def test_report_renders_a_stored_experiment(self, service, tmp_path):
        """A stored ``experiment`` result renders its paper-vs-measured
        table and its shape checks, as EXPERIMENTS.md shows them."""
        from repro.harness.report import render_service_report

        record = service.submit("experiment", {"exp_id": "X4", "quick": True})
        service.start()
        assert service.drain(timeout_s=60)
        stored, state = service.result(record["job_id"])
        assert state == "done"
        payload = stored["payload"]
        text = render_service_report(service.repository.path)
        assert f"\n## X4 — {payload['title']}\n" in text
        assert "| " + " | ".join(payload["columns"]) + " |" in text
        assert len(payload["rows"]) >= 1 and "Shape checks:" in text
        for name, ok in payload["checks"].items():
            assert f"- {'✅' if ok else '❌'} {name}" in text


class TestTimelineViz:
    def test_empty_history(self):
        assert ascii_job_timeline([]) == "(no jobs)"

    def test_bars_scale_with_wall_time(self):
        jobs = [
            {
                "job_id": "slow", "kind": "route", "status": "done",
                "started_unix": 100.0, "finished_unix": 102.0,
            },
            {
                "job_id": "fast", "kind": "route", "status": "done",
                "started_unix": 100.0, "finished_unix": 101.0,
            },
            {
                "job_id": "dup", "kind": "route", "status": "done",
                "source": "dedup", "dedup_of": "slow",
                "started_unix": 100.0, "finished_unix": 102.0,
            },
            {"job_id": "wait", "kind": "mp", "status": "queued"},
            {
                "job_id": "hit", "kind": "mp", "status": "done",
                "source": "repository",
            },
        ]
        text = ascii_job_timeline(jobs, max_width=20)
        lines = text.splitlines()
        assert len(lines) == 5
        slow_bar = lines[0].split("|")[1]
        fast_bar = lines[1].split("|")[1]
        assert len(slow_bar) == 2 * len(fast_bar)
        assert "(dedup)" in lines[2]
        assert "." in lines[3]  # queued glyph
        assert "via repository" in lines[4]
