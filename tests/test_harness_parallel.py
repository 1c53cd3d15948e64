"""Tests for the parallel harness: pool_map, sim-row fan-out, run_all jobs."""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.errors import ExperimentError
from repro.harness import ResultCache, run_all
from repro.harness.pool import default_jobs, in_pool_worker, pool_map
from repro.harness.runner import BENCH_FILENAME
from repro.harness.simjobs import SimConfig, run_sim_configs
from repro.obs import telemetry as obs
from repro.updates import UpdateSchedule

_PARENT_PID = os.getpid()


# Pool tasks must be picklable, hence module level.
def _double(x):
    return 2 * x


def _in_pool_worker(_x):
    return in_pool_worker()


def _fails_in_worker(x):
    """Raises in a forked pool worker, succeeds on the parent's retry."""
    if os.getpid() != _PARENT_PID:
        raise RuntimeError("injected worker failure")
    return -x


def _always_fails(x):
    raise RuntimeError("injected permanent failure")


def _fails_on_odd(x):
    if x % 2:
        raise RuntimeError(f"odd {x}")
    return x


def _slow_in_worker(x):
    if os.getpid() != _PARENT_PID:
        time.sleep(30)
    return x


_SERIAL_CALLS = []


def _flaky_serial(x):
    _SERIAL_CALLS.append(x)
    if len(_SERIAL_CALLS) == 1:
        raise RuntimeError("first call fails")
    return x


def tiny_config(**overrides):
    base = dict(
        kind="mp",
        which="bnrE",
        n_wires=24,
        schedule=UpdateSchedule(send_rmt_every=2, send_loc_every=10),
        n_procs=4,
        iterations=1,
    )
    base.update(overrides)
    return SimConfig(**base)


class TestPoolMap:
    def test_empty(self):
        assert pool_map(_double, [], jobs=4) == []

    def test_serial_preserves_order(self):
        assert pool_map(_double, [3, 1, 2], jobs=1) == [6, 2, 4]

    def test_parallel_preserves_order(self):
        assert pool_map(_double, list(range(7)), jobs=2) == [
            2 * i for i in range(7)
        ]

    def test_worker_failure_retried_in_parent(self):
        assert pool_map(_fails_in_worker, [1, 2, 3], jobs=2) == [-1, -2, -3]

    def test_double_failure_raises_experiment_error(self):
        with pytest.raises(ExperimentError, match="failed twice"):
            pool_map(_always_fails, [1, 2], jobs=2)

    def test_serial_failure_also_wrapped(self):
        with pytest.raises(ExperimentError, match="failed twice") as info:
            pool_map(_always_fails, [1], jobs=1)
        assert isinstance(info.value.__cause__, RuntimeError)

    def test_first_loss_in_item_order_is_the_one_raised(self):
        for jobs in (1, 2):
            with pytest.raises(ExperimentError, match=r"row 1 \(3\) failed twice") as info:
                pool_map(_fails_on_odd, [2, 3, 4, 5], jobs=jobs, label="row")
            assert str(info.value.__cause__) == "odd 3"

    def test_serial_retry_once(self):
        _SERIAL_CALLS.clear()
        assert pool_map(_flaky_serial, [5], jobs=1) == [5]
        assert _SERIAL_CALLS == [5, 5]

    def test_timeout_falls_back_to_parent_retry(self):
        # The worker would sleep 30 s; the 0.5 s timeout trips and the
        # serial retry (parent pid -> no sleep) succeeds immediately.
        out = pool_map(_slow_in_worker, [1, 2], jobs=2, timeout_s=0.5)
        assert out == [1, 2]

    def test_default_jobs_positive(self):
        assert default_jobs() >= 1


class TestSimRowFanOut:
    def test_parallel_rows_identical_to_serial(self):
        configs = [tiny_config(n_procs=p) for p in (2, 4, 8)]
        serial = run_sim_configs(configs, jobs=1)
        parallel = run_sim_configs(configs, jobs=2)
        for a, b in zip(serial, parallel):
            assert a.table_row() == b.table_row()
            assert a.exec_time_s == b.exec_time_s

    def test_parallel_telemetry_merged(self):
        before = obs.snapshot()["counters"].get("sim.events", 0)
        run_sim_configs([tiny_config(n_procs=p) for p in (2, 4)], jobs=2)
        after = obs.snapshot()["counters"].get("sim.events", 0)
        assert after > before  # worker deltas landed in the parent


    def test_retry_in_the_parent_keeps_the_parents_telemetry(self):
        # Regression: pool_map re-runs a failed or timed-out row in the
        # parent, where the worker wrapper used to reset the live
        # telemetry (wiping every counter of the run so far) and hand
        # back a snapshot the caller then merged a second time.
        from repro.harness.simjobs import _run_sim_config_in_worker

        assert not in_pool_worker()
        obs.incr("x")
        x_before = obs.snapshot()["counters"]["x"]
        events_before = obs.snapshot()["counters"].get("sim.events", 0)
        result, snapshot = _run_sim_config_in_worker(tiny_config())
        assert snapshot == {}
        assert obs.snapshot()["counters"]["x"] == x_before
        assert obs.snapshot()["counters"]["sim.events"] > events_before
        assert result.exec_time_s > 0

    def test_pool_workers_know_what_they_are(self):
        assert pool_map(_in_pool_worker, [1, 2, 3], jobs=2) == [True] * 3
        assert pool_map(_in_pool_worker, [1, 2, 3], jobs=1) == [False] * 3


class TestRunAllParallel:
    def test_unknown_id_rejected_before_any_run(self):
        with pytest.raises(ExperimentError, match="valid ids"):
            run_all(["NOPE"], quick=True, echo=False, jobs=2)

    def test_many_ids_rows_identical_to_serial(self, capsys):
        serial = run_all(["X4", "T6"], quick=True, echo=False)
        parallel = run_all(["X4", "T6"], quick=True, echo=False, jobs=2)
        assert [r.exp_id for r in parallel] == ["X4", "T6"]
        for a, b in zip(serial, parallel):
            assert a.rows == b.rows
            assert a.checks == b.checks

    def test_single_id_inner_fan_out_matches_serial(self):
        # T4 (2 circuits x 4 assigners) used to call the simulator itself,
        # so --jobs never reached its rows; every table is a sweep now.
        for exp_id, n_rows in (("T6", 4), ("T4", 8)):
            serial = run_all([exp_id], quick=True, echo=False)
            before = obs.snapshot()["counters"].get("harness.sim_rows", 0)
            parallel = run_all([exp_id], quick=True, echo=False, jobs=2)
            after = obs.snapshot()["counters"].get("harness.sim_rows", 0)
            assert after - before == n_rows
            assert serial[0].rows == parallel[0].rows
            assert serial[0].checks == parallel[0].checks

    def test_parallel_run_with_cache_warm_second_pass(self, tmp_path):
        cache_dir = tmp_path / "cache"
        # T5's check names ("bnrE: ...") are shaped like a type-tagged
        # key; a cache hit used to hand them back as "str:bnrE: ...".
        ids = ["X4", "T6", "T5"]
        cold = run_all(ids, quick=True, echo=False, jobs=2, cache_dir=cache_dir)
        before = obs.snapshot()["counters"].get("cache.experiment.hits", 0)
        warm = run_all(ids, quick=True, echo=False, jobs=1, cache_dir=cache_dir)
        hits = obs.snapshot()["counters"].get("cache.experiment.hits", 0) - before
        assert hits == len(ids)
        for a, b in zip(cold, warm):
            assert a.rows == b.rows
            assert a.checks == b.checks

    def test_bench_record_written(self, tmp_path):
        run_all(
            ["X4"],
            quick=True,
            echo=False,
            jobs=2,
            out_dir=tmp_path,
            cache_dir=tmp_path / "cache",
        )
        bench = json.loads((tmp_path / BENCH_FILENAME).read_text())
        assert bench["schema"] == "bench-harness/1"
        assert bench["jobs"] == 2
        assert bench["totals"]["experiments"] == 1
        assert bench["experiments"][0]["exp_id"] == "X4"
        assert bench["experiments"][0]["events_processed"] > 0
        assert bench["totals"]["cache"]["experiment.misses"] == 1

    def test_no_cache_bypasses_reads_and_writes(self, tmp_path):
        cache_dir = tmp_path / "cache"
        run_all(
            ["X4"], quick=True, echo=False,
            cache_dir=cache_dir, use_cache=False,
        )
        assert not cache_dir.exists()
