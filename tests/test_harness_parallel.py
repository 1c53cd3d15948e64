"""Tests for the parallel harness: pool_map, sim-row fan-out, run_all jobs."""

from __future__ import annotations

import json
import multiprocessing
import os
import time

import pytest

from repro.errors import ExperimentError
from repro.harness import ResultCache, run_all, simjobs
from repro.harness.pool import default_jobs, pool_map, pool_map_salvage
from repro.harness.runner import BENCH_FILENAME
from repro.harness.simjobs import SimConfig, run_sim_configs
from repro.obs import telemetry as obs
from repro.updates import UpdateSchedule

_PARENT_PID = os.getpid()


# Pool tasks must be picklable, hence module level.
def _double(x):
    return 2 * x


def _fails_in_worker(x):
    """Raises in a forked pool worker, succeeds on the parent's retry."""
    if os.getpid() != _PARENT_PID:
        raise RuntimeError("injected worker failure")
    return -x


def _counts(x):
    """Two counters per task.  A negative item dies in a pool worker (of
    either start method) *after* counting — counts that must not reach
    the parent — and succeeds on the parent's retry."""
    obs.incr("parity.tasks")
    obs.incr("parity.units", abs(x))
    if x < 0 and multiprocessing.parent_process() is not None:
        raise RuntimeError("injected worker failure")
    return abs(x)


def _experiment_that_fails_in_workers(exp_id, quick=False):
    from repro.harness.experiments import run_experiment

    if os.getpid() != _PARENT_PID:
        raise RuntimeError("injected worker failure")
    return run_experiment(exp_id, quick=quick)


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


class TestWorkerTelemetry:
    """``harness/pool.py`` owns what crosses the process boundary: a task
    function only counts, and the parent's counters come out the same
    wherever the task ran."""

    @staticmethod
    def deltas(items, jobs):
        names = ("parity.tasks", "parity.units", "parity.unrelated")
        before = [obs.get_telemetry().count(name) for name in names]
        report = pool_map_salvage(_counts, items, jobs=jobs)
        after = [obs.get_telemetry().count(name) for name in names]
        return report, [b - a for a, b in zip(before, after)]

    def test_parent_counters_do_not_depend_on_where_a_task_ran(self):
        obs.incr("parity.unrelated", 7)
        serial, serial_delta = self.deltas([1, 2, 3], jobs=1)
        pooled, pooled_delta = self.deltas([1, 2, 3], jobs=2)
        assert serial.results == pooled.results == [1, 2, 3]
        assert serial_delta == pooled_delta == [3, 6, 0]
        # In the parent the counts went in directly; a worker hands back
        # exactly its task's delta (telemetry it forked with is not in it).
        assert serial.telemetry == [{}, {}, {}]
        for x, snapshot in zip([1, 2, 3], pooled.telemetry):
            assert snapshot["counters"] == {"parity.tasks": 1, "parity.units": x}

    def test_a_parent_retry_counts_once_and_keeps_the_parents_telemetry(self):
        obs.incr("parity.unrelated", 7)
        report, delta = self.deltas([-1, 2, -3], jobs=2)
        assert report.results == [1, 2, 3] and report.ok
        assert delta == [3, 6, 0]
        assert report.telemetry[0] == report.telemetry[2] == {}
        assert report.telemetry[1]["counters"]["parity.units"] == 2


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

    def test_parent_retry_does_not_leak_the_runs_strategy(self, tmp_path, monkeypatch):
        # Regression: the pool task installed the run's cache handle
        # process-wide and nothing restored it, so after one retry in the
        # parent every later un-argumented run_sim_configs in the process
        # read and wrote the finished run's cache directory.  (The patch
        # reaches forked workers only; under spawn nothing is retried.)
        monkeypatch.setattr(
            "repro.harness.runner.run_experiment", _experiment_that_fails_in_workers
        )
        before = simjobs._STRATEGY
        results = run_all(
            ["X4", "T6"], quick=True, echo=False, jobs=2, cache_dir=tmp_path / "cache"
        )
        assert [r.exp_id for r in results] == ["X4", "T6"]
        assert simjobs._STRATEGY == before
        assert simjobs._STRATEGY.cache is None

    def test_no_cache_bypasses_reads_and_writes(self, tmp_path):
        cache_dir = tmp_path / "cache"
        run_all(
            ["X4"], quick=True, echo=False,
            cache_dir=cache_dir, use_cache=False,
        )
        assert not cache_dir.exists()
