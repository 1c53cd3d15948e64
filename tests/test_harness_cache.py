"""Tests for the content-addressed result cache (harness.cache / simjobs)."""

from __future__ import annotations

import gc
import json
import multiprocessing
import os
import pickle
import sqlite3

import numpy as np
import pytest

from repro.assign import (
    CentroidAssigner,
    DistributedLoop,
    RoundRobinAssigner,
    ThresholdCostAssigner,
)
from repro.circuits import bnre_like
from repro.errors import ExperimentError
from repro.grid import RegionMap
from repro.harness.cache import (
    CACHE_SCHEMA,
    ResultCache,
    code_fingerprint,
    jsonify,
    stable_hash,
)
from repro.harness.simjobs import (
    ASSIGNERS,
    SimConfig,
    run_sim_config,
    run_sim_configs,
    sim_fingerprint,
    sim_key,
)
from repro.obs import telemetry as obs
from repro.parallel import (
    DEFAULT_COST_MODEL,
    CostModel,
    run_message_passing,
    run_shared_memory,
)
from repro.faults import FaultPlan
from repro.service import jobs as service_jobs
from repro.service.jobs import (
    PARAM_SCHEMA,
    JobSpec,
    execute_job_in_worker,
    job_fingerprint,
    job_key,
)
from repro.updates import UpdateSchedule


def tiny_mp_config(**overrides):
    """A message passing row small enough for unit tests (<100 ms)."""
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


class TestJsonify:
    def test_plain_data_passes_through(self):
        assert jsonify({"a": [1, 2.5, "x", None, True]}) == {
            "a": [1, 2.5, "x", None, True]
        }

    def test_numpy_and_tuples_become_plain(self):
        out = jsonify({"n": np.int64(3), "v": np.array([1, 2]), "t": (1, 2)})
        assert out == {"n": 3, "v": [1, 2], "t": [1, 2]}
        json.dumps(out)  # fully serialisable

    def test_non_string_dict_keys_are_type_tagged(self):
        out = jsonify({(2, 10): "row"})
        assert out == {"tuple:(2, 10)": "row"}

    def test_int_and_string_keys_stay_distinct(self):
        # Regression: {1: x} and {"1": x} used to canonicalise to the
        # same JSON and so the same cache key.
        assert jsonify({1: "x"}) == {"int:1": "x"}
        assert jsonify({"1": "x"}) == {"1": "x"}
        assert jsonify({1: "x"}) != jsonify({"1": "x"})

    def test_bool_and_int_keys_stay_distinct(self):
        assert jsonify({True: "x"}) == {"bool:True": "x"}
        assert jsonify({1: "x"}) != jsonify({True: "x"})

    def test_tag_shaped_string_keys_get_escaped(self):
        # The string key "int:1" must not collide with the int key 1.
        assert jsonify({"int:1": "x"}) == {"str:int:1": "x"}
        assert jsonify({"int:1": "x"}) != jsonify({1: "x"})

    def test_prose_keys_are_not_tag_shaped(self):
        # A tag is "<type>:<repr>" and no repr starts with a space, so a
        # check name like T4's survives any number of canonicalisations.
        name = "bnrE: locality improves quality over round robin"
        assert jsonify(jsonify({name: True})) == {name: True}

    def test_numpy_scalar_keys_match_python_spelling(self):
        assert jsonify({np.int64(3): "x"}) == {"int64:3": "x"}

    def test_dataclasses_become_dicts(self):
        out = jsonify(UpdateSchedule(send_rmt_every=2, send_loc_every=10))
        assert out["send_rmt_every"] == 2


class TestStableHash:
    def test_deterministic(self):
        fp = {"a": 1, "b": [1, 2], "c": {"x": (3, 4)}}
        assert stable_hash(fp) == stable_hash(fp)

    def test_key_order_irrelevant(self):
        assert stable_hash({"a": 1, "b": 2}) == stable_hash({"b": 2, "a": 1})

    def test_any_field_change_changes_hash(self):
        base = {"a": 1, "b": 2}
        assert stable_hash(base) != stable_hash({"a": 1, "b": 3})
        assert stable_hash(base) != stable_hash({"a": 1})

    def test_key_type_changes_hash(self):
        # Regression: these fingerprints hashed identically before the
        # type-tagged key canonicalisation.
        assert stable_hash({"d": {1: "x"}}) != stable_hash({"d": {"1": "x"}})
        assert stable_hash({"d": {True: "x"}}) != stable_hash({"d": {1: "x"}})

    def test_code_fingerprint_stable_within_process(self):
        assert code_fingerprint() == code_fingerprint()
        assert len(code_fingerprint()) == 64


class TestSimKey:
    def test_same_config_same_key(self):
        assert sim_key(tiny_mp_config()) == sim_key(tiny_mp_config())

    def test_schedule_field_changes_key(self):
        a = tiny_mp_config()
        b = tiny_mp_config(
            schedule=UpdateSchedule(send_rmt_every=2, send_loc_every=20)
        )
        assert sim_key(a) != sim_key(b)

    def test_n_procs_changes_key(self):
        assert sim_key(tiny_mp_config()) != sim_key(tiny_mp_config(n_procs=8))

    def test_circuit_scale_changes_key(self):
        assert sim_key(tiny_mp_config()) != sim_key(tiny_mp_config(n_wires=30))

    def test_cost_model_changes_key(self):
        fast = CostModel(hop_time_s=DEFAULT_COST_MODEL.hop_time_s / 10)
        assert sim_key(tiny_mp_config(cost_model=fast)) != sim_key(tiny_mp_config())
        assert sim_key(tiny_mp_config(cost_model=CostModel())) == sim_key(tiny_mp_config())

    def test_unset_iterations_follow_quick(self):
        assert SimConfig(kind="sm").iterations == 3
        assert SimConfig(kind="sm", quick=True).iterations == 2
        assert sim_key(tiny_mp_config(quick=True, iterations=None)) == sim_key(
            tiny_mp_config(quick=True, iterations=2)
        )

    def test_kind_in_fingerprint(self):
        fp = sim_fingerprint(tiny_mp_config())
        assert fp["kind"] == "mp" and fp["unit"] == "sim"

    def test_bad_kind_rejected(self):
        with pytest.raises(ExperimentError):
            SimConfig(kind="xx")

    def test_mp_without_schedule_rejected(self):
        with pytest.raises(ExperimentError):
            SimConfig(kind="mp", schedule=None)


class TestPinnedKeys:
    """Keys recorded before ``sim_fingerprint`` was built from
    ``dataclasses.fields(SimConfig)``: the same key set, so the same keys
    (the code digest is patched out; everything else is content)."""

    SIM = {
        "190c7bb9007ab688800fd2ad2b59b0c8e934ca537bf05a303813d4fa46dc71af": dict(),
        "9fd3bc2e5dee2dd08bc4a59a52ce757b0649be46610203c8a1dcca7be0458329": dict(
            schedule=UpdateSchedule.receiver_initiated(1, 5, blocking=True)
        ),
        "0565d45c29acc7723c28b9f33bf3432e53a99a1e18dc308ebd23fef953b8c3a4": dict(
            faults=FaultPlan(seed=7, drop_prob=0.05, duplicate_prob=0.02)
        ),
        "e8bbaddf3107b77e8cb2c670bee381fa7f6681ae1742f970ce3a94a683adf050": dict(
            assigner="TC=30"
        ),
        "d98b73334539ec5fe4b268498cf9b4a190b398b5c3755e2f23c61f0610a5102d": dict(
            kind="sm", schedule=None, extra_line_sizes=(4, 32)
        ),
        "dbb009275e8c4a4e9612f17fb192b7c9b550848a744135bb046e94e9cedfcfac": dict(
            kind="sm", schedule=None, protocol="update", which="MDC"
        ),
    }
    JOBS = {
        "098ef2487e0196557bb6b254cee3c82e50a04ee03642185c32a8c9927c75e25a": (
            "route", {"n_wires": 24, "iterations": 2}
        ),
        "c8d37eac215420ab779b052d4edb24bc59451231411ff490189407604ad81fb3": (
            "experiment", {"exp_id": "t6", "quick": True}
        ),
        "e09dcb249c088698e2f94622ea900e5d7193868016bb6c93502f8890927f81a5": (
            "mp", {"n_wires": 24, "n_procs": 4, "send_rmt": 2, "send_loc": 10}
        ),
    }

    @pytest.fixture(autouse=True)
    def constant_code_digest(self, monkeypatch):
        for module in ("harness.simjobs", "harness.runner", "service.jobs"):
            monkeypatch.setattr(f"repro.{module}.code_fingerprint", lambda: "code")

    def test_sim_keys_unchanged(self):
        for key, overrides in self.SIM.items():
            assert sim_key(tiny_mp_config(**overrides)) == key, overrides

    def test_job_keys_unchanged(self):
        for key, (kind, params) in self.JOBS.items():
            assert job_key(JobSpec.from_params(kind, params)) == key, kind


class TestRunParams:
    """The run parameters are dataclass fields now.  The service accepts,
    per kind, the parameters, defaults and order it took when they were
    literals in service/jobs.py, except that ``iterations`` defaults to
    ``None``, the count ``quick`` implies; and the new ``circuit_seed``
    field left every key as it was."""

    SCHEMA = {
        "route": {"which": "bnrE", "n_wires": None, "quick": False, "iterations": None},
        "mp": {
            "which": "bnrE",
            "n_wires": None,
            "quick": False,
            "iterations": None,
            "n_procs": 16,
            "send_loc": None,
            "send_rmt": None,
            "req_loc": None,
            "req_rmt": None,
            "blocking": False,
        },
        "sm": {
            "which": "bnrE",
            "n_wires": None,
            "quick": False,
            "iterations": None,
            "n_procs": 16,
            "line_size": 8,
            "protocol": "invalidate",
        },
        "experiment": {"exp_id": ..., "quick": False},
    }

    def test_param_schema_unchanged(self):
        # repr: equal values of equal types, in equal key order.
        assert repr(PARAM_SCHEMA) == repr(self.SCHEMA)

    def test_an_unset_circuit_seed_keeps_every_sim_key(self, monkeypatch):
        monkeypatch.setattr("repro.harness.simjobs.code_fingerprint", lambda: "code")
        for key, overrides in TestPinnedKeys.SIM.items():
            config = tiny_mp_config(circuit_seed=None, **overrides)
            assert "circuit_seed" not in sim_fingerprint(config)
            assert sim_key(config) == key, overrides


class TestJobKeyMemo:
    """``job_key`` is remembered per process; a remembered key is always
    the key a fresh fingerprint gives, and a new code digest is a new key."""

    PARAMS = {
        "route": {"n_wires": 24, "iterations": 2},
        "mp": {"n_wires": 24, "n_procs": 4, "send_rmt": 2, "send_loc": 10},
        "sm": {"n_wires": 24, "n_procs": 4, "line_size": 16, "protocol": "update"},
        "experiment": {"exp_id": "t6", "quick": True},
    }

    @staticmethod
    def fresh(spec):
        return stable_hash(job_fingerprint(spec))

    def test_every_kind_is_covered(self):
        assert set(self.PARAMS) == set(PARAM_SCHEMA)

    @pytest.mark.parametrize("kind", sorted(PARAM_SCHEMA))
    def test_memoised_key_is_the_fresh_key(self, kind, monkeypatch):
        spec = JobSpec.from_params(kind, self.PARAMS[kind])
        key = job_key(spec)
        hits = service_jobs._job_key.cache_info().hits
        assert job_key(JobSpec.from_params(kind, self.PARAMS[kind])) == key
        assert service_jobs._job_key.cache_info().hits == hits + 1
        assert key == self.fresh(spec)
        for module in ("harness.simjobs", "harness.runner", "service.jobs"):
            monkeypatch.setattr(f"repro.{module}.code_fingerprint", lambda: "patched")
        patched = job_key(spec)
        assert patched == self.fresh(spec) != key
        assert job_key(spec) == patched


class TestAssigner:
    """``SimConfig.assigner``: the Table 4/5 row label, resolved per run."""

    LABELS = {
        "round robin": lambda c, r: RoundRobinAssigner(c, r),
        "TC=30": lambda c, r: ThresholdCostAssigner(c, r, 30),
        "TC=1000": lambda c, r: ThresholdCostAssigner(c, r, 1000),
        "TC=inf": lambda c, r: ThresholdCostAssigner(c, r, float("inf")),
        "centroid TC=1000": lambda c, r: CentroidAssigner(c, r, 1000),
    }

    def test_every_label_is_covered(self):
        assert set(self.LABELS) | {"dynamic"} == set(ASSIGNERS)

    def test_dynamic_label_is_a_loop_over_every_wire(self):
        # A3's rows: the §4.2 dynamic distribution as a plain SimConfig.
        mp = tiny_mp_config(assigner="dynamic")
        by_hand = run_message_passing(
            bnre_like(n_wires=24),
            mp.schedule,
            n_procs=4,
            iterations=1,
            assignment=DistributedLoop(range(24)),
        )
        swept = run_sim_config(mp)
        assert swept.table_row() == by_hand.table_row()
        assert swept.meta == by_hand.meta and "mean_task_wait_s" in swept.meta
        assert list(swept.wire_router) == list(by_hand.wire_router)
        with pytest.raises(ExperimentError, match="already self-schedules"):
            SimConfig(kind="sm", n_wires=24, n_procs=4, assigner="dynamic")

    @pytest.mark.parametrize("label", sorted(LABELS))
    def test_label_matches_hand_built_assignment(self, label):
        circuit = bnre_like(n_wires=24)
        assignment = self.LABELS[label](
            circuit, RegionMap(circuit.n_channels, circuit.n_grids, 4)
        ).assign()
        mp = tiny_mp_config(assigner=label)
        by_hand = run_message_passing(
            circuit, mp.schedule, assignment=assignment, n_procs=4, iterations=1
        )
        assert run_sim_config(mp).table_row() == by_hand.table_row()
        sm = SimConfig(kind="sm", n_wires=24, n_procs=4, iterations=1, assigner=label)
        by_hand = run_shared_memory(
            circuit, assignment=assignment, n_procs=4, iterations=1
        )
        assert run_sim_config(sm).table_row() == by_hand.table_row()

    def test_labels_never_share_a_key(self):
        keys = [sim_key(tiny_mp_config(assigner=a)) for a in [None, *self.LABELS]]
        assert len(set(keys)) == len(keys)
        assert sim_fingerprint(tiny_mp_config(assigner="TC=30"))["assigner"] == "TC=30"

    @pytest.mark.parametrize("label", ["TC=", "TC=31", "1000", "centroid", "rr"])
    def test_unknown_label_rejected(self, label):
        with pytest.raises(ExperimentError, match="unknown assigner"):
            tiny_mp_config(assigner=label)

    def test_no_assigner_is_the_simulators_default(self):
        # The service's JobSpec.sim_config() path: no label, so the run is
        # the plain simulator call, bit for bit.
        spec = JobSpec.from_params(
            "mp",
            {"n_wires": 24, "n_procs": 4, "iterations": 1, "send_rmt": 2, "send_loc": 10},
        )
        config = spec.sim_config()
        assert config.assigner is None and config == tiny_mp_config()
        direct = run_message_passing(
            bnre_like(n_wires=24), config.schedule, n_procs=4, iterations=1
        )
        assert stable_hash(jsonify(run_sim_config(config).summary_dict())) == (
            stable_hash(jsonify(direct.summary_dict()))
        )


def _misses(namespace):
    return obs.get_telemetry().count(f"cache.{namespace}.misses")


def _put_raw(cache, namespace, key, value):
    """Write a row as the cache would, but with a value of our choosing."""
    with cache._connect() as conn, conn:
        conn.execute(
            "INSERT OR REPLACE INTO entries (namespace, key, value) VALUES (?, ?, ?)",
            (namespace, key, value),
        )


class TestResultCache:
    def test_experiment_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put_experiment("k1", {"rows": [1, 2]})
        payload = cache.get_experiment("k1")
        assert payload["rows"] == [1, 2]
        assert payload["schema"] == CACHE_SCHEMA

    def test_experiment_miss(self, tmp_path):
        before = _misses("experiment")
        assert ResultCache(tmp_path).get_experiment("absent") is None
        assert _misses("experiment") - before == 1

    def test_corrupt_experiment_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        _put_raw(cache, "experiment", "bad", "{not json")
        before = _misses("experiment")
        assert cache.get_experiment("bad") is None
        assert _misses("experiment") - before == 1

    def test_wrong_schema_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        _put_raw(cache, "experiment", "old", json.dumps({"schema": -1, "rows": []}))
        _put_raw(cache, "sim", "old", pickle.dumps((-1, {"x": 1})))
        before = [_misses("experiment"), _misses("sim")]
        assert cache.get_experiment("old") is None
        assert cache.get_sim("old") is None
        assert [_misses("experiment"), _misses("sim")] == [b + 1 for b in before]

    def test_sim_round_trip_preserves_numpy(self, tmp_path):
        cache = ResultCache(tmp_path)
        obj = {"array": np.arange(5), "n": 3}
        cache.put_sim("k", obj)
        out = cache.get_sim("k")
        np.testing.assert_array_equal(out["array"], np.arange(5))

    def test_truncated_sim_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put_sim("k", {"x": 1})
        with cache._connect() as conn:
            (value,) = conn.execute("SELECT value FROM entries").fetchone()
        _put_raw(cache, "sim", "k", value[:10])  # truncate mid-pickle
        assert cache.get_sim("k") is None

    def test_garbage_sim_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        _put_raw(cache, "sim", "k", b"\x00\x01 not a pickle")
        before = _misses("sim")
        assert cache.get_sim("k") is None
        assert _misses("sim") - before == 1

    def test_namespaces_do_not_share_keys(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put_sim("k", {"x": 1})
        assert cache.get_experiment("k") is None
        cache.put_experiment("k", {"rows": []})
        assert cache.get_sim("k") == {"x": 1}

    def test_entries_live_in_one_file(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        cache.put_experiment("k", {"rows": []})
        cache.put_sim("k", {"x": 1})
        assert cache.path == tmp_path / "c" / "results.sqlite"
        # The file and, while a connection is open, its WAL companions.
        names = {p.name for p in (tmp_path / "c").iterdir()}
        assert "results.sqlite" in names
        assert names <= {"results.sqlite", "results.sqlite-wal", "results.sqlite-shm"}
        with sqlite3.connect(cache.path) as conn:
            rows = conn.execute("SELECT namespace, key FROM entries ORDER BY 1").fetchall()
        assert rows == [("experiment", "k"), ("sim", "k")]

    def test_reserved_schema_key_rejected(self, tmp_path):
        # Regression: {"schema": ..., **payload} let a caller payload
        # silently override the cache's own format tag.
        cache = ResultCache(tmp_path)
        with pytest.raises(ExperimentError, match="schema"):
            cache.put_experiment("k", {"schema": 99, "rows": []})
        assert cache.get_experiment("k") is None

    def test_a_corrupt_file_is_moved_aside_and_recreated(self, tmp_path):
        (tmp_path / "results.sqlite").write_bytes(b"not a database at all " * 50)
        before = obs.get_telemetry().count("cache.recovered")
        cache = ResultCache(tmp_path)
        assert cache.get_sim("k") is None
        cache.put_sim("k", {"x": 1})
        assert cache.get_sim("k") == {"x": 1}
        assert (tmp_path / "results.sqlite.corrupt.0").exists()
        assert obs.get_telemetry().count("cache.recovered") - before == 1

    def test_the_cache_pickles_without_a_connection(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put_sim("k", {"x": 1})
        clone = pickle.loads(pickle.dumps(cache))
        assert clone.directory == cache.directory
        assert clone.get_sim("k") == {"x": 1}


class TestDurableWrites:
    def test_cache_commits_under_synchronous_full(self, tmp_path):
        # A committed entry must survive power loss, as the fsynced files
        # it replaced did: WAL with synchronous=FULL syncs on every commit.
        cache = ResultCache(tmp_path)
        cache.put_sim("k", {"x": 1})
        with cache._connect() as conn:
            assert conn.execute("PRAGMA journal_mode").fetchone()[0] == "wal"
            assert conn.execute("PRAGMA synchronous").fetchone()[0] == 2  # FULL


def _use_after_fork(cache):
    """Fork-pool task: read the parent's entry and write one, then report
    whether the inherited connection was set aside, not used."""
    from repro.harness import cache as cache_module

    hit = cache.get_sim("parent")
    cache.put_sim("child", {"pid": os.getpid()})
    (own,) = cache_module._OPEN.values()
    inherited = cache_module._INHERITED
    return hit, len(inherited) == 1 and own is not inherited[0]


class TestNoConnectionLeaks:
    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc")
    def test_many_worker_jobs_leave_the_fd_count_unchanged(self, tmp_path):
        # The daemon's --jobs 1 path: every execution runs in the daemon's
        # own process, through a fresh ResultCache per job.
        item = (
            JobSpec.from_params("mp", {"n_wires": 24, "n_procs": 2, "iterations": 1}),
            str(tmp_path / "cache"),
        )
        first, _ = execute_job_in_worker(item)  # cold: simulates and stores
        gc.collect()  # earlier tests' garbage must not close fds mid-count
        fds = len(os.listdir("/proc/self/fd"))
        hits = obs.get_telemetry().count("cache.sim.hits")
        for _ in range(200):
            payload, _ = execute_job_in_worker(item)
        assert payload == first
        assert obs.get_telemetry().count("cache.sim.hits") - hits == 200
        assert len(os.listdir("/proc/self/fd")) == fds
        # One cache file is open at a time: moving on closes the last one.
        for n in range(20):
            assert ResultCache(tmp_path / f"other{n}").get_sim("k") is None
        assert len(os.listdir("/proc/self/fd")) == fds
        hits = obs.get_telemetry().count("cache.sim.hits")
        assert execute_job_in_worker(item)[0] == first  # reopened, still warm
        assert obs.get_telemetry().count("cache.sim.hits") - hits == 1

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(), reason="needs fork"
    )
    def test_a_forked_child_opens_its_own_connection(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put_sim("parent", {"x": 1})  # the parent's connection is open
        with multiprocessing.get_context("fork").Pool(1) as pool:
            hit, own = pool.apply(_use_after_fork, (cache,))
        assert hit == {"x": 1} and own
        assert cache.get_sim("child")["pid"] != os.getpid()


def _concurrent_put_sim(item):
    """Module-level pool worker (picklable under spawn)."""
    cache_dir, worker_id = item
    cache = ResultCache(cache_dir)
    for _ in range(20):
        cache.put_sim("shared-key", {"worker": worker_id, "data": np.arange(64)})
    return worker_id


class TestConcurrentCacheAccess:
    def test_racing_writers_never_corrupt_the_entry(self, tmp_path):
        """Two processes hammering the same key: readers always see a
        complete entry (one writer's version, never a torn mix)."""
        ctx = multiprocessing.get_context("spawn")
        with ctx.Pool(2) as pool:
            async_result = pool.map_async(
                _concurrent_put_sim, [(str(tmp_path), 1), (str(tmp_path), 2)]
            )
            cache = ResultCache(tmp_path)
            seen = 0
            while not async_result.ready():
                entry = cache.get_sim("shared-key")
                if entry is not None:
                    assert entry["worker"] in (1, 2)
                    np.testing.assert_array_equal(entry["data"], np.arange(64))
                    seen += 1
            assert sorted(async_result.get()) == [1, 2]
        final = ResultCache(tmp_path).get_sim("shared-key")
        assert final["worker"] in (1, 2)


class TestCachedSimRows:
    def test_second_run_hits_and_matches(self, tmp_path):
        cache = ResultCache(tmp_path)
        configs = [tiny_mp_config(), tiny_mp_config(n_procs=8)]
        first = run_sim_configs(configs, cache=cache)
        before = obs.snapshot()
        second = run_sim_configs(configs, cache=cache)
        delta = obs.snapshot()["counters"]
        assert (
            delta.get("cache.sim.hits", 0)
            - before["counters"].get("cache.sim.hits", 0)
            == 2
        )
        for a, b in zip(first, second):
            assert a.table_row() == b.table_row()
            assert a.exec_time_s == b.exec_time_s

    def test_overlapping_sweeps_share_rows(self, tmp_path):
        cache = ResultCache(tmp_path)
        shared = tiny_mp_config()
        run_sim_configs([shared], cache=cache)
        before = obs.snapshot()["counters"].get("cache.sim.hits", 0)
        run_sim_configs([shared, tiny_mp_config(n_procs=2)], cache=cache)
        after = obs.snapshot()["counters"].get("cache.sim.hits", 0)
        assert after - before == 1  # the shared row hit, the new one ran

    def test_uncached_rows_identical_to_cached(self, tmp_path):
        config = tiny_mp_config()
        plain = run_sim_configs([config])[0]
        cached = run_sim_configs([config], cache=ResultCache(tmp_path))[0]
        assert plain.table_row() == cached.table_row()
