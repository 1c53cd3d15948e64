"""Tests for fail-stop node crashes: detection, re-ownership, recovery.

Covers the crash fault kind itself (plan validation, determinism), the
consistent-hash ownership layer, the message passing recovery path
(watchdog suspicion -> heartbeat probe -> gossiped death notice ->
region/wire adoption), the shared memory mirror (distributed-loop
requeue), fault-counter reconciliation when a crash overlaps other fault
kinds, the salvaging process pool, and the CLI surface.
"""

from __future__ import annotations

import functools
import multiprocessing
import os
import signal

import numpy as np
import pytest

from repro.circuits import bnre_like
from repro.errors import (
    FaultPlanError,
    GridError,
    ProtocolError,
    SimulationError,
)
from repro.faults import (
    FaultPlan,
    LinkWindow,
    NodeCrash,
    NodeStall,
    RecoveryPolicy,
    random_crashes,
    validate_crashes,
)
from repro.grid import HashRing, OwnershipMap, RegionMap
from repro.harness.cache import jsonify, stable_hash
from repro.harness.pool import pool_map_salvage
from repro.harness.simjobs import SimConfig, run_sim_configs
from repro.parallel import run_message_passing, run_shared_memory
from repro.grid.bbox import BBox
from repro.updates import (
    HEADER_BYTES,
    UpdateKind,
    UpdatePacket,
    UpdateSchedule,
    build_control,
    is_control,
)

N_PROCS = 16


def crash_plan(n_crashes=2, at_s=0.3, seed=11, **kwargs):
    return FaultPlan(
        seed=seed,
        node_crashes=random_crashes(N_PROCS, n_crashes, at_s, seed),
        recovery=RecoveryPolicy(),
        **kwargs,
    )


def crash_run(faults, **kwargs):
    circuit = bnre_like(n_wires=160)
    schedule = kwargs.pop(
        "schedule", UpdateSchedule.receiver_initiated(1, 5, blocking=True)
    )
    return run_message_passing(
        circuit, schedule, n_procs=N_PROCS, iterations=2, faults=faults, **kwargs
    )


# ----------------------------------------------------------------------
# plan validation and determinism
# ----------------------------------------------------------------------
class TestCrashPlan:
    def test_negative_proc_rejected(self):
        with pytest.raises(FaultPlanError):
            NodeCrash(proc=-1, at_s=0.5)

    def test_negative_time_rejected(self):
        with pytest.raises(FaultPlanError):
            NodeCrash(proc=0, at_s=-0.5)

    def test_duplicate_crash_procs_rejected(self):
        with pytest.raises(FaultPlanError, match="duplicate"):
            FaultPlan(node_crashes=(NodeCrash(0, 0.1), NodeCrash(0, 0.2)))

    def test_random_crashes_needs_a_survivor(self):
        with pytest.raises(FaultPlanError, match="survive"):
            random_crashes(4, 4, at_s=0.1, seed=1)

    def test_random_crashes_rejects_negative_count(self):
        with pytest.raises(FaultPlanError, match=">= 0"):
            random_crashes(4, -1, at_s=0.1, seed=1)
        assert random_crashes(4, 0, at_s=0.1, seed=1) == ()

    def test_random_crashes_deterministic(self):
        a = random_crashes(16, 4, at_s=0.3, seed=9)
        b = random_crashes(16, 4, at_s=0.3, seed=9)
        c = random_crashes(16, 4, at_s=0.3, seed=10)
        assert a == b
        assert a != c
        assert len({crash.proc for crash in a}) == 4
        assert all(0.3 <= crash.at_s <= 0.3 * 1.5 for crash in a)


# ----------------------------------------------------------------------
# consistent-hash ownership
# ----------------------------------------------------------------------
class TestHashRing:
    def test_keys_map_to_members(self):
        ring = HashRing(range(8), seed=3)
        assert set(ring.members()) == set(range(8))
        for key in range(100):
            assert ring.owner(key) in range(8)

    def test_removal_moves_only_orphaned_keys(self):
        ring = HashRing(range(8), seed=3)
        before = {key: ring.owner(key) for key in range(200)}
        ring.remove(5)
        for key, owner in before.items():
            if owner != 5:
                assert ring.owner(key) == owner
            else:
                assert ring.owner(key) != 5

    def test_last_member_cannot_be_removed(self):
        ring = HashRing([0], seed=1)
        with pytest.raises(GridError):
            ring.remove(0)


class TestOwnershipMap:
    def _map(self, seed=0):
        return OwnershipMap(RegionMap(10, 341, N_PROCS), seed=seed)

    def test_initial_ownership_is_identity(self):
        own = self._map()
        assert own.owner_vector() == tuple(range(N_PROCS))
        assert sorted(own.live_members()) == list(range(N_PROCS))

    def test_mark_dead_reassigns_to_a_live_member(self):
        own = self._map()
        reassigned = own.mark_dead(3)
        assert reassigned[3] != 3
        assert not own.is_live(3)
        assert own.live_owner(3) == reassigned[3]
        assert 3 in own.dead
        # idempotent
        assert own.mark_dead(3) == {}

    def test_death_order_does_not_matter(self):
        a, b = self._map(seed=7), self._map(seed=7)
        for proc in (2, 9, 13):
            a.mark_dead(proc)
        for proc in (13, 2, 9):
            b.mark_dead(proc)
        assert a.owner_vector() == b.owner_vector()
        assert {a.wire_owner(w) for w in range(50)} == {
            b.wire_owner(w) for w in range(50)
        } and all(a.wire_owner(w) == b.wire_owner(w) for w in range(50))

    def test_everyone_dead_rejected(self):
        own = self._map()
        for proc in range(N_PROCS - 1):
            own.mark_dead(proc)
        with pytest.raises(GridError):
            own.mark_dead(N_PROCS - 1)

    def test_wire_owner_always_live(self):
        own = self._map(seed=4)
        own.mark_dead(0)
        own.mark_dead(7)
        for w in range(100):
            assert own.is_live(own.wire_owner(w))


# ----------------------------------------------------------------------
# liveness control packets
# ----------------------------------------------------------------------
class TestControlPackets:
    def test_control_packets_are_header_only(self):
        for kind in (
            UpdateKind.HEARTBEAT,
            UpdateKind.HEARTBEAT_ACK,
            UpdateKind.DEATH_NOTICE,
        ):
            assert is_control(kind)
            packet = build_control(kind, src=0, dst=1, subject=2, req_id=42)
            assert packet.length_bytes == HEADER_BYTES
            assert packet.region_owner == 2
            assert packet.req_id == 42

    def test_control_packets_reject_payloads(self):
        with pytest.raises(ProtocolError):
            UpdatePacket(
                kind=UpdateKind.HEARTBEAT,
                src=0,
                dst=1,
                bbox=BBox(0, 0, 1, 1),
                values=np.zeros((1, 1)),
                region_owner=0,
            )

    def test_build_control_rejects_data_kinds(self):
        with pytest.raises(ProtocolError):
            build_control(UpdateKind.SEND_LOC_DATA, 0, 1, 2)


# ----------------------------------------------------------------------
# message passing recovery
# ----------------------------------------------------------------------
class TestMessagePassingCrashRecovery:
    def test_single_crash_completes_every_wire(self):
        baseline = crash_run(None)
        result = crash_run(crash_plan(1), check_invariants=True)
        assert len(result.paths) == len(baseline.paths)
        assert result.meta["verification"]["ok"]
        crash = result.meta["faults"]["crash"]
        assert len(crash["confirmed"]) == 1
        assert crash["regions_reassigned"] >= 1

    def test_quarter_of_machine_crashes_and_run_completes(self):
        result = crash_run(crash_plan(4), check_invariants=True)
        assert len(result.paths) == 160
        assert result.meta["verification"]["ok"]
        crash = result.meta["faults"]["crash"]
        assert crash["confirmed"] == sorted(
            proc for proc, _at in crash["planned"]
        )
        assert all(lat < 1.0 for _dead, lat in crash["recovery_latency_s"])
        recovery = result.meta["faults"]["recovery"]
        assert recovery["probes_sent"] > 0
        assert recovery["deaths_confirmed"] >= 4
        assert recovery["death_notices_received"] > 0

    def test_same_seed_identical_run_and_counters(self):
        a = crash_run(crash_plan(2))
        b = crash_run(crash_plan(2))
        assert stable_hash(jsonify(a.summary_dict())) == stable_hash(
            jsonify(b.summary_dict())
        )
        assert a.meta["faults"]["recovery"] == b.meta["faults"]["recovery"]
        assert a.meta["faults"]["crash"] == b.meta["faults"]["crash"]

    def test_crash_without_recovery_rejected(self):
        plan = FaultPlan(
            node_crashes=(NodeCrash(proc=1, at_s=0.2),), recovery=None
        )
        with pytest.raises(SimulationError, match="RecoveryPolicy"):
            crash_run(plan)

    def test_crash_plan_validation(self):
        with pytest.raises(SimulationError, match="unknown processors"):
            crash_run(
                FaultPlan(node_crashes=(NodeCrash(proc=99, at_s=0.2),))
            )

    @pytest.mark.parametrize(
        "procs, message",
        [
            ([4], "unknown processors"),
            ([1, 1], "names a processor twice"),
            ([0, 1, 2, 3], "at least one processor must survive"),
        ],
    )
    def test_one_validation_for_both_simulators(self, procs, message):
        crashes = [NodeCrash(proc=p, at_s=0.1) for p in procs]
        with pytest.raises(SimulationError, match=message):
            validate_crashes(crashes, 4)
        with pytest.raises(SimulationError, match=message):
            run_shared_memory(bnre_like(n_wires=20), n_procs=4, crashes=crashes)
        if len(set(procs)) == len(procs):  # FaultPlan itself refuses duplicates
            with pytest.raises(SimulationError, match=message):
                run_message_passing(
                    bnre_like(n_wires=20),
                    UpdateSchedule(),
                    n_procs=4,
                    faults=FaultPlan(node_crashes=tuple(crashes)),
                )
        validate_crashes([NodeCrash(proc=0, at_s=0.1), NodeCrash(proc=3, at_s=0.1)], 4)

    def test_crash_after_completion_is_harmless(self):
        # A crash scheduled far past the finish time never gets confirmed
        # (nothing is waiting on the dead node) but must not hang the run.
        plan = FaultPlan(
            seed=5,
            node_crashes=(NodeCrash(proc=3, at_s=1e6),),
            recovery=RecoveryPolicy(),
        )
        result = crash_run(plan)
        assert len(result.paths) == 160
        assert result.meta["faults"]["crash"]["confirmed"] == []


class TestCounterReconciliationUnderOverlap:
    def test_crash_overlapping_outage_and_stall_reconciles(self):
        # A crash inside a link-outage window plus a node stall: the
        # network books must still reconcile (attempts - dropped +
        # duplicated == injected, enforced by the flit-conservation
        # checker) with crash-dropped traffic counted separately.
        plan = crash_plan(
            2,
            at_s=0.25,
            drop_prob=0.1,
            duplicate_prob=0.05,
            link_windows=(LinkWindow(link=0, start_s=0.2, end_s=0.45),),
            node_stalls=(NodeStall(proc=1, start_s=0.2, end_s=0.4),),
        )
        result = crash_run(plan, check_invariants=True)
        assert len(result.paths) == 160
        assert result.meta["verification"]["ok"]
        injected = result.meta["faults"]["injected"]
        assert injected["dropped"] > 0
        assert injected["nodes_crashed"] == 2
        # fail-stop suppression is accounted outside the lossy books
        assert injected["crash_dropped_sends"] >= 0
        assert (
            injected["crash_dropped_sends"]
            + injected["crash_dropped_deliveries"]
            > 0
        )

    def test_jitter_comes_from_the_fault_seed_stream(self):
        # Same plan, different worker topology (serial vs forked pool):
        # backoff jitter must come from the per-node seeded stream, not
        # any process-global RNG, so the results agree bit for bit.
        config = SimConfig(
            kind="mp",
            which="bnrE",
            n_wires=160,
            schedule=UpdateSchedule.receiver_initiated(1, 5, blocking=True),
            iterations=2,
            faults=crash_plan(2, seed=23),
        )
        serial = run_sim_configs([config, config], jobs=1)
        forked = run_sim_configs([config, config], jobs=2)
        fingerprints = {
            stable_hash(jsonify(r.summary_dict())) for r in serial + forked
        }
        assert len(fingerprints) == 1


# ----------------------------------------------------------------------
# shared memory mirror
# ----------------------------------------------------------------------
class TestSharedMemoryCrashRecovery:
    def test_crashed_processors_work_is_requeued(self):
        circuit = bnre_like(n_wires=160)
        crashes = random_crashes(N_PROCS, 2, at_s=0.3, seed=11)
        result = run_shared_memory(
            circuit,
            n_procs=N_PROCS,
            iterations=2,
            collect_trace=False,
            check_invariants=True,
            crashes=crashes,
        )
        assert len(result.paths) == 160
        assert result.meta["verification"]["ok"]
        crash = result.meta["crash"]
        assert sorted(
            set(range(N_PROCS)) - {c.proc for c in crashes}
        ) == crash["survivors"]

    def test_same_seed_identical_results(self):
        circuit = bnre_like(n_wires=160)
        crashes = random_crashes(N_PROCS, 2, at_s=0.3, seed=11)
        runs = [
            run_shared_memory(
                circuit,
                n_procs=N_PROCS,
                iterations=2,
                collect_trace=False,
                crashes=crashes,
            )
            for _ in range(2)
        ]
        assert stable_hash(jsonify(runs[0].summary_dict())) == stable_hash(
            jsonify(runs[1].summary_dict())
        )

    def test_static_assignment_cannot_host_crashes(self):
        from repro.assign import RoundRobinAssigner

        circuit = bnre_like(n_wires=160)
        regions = RegionMap(circuit.n_channels, circuit.n_grids, N_PROCS)
        assignment = RoundRobinAssigner(circuit, regions).assign()
        with pytest.raises(SimulationError, match="dynamic distributed loop"):
            run_shared_memory(
                circuit,
                n_procs=N_PROCS,
                assignment=assignment,
                crashes=(NodeCrash(proc=0, at_s=0.1),),
            )


# ----------------------------------------------------------------------
# salvaging process pool
# ----------------------------------------------------------------------
def _identity(x):
    return x


def _always_fails(x):
    raise RuntimeError("injected permanent failure")


def _die_once(path, x):
    """SIGKILL the first pool worker that runs; succeed ever after."""
    if multiprocessing.parent_process() is not None and not os.path.exists(path):
        with open(path, "w") as handle:
            handle.write("died")
        os.kill(os.getpid(), signal.SIGKILL)
    return x * 10


class TestSalvagePool:
    def test_salvage_records_failures_without_raising(self):
        report = pool_map_salvage(_always_fails, [1, 2], jobs=1)
        assert not report.ok
        assert report.results == [None, None]
        assert [f.index for f in report.failures] == [0, 1]
        assert all(f.attempts == 2 for f in report.failures)
        summary = report.to_dict()
        assert summary["failed"] == 2 and summary["salvaged"] == 0

    def test_salvage_keeps_partial_results(self):
        def mixed(x):
            if x == 2:
                raise RuntimeError("boom")
            return x

        report = pool_map_salvage(mixed, [1, 2, 3], jobs=1)
        assert report.results == [1, None, 3]
        assert len(report.failures) == 1
        assert report.failures[0].item == 2

    def test_broken_pool_respawns_and_completes(self, tmp_path):
        fn = functools.partial(_die_once, str(tmp_path / "died-once"))
        report = pool_map_salvage(fn, [1, 2, 3, 4], jobs=2)
        assert report.respawns >= 1
        assert report.results == [10, 20, 30, 40]
        assert report.ok

    def test_pool_map_survives_a_broken_pool(self, tmp_path):
        from repro.harness.pool import pool_map

        fn = functools.partial(_die_once, str(tmp_path / "died-once"))
        assert pool_map(fn, [1, 2, 3], jobs=2) == [10, 20, 30]


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
class TestCliCrashFlags:
    def test_quick_crash_smoke_exits_zero(self, capsys):
        from repro.cli import main

        rc = main(
            [
                "mp",
                "--quick",
                "--fault-crash",
                "2",
                "--crash-at",
                "0.3",
                "--fault-seed",
                "11",
                "--check-invariants",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "crashes: 2 planned, 2 confirmed dead" in out
        assert "re-ownership:" in out
        assert "0 violations" in out

    def test_crash_flag_determinism(self, capsys):
        from repro.cli import main

        outputs = []
        for _ in range(2):
            assert (
                main(
                    [
                        "mp",
                        "--quick",
                        "--fault-crash",
                        "2",
                        "--crash-at",
                        "0.3",
                        "--json",
                    ]
                )
                == 0
            )
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
