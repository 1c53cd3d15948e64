"""Differential, property, and stress tests for the live parallel routers.

The live routers (:mod:`repro.parallel.live`) execute on real cores, so
their parallel runs are scheduling-dependent; these tests pin down the
properties that must hold regardless of interleaving:

- **differential**: live quality stays within the documented tolerance of
  the matching simulator and of the sequential reference, and the 1-proc
  live run *equals* the sequential run (no race, same algorithm);
- **replay**: commit-log replay through the ground-truth ledger
  reproduces the final array bit-exactly (a clean
  ``meta["verification"]``), and (hypothesis) replaying *any* valid
  interleaving of commit records yields exactly the union of the
  still-committed paths;
- **crash stress**: a SIGKILLed worker mid-iteration never loses a
  committed wire — the run completes via salvage/respawn with correct
  ``crash_dropped_*`` accounting.

Both start methods are exercised where it matters; the whole suite also
runs under ``REPRO_MP_START_METHOD=spawn`` in CI.
"""

from __future__ import annotations

import multiprocessing

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.circuits import Circuit, Pin, Wire, bnre_like, mdc_like, tiny_test_circuit
from repro.errors import ReproError, SimulationError
from repro.grid import CostArray
from repro.parallel import run_message_passing, run_shared_memory
from repro.parallel.live import (
    COMMIT,
    RIPUP,
    CommitRecord,
    KillPlanEntry,
    read_log,
    replay_records,
    run_live_message_passing,
    run_live_shared_memory,
)
from repro.parallel.live.commitlog import LOG_MAGIC, CommitLogWriter
from repro.route import SequentialRouter
from repro.updates import UpdateSchedule
from repro.verify.live import LIVE_MP_AGREEMENT, LIVE_QUALITY_TOLERANCE

START_METHODS = [
    m for m in ("fork", "spawn") if m in multiprocessing.get_all_start_methods()
]
ITERATIONS = 2


@pytest.fixture(scope="module")
def circuit():
    return tiny_test_circuit(seed=7, n_wires=24)


@pytest.fixture(scope="module")
def sequential(circuit):
    return SequentialRouter(circuit, iterations=ITERATIONS).run()


def assert_within_tolerance(live, ref, tolerance=LIVE_QUALITY_TOLERANCE):
    for attr in ("circuit_height", "occupancy_factor"):
        ref_v, live_v = getattr(ref, attr), getattr(live, attr)
        assert abs(live_v - ref_v) <= tolerance * ref_v, (
            f"{attr}: live {live_v} vs reference {ref_v} "
            f"(tolerance {tolerance:.0%})"
        )


def assert_replayed(result):
    """The commit-log replay's ledger verdict is clean."""
    verification = result.meta["verification"]
    assert verification["ok"], verification["violations"]


def assert_complete(result, circuit):
    """Every wire routed, truth is exactly the union of the final paths."""
    assert set(result.paths) == set(range(circuit.n_wires))
    union = CostArray(circuit.n_channels, circuit.n_grids)
    for path in result.paths.values():
        union.apply_path(path.flat_cells)
    assert union == result.truth


class TestLiveSharedMemory:
    @pytest.mark.parametrize("start_method", START_METHODS)
    def test_differential_vs_simulator_and_reference(
        self, circuit, sequential, start_method
    ):
        live = run_live_shared_memory(
            circuit, n_procs=2, iterations=ITERATIONS, start_method=start_method
        )
        assert_replayed(live)
        assert_complete(live, circuit)
        assert_within_tolerance(live.quality, sequential.quality)
        sim = run_shared_memory(
            circuit, n_procs=2, iterations=ITERATIONS, collect_trace=False
        )
        assert_within_tolerance(live.quality, sim.quality)

    def test_single_proc_equals_sequential(self, circuit, sequential):
        """One worker, natural order: the sequential algorithm exactly."""
        live = run_live_shared_memory(circuit, n_procs=1, iterations=ITERATIONS)
        assert_replayed(live)
        assert live.quality == sequential.quality
        assert live.truth == sequential.cost
        for w, path in sequential.paths.items():
            assert np.array_equal(live.paths[w].flat_cells, path.flat_cells)

    def test_single_proc_repeats_bit_identical(self, circuit):
        runs = [
            run_live_shared_memory(
                circuit, n_procs=1, iterations=ITERATIONS, seed=123
            )
            for _ in range(2)
        ]
        assert runs[0].quality == runs[1].quality
        assert runs[0].truth == runs[1].truth
        for w in runs[0].paths:
            assert np.array_equal(
                runs[0].paths[w].flat_cells, runs[1].paths[w].flat_cells
            )

    def test_shuffled_order_still_replays(self, circuit):
        live = run_live_shared_memory(
            circuit, n_procs=2, iterations=ITERATIONS, seed=99
        )
        assert_replayed(live)
        assert_complete(live, circuit)


class TestLiveMessagePassing:
    @pytest.mark.parametrize("start_method", START_METHODS)
    def test_differential_vs_simulator_and_reference(
        self, circuit, sequential, start_method
    ):
        schedule = UpdateSchedule.sender_initiated(1, 1)
        live = run_live_message_passing(
            circuit,
            schedule,
            n_procs=2,
            iterations=ITERATIONS,
            start_method=start_method,
        )
        assert_replayed(live)
        assert_complete(live, circuit)
        assert_within_tolerance(live.quality, sequential.quality)
        sim = run_message_passing(
            circuit, schedule, n_procs=2, iterations=ITERATIONS
        )
        assert_within_tolerance(live.quality, sim.quality)

    def test_single_proc_repeats_bit_identical(self, circuit):
        runs = [
            run_live_message_passing(circuit, n_procs=1, iterations=ITERATIONS)
            for _ in range(2)
        ]
        assert runs[0].quality == runs[1].quality
        assert runs[0].truth == runs[1].truth

    def test_single_proc_equals_sequential(self, circuit, sequential):
        """One node, no peers, no packets: the sequential algorithm exactly."""
        live = run_live_message_passing(circuit, n_procs=1, iterations=ITERATIONS)
        assert_replayed(live)
        assert live.quality == sequential.quality
        assert live.truth == sequential.cost
        for w, path in sequential.paths.items():
            assert np.array_equal(live.paths[w].flat_cells, path.flat_cells)
        assert live.meta["traffic"]["messages_sent"] == 0

    def test_blocking_requests_and_watchdog_counters(self, circuit):
        schedule = UpdateSchedule(req_rmt_every=2, blocking=True)
        live = run_live_message_passing(
            circuit, schedule, n_procs=2, iterations=ITERATIONS
        )
        assert_replayed(live)
        traffic = live.meta["traffic"]
        assert traffic["requests_sent"] > 0
        # every request is eventually serviced or abandoned, never lost
        assert traffic["requests_serviced"] >= 0
        assert traffic["requests_abandoned"] + traffic["requests_serviced"] > 0

    def test_mixed_schedule_all_four_update_kinds_flow(self, circuit):
        """The §5.1.3 mixed schedule runs live, ReqLocData included.

        The shutdown handshake runs to quiescence, so with nothing
        abandoned every request sent was serviced — exactly.
        """
        live = run_live_message_passing(
            circuit, UpdateSchedule.mixed_example(), n_procs=2, iterations=ITERATIONS
        )
        assert_replayed(live)
        assert_complete(live, circuit)
        traffic = live.meta["traffic"]
        for kind in ("SendLocData", "SendRmtData", "ReqRmtData", "ReqLocData"):
            assert traffic.get(kind, 0) > 0, (kind, traffic)
        assert traffic["requests_sent"] == (
            traffic["ReqRmtData"] + traffic["ReqLocData"]
        )
        assert traffic["requests_abandoned"] == 0
        assert traffic["requests_serviced"] == traffic["requests_sent"]

    def test_node_without_wires_reports_finished(self, circuit):
        """MPNode never calls on_finished for an empty queue; the driver does."""
        from repro.assign.base import Assignment

        everything_on_node_0 = Assignment(
            np.zeros(circuit.n_wires, dtype=np.int64), 2, "all-on-0"
        )
        live = run_live_message_passing(
            circuit,
            n_procs=2,
            iterations=ITERATIONS,
            assignment=everything_on_node_0,
            timeout_s=30.0,
        )
        assert_replayed(live)
        assert_complete(live, circuit)
        assert live.node_summaries[1].wires_routed == 0


@pytest.mark.timeout(180)
@pytest.mark.parametrize("start_method", START_METHODS)
class TestLiveMessagePassingFullSize:
    """Full circuits at 4-8 nodes: where the hand-written twin broke.

    The first two configurations died in the shutdown race (a parked node
    took a peer's closed pipe for a crash); the third is the send/recv
    deadlock case (two nodes with full inbound pipes, both in ``send``).
    """

    ITERATIONS = 3

    def run_and_check(self, circuit, schedule, n_procs, start_method):
        live = run_live_message_passing(
            circuit,
            schedule,
            n_procs=n_procs,
            iterations=self.ITERATIONS,
            start_method=start_method,
            timeout_s=90.0,
        )
        assert_replayed(live)
        assert_complete(live, circuit)
        sim = run_message_passing(
            circuit, schedule, n_procs=n_procs, iterations=self.ITERATIONS
        )
        assert_within_tolerance(live.quality, sim.quality, LIVE_MP_AGREEMENT)
        return live

    def test_bnre_sender_2_5_at_8_nodes(self, start_method):
        self.run_and_check(
            bnre_like(), UpdateSchedule.sender_initiated(2, 5), 8, start_method
        )

    def test_mdc_sender_1_1_at_4_nodes(self, start_method):
        self.run_and_check(
            mdc_like(), UpdateSchedule.sender_initiated(1, 1), 4, start_method
        )

    def test_bnre_mixed_at_4_nodes_finishes(self, start_method):
        live = self.run_and_check(
            bnre_like(), UpdateSchedule.mixed_example(), 4, start_method
        )
        traffic = live.meta["traffic"]
        if not traffic["requests_abandoned"]:
            assert traffic["requests_serviced"] == traffic["requests_sent"]


# ---------------------------------------------------------------------------
# hypothesis: replay of arbitrary commit-record interleavings
# ---------------------------------------------------------------------------
N_CHANNELS, N_GRIDS = 4, 16


@st.composite
def record_interleavings(draw):
    """Valid per-wire record sequences, arbitrarily interleaved globally.

    Per wire: commits in order, each optionally preceded by an explicit
    rip-up of the previous commit (the live workers' pattern), and
    optionally a trailing rip-up that leaves the wire unrouted.  Across
    wires: any interleaving, as produced by real workers racing.
    """
    n_wires = draw(st.integers(1, 5))
    cells_strategy = st.lists(
        st.integers(0, N_CHANNELS * N_GRIDS - 1),
        min_size=1,
        max_size=6,
        unique=True,
    )
    per_wire = {}
    for w in range(n_wires):
        commits = [
            np.sort(np.asarray(draw(cells_strategy), dtype=np.int64))
            for _ in range(draw(st.integers(1, 3)))
        ]
        tokens = []
        for i, cells in enumerate(commits):
            if i and draw(st.booleans()):
                tokens.append((RIPUP, commits[i - 1]))
            tokens.append((COMMIT, cells))
        if draw(st.booleans()):
            tokens.append((RIPUP, commits[-1]))
        per_wire[w] = tokens
    ordered = []
    pending = {w: list(t) for w, t in per_wire.items() if t}
    while pending:
        w = draw(st.sampled_from(sorted(pending)))
        ordered.append((w, *pending[w].pop(0)))
        if not pending[w]:
            del pending[w]
    return ordered


def grid_circuit(n_wires):
    """A circuit whose cost array is the property test's grid.

    Replay never routes, so the pins only give the wires their count.
    """
    return Circuit(
        "replay-grid",
        N_CHANNELS,
        N_GRIDS,
        [Wire(f"w{w}", [Pin(0, 0), Pin(1, 0)]) for w in range(n_wires)],
    )


@settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(interleaving=record_interleavings())
def test_replay_is_union_of_committed_paths(interleaving):
    """Replaying any worker interleaving yields the committed-path union."""
    records = [
        CommitRecord(
            kind=kind,
            worker=wire % 3,
            iteration=0,
            wire=wire,
            seq=seq,
            price=-1,
            cells=cells,
        )
        for seq, (wire, kind, cells) in enumerate(interleaving)
    ]
    n_wires = 1 + max(wire for wire, _k, _c in interleaving)
    ledger = replay_records(records, grid_circuit(n_wires), iterations=1)
    # final committed path per wire = its last commit, unless ripped after
    expected_live = {}
    for wire, kind, cells in interleaving:
        if kind == COMMIT:
            expected_live[wire] = cells
        else:
            expected_live.pop(wire, None)
    standing = {w for w in range(n_wires) if ledger.standing(w) is not None}
    assert standing == set(expected_live)
    union = CostArray(N_CHANNELS, N_GRIDS)
    for cells in expected_live.values():
        union.apply_path(cells)
    assert union == ledger.truth
    # Every rip-up took out the standing path and every commit conserved
    # the cell count: the only failures are the two end-of-log checks,
    # and each fails exactly when the interleaving says it must.
    commits = sum(1 for _, k, _c in interleaving if k == COMMIT)
    violations = ledger.report.violations
    assert {v.invariant for v in violations} <= {"replay-commits", "replay-standing"}
    assert [v.actual for v in violations if v.invariant == "replay-commits"] == (
        [] if commits == n_wires else [commits]
    )
    assert any(v.invariant == "replay-standing" for v in violations) == (
        len(expected_live) < n_wires
    )


@pytest.mark.parametrize("ripped", [[1, 5, 9], [1, 5, 10]])
def test_ripup_record_must_name_the_standing_path(ripped):
    """A rip-up whose cells are not the wire's standing path fails the verdict."""
    cells = [np.array(c, dtype=np.int64) for c in ([1, 5, 9], ripped, [2, 6])]
    records = [
        CommitRecord(kind, 0, i // 2, 0, i, -1, c)
        for i, (kind, c) in enumerate(zip((COMMIT, RIPUP, COMMIT), cells))
    ]
    ledger = replay_records(records, grid_circuit(1), iterations=2)
    ledger.close(len(records))
    # the standing path is what leaves the array, whatever the record says
    expected = CostArray(N_CHANNELS, N_GRIDS)
    expected.apply_path(cells[2])
    assert ledger.truth == expected
    verification = ledger.verification_meta()["verification"]
    assert verification["ok"] == (ripped == [1, 5, 9])
    assert {v["invariant"] for v in verification["violations"]} <= {"replay-ripup"}


# ---------------------------------------------------------------------------
# commit-log durability details
# ---------------------------------------------------------------------------
class TestCommitLogFile:
    def test_roundtrip_and_truncated_tail(self, tmp_path):
        path = str(tmp_path / "w0.log")
        writer = CommitLogWriter(path, worker=0)
        cells = np.array([1, 5, 9], dtype=np.int64)
        writer.append(COMMIT, 0, 3, 17, cells, price=4)
        writer.append(RIPUP, 1, 3, 42, cells)
        writer.close()
        records = read_log(path)
        assert [r.kind for r in records] == [COMMIT, RIPUP]
        assert records[0].price == 4 and records[0].seq == 17
        assert np.array_equal(records[1].cells, cells)
        # a SIGKILL mid-append leaves a truncated record: dropped, not fatal
        with open(path, "ab") as f:
            f.write(b"\x01\x00\x00")
        assert [r.kind for r in read_log(path)] == [COMMIT, RIPUP]

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "not_a_log"
        path.write_bytes(b"something else entirely")
        with pytest.raises(SimulationError):
            read_log(str(path))

    def test_magic_constant_is_stable(self):
        # the on-disk format is a compatibility surface: changing it must
        # be a conscious version bump, not an accident
        assert LOG_MAGIC == b"LRCLOG1\n"


# ---------------------------------------------------------------------------
# seeded kill / recovery stress
# ---------------------------------------------------------------------------
class TestCrashStress:
    @pytest.mark.timeout(120)
    @pytest.mark.parametrize("point", ["after_grab", "after_ripup", "after_commit"])
    def test_sigkill_worker_with_respawn(self, circuit, point):
        plan = (KillPlanEntry(slot=1, after_commits=3, point=point),)
        result = run_live_shared_memory(
            circuit,
            n_procs=2,
            iterations=ITERATIONS,
            kill_plan=plan,
            respawn=True,
        )
        assert_replayed(result)
        assert_complete(result, circuit)
        crash = result.meta["crash"]
        assert crash["planned"] == 1
        assert any(slot == 1 for slot, _inc in crash["confirmed"])
        assert crash["respawned"] == 1
        # durable logs: a completed commit can never be lost to a crash
        assert crash["crash_dropped_commits"] == 0
        assert crash["crash_dropped_inflight"] == crash["requeued_wires"]
        assert result.meta["workers"][1]["incarnations"] == 2

    @pytest.mark.timeout(120)
    def test_kill_fires_even_when_scheduler_would_starve_the_victim(self, circuit):
        """The distributed loop reserves grabs for unfired kill plans.

        A threshold above the victim's fair share (30 of the run's 48
        commits) can only be reached because the loop holds back the tail
        of each iteration for the armed worker; without the reservation
        the sibling drains the loop and the plan silently never fires.
        """
        plan = (KillPlanEntry(slot=1, after_commits=30, point="after_commit"),)
        result = run_live_shared_memory(
            circuit,
            n_procs=2,
            iterations=ITERATIONS,
            kill_plan=plan,
            respawn=True,
        )
        assert_replayed(result)
        assert_complete(result, circuit)
        crash = result.meta["crash"]
        assert any(slot == 1 for slot, _inc in crash["confirmed"])
        assert crash["respawned"] == 1
        assert crash["crash_dropped_commits"] == 0

    @pytest.mark.timeout(120)
    def test_sigkill_without_respawn_survivor_salvages(self, circuit):
        plan = (KillPlanEntry(slot=0, after_commits=2, point="after_ripup"),)
        result = run_live_shared_memory(
            circuit,
            n_procs=2,
            iterations=ITERATIONS,
            kill_plan=plan,
            respawn=False,
        )
        assert_replayed(result)
        assert_complete(result, circuit)
        crash = result.meta["crash"]
        assert crash["crash_dropped_commits"] == 0
        # the killed worker's in-flight wire was adopted by the survivor
        assert set(result.paths) == set(range(circuit.n_wires))

    @pytest.mark.timeout(120)
    def test_crash_quality_unaffected(self, circuit):
        """Salvage must reroute, not drop: quality stays in tolerance."""
        clean = run_live_shared_memory(circuit, n_procs=1, iterations=ITERATIONS)
        crashed = run_live_shared_memory(
            circuit,
            n_procs=2,
            iterations=ITERATIONS,
            kill_plan=(KillPlanEntry(slot=1, after_commits=4),),
            respawn=True,
        )
        assert_replayed(crashed)
        assert_within_tolerance(crashed.quality, clean.quality)


# ---------------------------------------------------------------------------
# every engine refuses zero iterations before it routes anything
# ---------------------------------------------------------------------------
@pytest.mark.parametrize(
    "engine",
    [
        lambda c: SequentialRouter(c, iterations=0).run(),
        lambda c: run_shared_memory(c, n_procs=2, iterations=0),
        lambda c: run_message_passing(
            c, UpdateSchedule.sender_initiated(1, 1), n_procs=2, iterations=0
        ),
        lambda c: run_live_shared_memory(c, n_procs=1, iterations=0),
        lambda c: run_live_message_passing(c, n_procs=1, iterations=0),
    ],
    ids=["sequential", "sm", "mp", "sm_live", "mp_live"],
)
def test_zero_iterations_rejected_up_front(circuit, engine):
    with pytest.raises(ReproError, match=r">= 1\b.*got 0"):
        engine(circuit)


# ---------------------------------------------------------------------------
# X7: the live-vs-simulated experiment passes its shape checks
# ---------------------------------------------------------------------------
def test_x7_experiment_passes():
    from repro.harness.experiments import run_experiment

    result = run_experiment("X7", quick=True)
    assert result.passed, result.checks
    assert result.extras["live_sm_speedup"] > 0
