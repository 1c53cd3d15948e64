"""Integration tests for the message passing LocusRoute simulation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.assign import RoundRobinAssigner, ThresholdCostAssigner
from repro.circuits import bnre_like, tiny_test_circuit
from repro.errors import SimulationError
from repro.grid import CostArray, RegionMap
from repro.parallel import mp_sim, run_message_passing
from repro.parallel.node import MPNode
from repro.updates import UpdateSchedule


@pytest.fixture(scope="module")
def circuit():
    return tiny_test_circuit(n_wires=30)


def run(circuit, schedule, **kw):
    kw.setdefault("n_procs", 4)
    kw.setdefault("iterations", 2)
    return run_message_passing(circuit, schedule, **kw)


SCHEDULES = {
    "sender": UpdateSchedule.sender_initiated(2, 5),
    "receiver": UpdateSchedule.receiver_initiated(1, 3),
    "blocking": UpdateSchedule.receiver_initiated(1, 3, blocking=True),
    "mixed": UpdateSchedule.mixed_example(),
    "silent": UpdateSchedule(),
}


class TestCompleteness:
    @pytest.mark.parametrize("name", list(SCHEDULES))
    def test_every_wire_routed(self, circuit, name):
        result = run(circuit, SCHEDULES[name])
        assert set(result.paths) == set(range(circuit.n_wires))
        assert result.exec_time_s > 0

    @pytest.mark.parametrize("name", list(SCHEDULES))
    def test_truth_is_sum_of_paths(self, circuit, name):
        """The ground-truth cost array must exactly equal the union of the
        final committed paths — rip-up bookkeeping never leaks."""
        result = run(circuit, SCHEDULES[name])
        reference = CostArray(circuit.n_channels, circuit.n_grids)
        for path in result.paths.values():
            reference.apply_path(path.flat_cells)
        assert reference == result.truth

    def test_all_nodes_finish(self, circuit):
        result = run(circuit, SCHEDULES["sender"])
        assert all(s.wires_routed > 0 or True for s in result.node_summaries)
        assert sum(s.wires_routed for s in result.node_summaries) == 2 * circuit.n_wires


class TestDeterminism:
    @pytest.mark.parametrize("name", ["sender", "receiver", "mixed"])
    def test_repeat_runs_identical(self, circuit, name):
        a = run(circuit, SCHEDULES[name])
        b = run(circuit, SCHEDULES[name])
        assert a.quality == b.quality
        assert a.exec_time_s == b.exec_time_s
        assert a.network.total_bytes == b.network.total_bytes


class TestTrafficSemantics:
    def test_silent_schedule_sends_nothing(self, circuit):
        result = run(circuit, SCHEDULES["silent"])
        assert result.network.n_messages == 0
        assert result.mbytes_transferred == 0.0

    def test_sender_traffic_by_kind(self, circuit):
        result = run(circuit, SCHEDULES["sender"])
        kinds = set(result.network.bytes_by_kind)
        assert kinds <= {"SEND_LOC_DATA", "SEND_RMT_DATA"}
        assert result.network.total_bytes > 0

    def test_receiver_traffic_by_kind(self, circuit):
        result = run(circuit, SCHEDULES["receiver"])
        kinds = set(result.network.bytes_by_kind)
        assert "REQ_RMT_DATA" in kinds
        assert "RSP_RMT_DATA" in kinds
        # every request gets exactly one response
        assert (
            result.network.messages_by_kind["REQ_RMT_DATA"]
            == result.network.messages_by_kind["RSP_RMT_DATA"]
        )

    def test_more_frequent_updates_more_traffic(self, circuit):
        frequent = run(circuit, UpdateSchedule.sender_initiated(1, 1))
        sparse = run(circuit, UpdateSchedule.sender_initiated(10, 10))
        assert frequent.network.total_bytes > sparse.network.total_bytes


class TestBlocking:
    def test_blocking_not_faster(self, circuit):
        non = run(circuit, SCHEDULES["receiver"])
        blk = run(circuit, SCHEDULES["blocking"])
        assert blk.exec_time_s >= non.exec_time_s
        assert any(s.blocked_time_s > 0 for s in blk.node_summaries)

    def test_non_blocking_never_blocks(self, circuit):
        non = run(circuit, SCHEDULES["receiver"])
        assert all(s.blocked_time_s == 0 for s in non.node_summaries)


class TestQualityVsStaleness:
    def test_updates_help_quality(self, circuit):
        """Silent (never-updating) nodes route blind; any update scheme
        should do at least as well on occupancy."""
        silent = run(circuit, SCHEDULES["silent"], iterations=3)
        updated = run(circuit, UpdateSchedule.sender_initiated(1, 1), iterations=3)
        assert updated.quality.occupancy_factor <= silent.quality.occupancy_factor * 1.05

    def test_single_processor_matches_low_staleness(self, circuit):
        """One processor has nothing to be stale about."""
        single = run(circuit, UpdateSchedule(), n_procs=1, iterations=3)
        many = run(circuit, UpdateSchedule(), n_procs=4, iterations=3)
        assert single.quality.occupancy_factor <= many.quality.occupancy_factor


class TestConfiguration:
    def test_assignment_mismatch_rejected(self, circuit):
        regions = RegionMap(circuit.n_channels, circuit.n_grids, 8)
        wrong = RoundRobinAssigner(circuit, regions).assign()
        with pytest.raises(SimulationError):
            run(circuit, SCHEDULES["sender"], n_procs=4, assignment=wrong)

    def test_custom_assignment_respected(self, circuit):
        regions = RegionMap(circuit.n_channels, circuit.n_grids, 4)
        asg = ThresholdCostAssigner(circuit, regions, 30).assign()
        result = run(circuit, SCHEDULES["sender"], assignment=asg)
        assert np.array_equal(result.wire_router, asg.owner)
        assert result.meta["assignment"] == "ThresholdCost=30"

    def test_meta_echoes_configuration(self, circuit):
        result = run(circuit, SCHEDULES["mixed"])
        assert result.meta["n_procs"] == 4
        assert result.meta["schedule"] == SCHEDULES["mixed"].describe()
        assert result.paradigm == "message_passing"

    def test_two_processors(self, circuit):
        result = run(circuit, SCHEDULES["sender"], n_procs=2)
        assert set(result.paths) == set(range(circuit.n_wires))


class TestNodeAccounting:
    def test_work_and_messages_recorded(self, circuit):
        result = run(circuit, SCHEDULES["sender"])
        total_sent = sum(s.messages_sent for s in result.node_summaries)
        total_recv = sum(s.messages_received for s in result.node_summaries)
        assert total_sent == total_recv == result.network.n_messages
        assert all(s.route_units > 0 for s in result.node_summaries if s.wires_routed)

    def test_message_overhead_fraction_bounded(self, circuit):
        result = run(circuit, UpdateSchedule.sender_initiated(1, 1))
        for s in result.node_summaries:
            assert 0.0 <= s.message_overhead_fraction < 0.9


class TestDeltaWriteLog:
    def test_receiver_initiated_run_keeps_the_log_bounded(self, monkeypatch):
        """Regression: the delta array's write log was compacted only by
        the SendRmtData scan, so a schedule that never pushes kept every
        path array it had ever recorded (15 000+ logged cells per node on
        this 3 410-cell grid)."""
        nodes = []

        class Recording(MPNode):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                nodes.append(self)

        monkeypatch.setattr(mp_sim, "MPNode", Recording)
        circuit = bnre_like(n_wires=240)
        run_message_passing(
            circuit, UpdateSchedule.receiver_initiated(1, 5), n_procs=4, iterations=3
        )
        n_cells = circuit.n_channels * circuit.n_grids
        assert len(nodes) == 4
        for node in nodes:
            logged = sum(cells.size for cells in node.delta._touched)
            assert logged <= 3 * n_cells
            scan = node.delta.dirty_bboxes_by_owner(node.regions)
            for proc in range(4):
                assert scan.get(proc) == node.delta.region_dirty_bbox(
                    node.regions.region(proc)
                )
