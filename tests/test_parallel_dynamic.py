"""Tests for dynamic wire assignment and interrupt-driven reception."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.circuits import tiny_test_circuit
from repro.errors import ProtocolError
from repro.grid import CostArray
from repro.harness.simjobs import SimConfig, run_sim_config
from repro.parallel import run_message_passing
from repro.updates import UpdateSchedule


def run_dynamic(circuit, schedule=None, n_procs=16):
    """One routing iteration of *circuit* under the §4.2 dynamic distribution."""
    config = SimConfig(
        kind="mp",
        schedule=schedule or UpdateSchedule(),
        n_procs=n_procs,
        iterations=1,
        assigner="dynamic",
    )
    return run_sim_config(config, circuit)


@pytest.fixture(scope="module")
def circuit():
    return tiny_test_circuit(n_wires=30)


class TestDynamicAssignment:
    def test_routes_every_wire(self, circuit):
        result = run_dynamic(circuit, n_procs=4)
        assert set(result.paths) == set(range(circuit.n_wires))
        assert result.exec_time_s > 0

    def test_truth_is_sum_of_paths(self, circuit):
        result = run_dynamic(circuit, n_procs=4)
        reference = CostArray(circuit.n_channels, circuit.n_grids)
        for path in result.paths.values():
            reference.apply_path(path.flat_cells)
        assert reference == result.truth

    def test_deterministic(self, circuit):
        a = run_dynamic(circuit, n_procs=4)
        b = run_dynamic(circuit, n_procs=4)
        assert a.quality == b.quality and a.exec_time_s == b.exec_time_s

    def test_wait_statistics_reported(self, circuit):
        result = run_dynamic(circuit, n_procs=4)
        assert result.meta["mean_task_wait_s"] >= 0
        assert result.meta["assignment"] == "dynamic (polled)"

    def test_interrupt_variant_lowers_wait(self, circuit):
        polled = run_dynamic(circuit, n_procs=4)
        schedule = replace(UpdateSchedule(), interrupt_reception=True)
        interrupt = run_dynamic(circuit, schedule, n_procs=4)
        assert interrupt.meta["assignment"] == "dynamic (interrupt)"
        assert (
            interrupt.meta["mean_task_wait_s"] <= polled.meta["mean_task_wait_s"]
        )

    def test_sender_updates_flow(self, circuit):
        schedule = UpdateSchedule.sender_initiated(1, 1)
        result = run_dynamic(circuit, schedule, n_procs=4)
        assert result.network.bytes_by_kind.get("SEND_LOC_DATA", 0) > 0

    def test_receiver_schedules_rejected(self, circuit):
        with pytest.raises(ProtocolError):
            run_dynamic(circuit, UpdateSchedule.receiver_initiated(1, 5))

    def test_wire_router_covers_all_procs_eventually(self, circuit):
        result = run_dynamic(circuit, n_procs=4)
        assert set(result.wire_router.tolist()) <= set(range(4))
        # self-scheduling should spread the work
        assert len(set(result.wire_router.tolist())) >= 2


class TestInterruptReception:
    def test_interrupts_serviced_counter(self, circuit):
        schedule = replace(
            UpdateSchedule.receiver_initiated(1, 3), interrupt_reception=True
        )
        result = run_message_passing(circuit, schedule, n_procs=4, iterations=2)
        # the run completes and every wire is routed with interrupts on
        assert set(result.paths) == set(range(circuit.n_wires))

    def test_interrupts_reduce_blocking_penalty(self, circuit):
        polled = run_message_passing(
            circuit,
            UpdateSchedule.receiver_initiated(1, 3, blocking=True),
            n_procs=4,
            iterations=2,
        )
        interrupt = run_message_passing(
            circuit,
            replace(
                UpdateSchedule.receiver_initiated(1, 3, blocking=True),
                interrupt_reception=True,
            ),
            n_procs=4,
            iterations=2,
        )
        assert interrupt.exec_time_s <= polled.exec_time_s

    def test_interrupt_run_still_consistent(self, circuit):
        schedule = replace(
            UpdateSchedule.receiver_initiated(1, 3, blocking=True),
            interrupt_reception=True,
        )
        result = run_message_passing(circuit, schedule, n_procs=4, iterations=2)
        reference = CostArray(circuit.n_channels, circuit.n_grids)
        for path in result.paths.values():
            reference.apply_path(path.flat_cells)
        assert reference == result.truth
