"""§4.2 dynamic distribution as a wire source of the one ``MPNode``.

``tests/test_parallel_dynamic.py`` pins the public wrapper's contract;
these cover what only the shared node and ledger give a dynamic run:
invariant checking, exactly-once grants, the degenerate one-processor
machine and the driver's refusals.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.assign import DistributedLoop
from repro.circuits import bnre_like, tiny_test_circuit
from repro.cli import main
from repro.errors import ProtocolError, SimulationError
from repro.faults import FaultPlan, NodeCrash
from repro.harness.simjobs import SimConfig, run_sim_config
from repro.parallel import run_message_passing
from repro.route import SequentialRouter
from repro.updates import UpdateSchedule


def dynamic_run(circuit, schedule, n_procs, **kwargs):
    loop = DistributedLoop(range(circuit.n_wires))
    result = run_message_passing(
        circuit, schedule, n_procs=n_procs, iterations=1, assignment=loop, **kwargs
    )
    return result, loop


class TestOneProcessor:
    def test_equals_the_sequential_router_without_warnings(self):
        circuit = tiny_test_circuit(n_wires=30)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            config = SimConfig(
                kind="mp", schedule=UpdateSchedule(), n_procs=1, iterations=1, assigner="dynamic"
            )
            result = run_sim_config(config, circuit)
        assert result.meta["mean_task_wait_s"] == 0.0
        sequential = SequentialRouter(circuit, iterations=1).run()
        assert set(result.paths) == set(sequential.paths)
        for wire, path in sequential.paths.items():
            assert np.array_equal(result.paths[wire].flat_cells, path.flat_cells)
        assert result.quality == sequential.quality
        assert result.network.n_messages == 0

    def test_cli_json_is_valid(self, capsys):
        assert main(["dynamic", "--wires", "30", "--procs", "1", "--json"]) == 0

        def reject(constant):
            raise AssertionError(f"invalid JSON constant {constant}")

        json.loads(capsys.readouterr().out, parse_constant=reject)


@pytest.mark.parametrize("interrupts", [False, True], ids=["polled", "interrupt"])
def test_invariants_green(interrupts):
    schedule = replace(
        UpdateSchedule.sender_initiated(2, 5), interrupt_reception=interrupts
    )
    result, _ = dynamic_run(
        bnre_like(n_wires=60), schedule, n_procs=4, check_invariants=True
    )
    report = result.meta["verification_report"]
    assert report.ok, report.render()
    for check in ("cost-conservation", "flit-conservation", "replica-convergence"):
        assert report.checks_run.get(check, 0) > 0, check


@settings(max_examples=25, deadline=None)
@given(
    n_wires=st.integers(1, 40),
    seed=st.integers(0, 2**16),
    n_procs=st.integers(1, 9),
    send_loc=st.sampled_from([None, 1, 3]),
    send_rmt=st.sampled_from([None, 1, 4]),
    interrupts=st.booleans(),
)
def test_every_wire_granted_once_to_its_router(
    n_wires, seed, n_procs, send_loc, send_rmt, interrupts
):
    circuit = tiny_test_circuit(n_wires=n_wires, seed=seed)
    schedule = UpdateSchedule(
        send_loc_every=send_loc, send_rmt_every=send_rmt, interrupt_reception=interrupts
    )
    result, loop = dynamic_run(circuit, schedule, n_procs)
    assert loop.grabs == n_wires and loop.remaining == 0
    assert set(result.paths) == set(range(n_wires))
    routed = [node.wires_routed for node in result.node_summaries]
    assert sum(routed) == n_wires
    assert np.bincount(result.wire_router, minlength=n_procs).tolist() == routed
    if n_procs > 1:
        # Every non-master node: one request per wire it routed plus the
        # one answered "none left".  The master asks itself off the network.
        task_bytes = result.network.bytes_by_kind
        expected = sum(routed[1:]) + n_procs - 1
        assert result.network.messages_by_kind.get("TASK_REQUEST", 0) == expected
        assert task_bytes["TASK_REQUEST"] == task_bytes["TASK_GRANT"] == 12 * expected


class TestRefusals:
    circuit = tiny_test_circuit(n_wires=20)

    def test_crash_plans(self):
        plan = FaultPlan(node_crashes=(NodeCrash(proc=1, at_s=0.01),))
        with pytest.raises(SimulationError, match="static wire responsibility"):
            dynamic_run(self.circuit, UpdateSchedule(), 4, faults=plan)

    def test_receiver_initiated_schedules(self):
        with pytest.raises(ProtocolError, match="cannot look ahead"):
            dynamic_run(self.circuit, UpdateSchedule.receiver_initiated(1, 5), 4)

    def test_more_than_one_iteration(self):
        loop = DistributedLoop(range(self.circuit.n_wires))
        with pytest.raises(SimulationError, match="one iteration"):
            run_message_passing(
                self.circuit, UpdateSchedule(), n_procs=4, iterations=2, assignment=loop
            )

    def test_a_loop_that_does_not_cover_the_circuit(self):
        loop = DistributedLoop(range(self.circuit.n_wires - 1))
        with pytest.raises(SimulationError, match="every wire"):
            run_message_passing(
                self.circuit, UpdateSchedule(), n_procs=4, iterations=1, assignment=loop
            )

    def test_lossy_plans_spare_the_task_channel(self):
        # Task messages are control packets: like heartbeats they ride the
        # reliable channel, so drops cost update traffic, never a wire.
        plan = FaultPlan(seed=3, drop_prob=0.5, duplicate_prob=0.3)
        result, loop = dynamic_run(
            self.circuit, UpdateSchedule.sender_initiated(1, 1), 4, faults=plan
        )
        assert loop.grabs == self.circuit.n_wires
        assert set(result.paths) == set(range(self.circuit.n_wires))
