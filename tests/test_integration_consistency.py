"""Cross-paradigm integration invariants.

These tests run the same circuit through every execution engine —
sequential, shared memory, message passing (static and dynamic) — and
assert the relationships that must hold between them regardless of
calibration constants.
"""

from __future__ import annotations

import pytest

from repro.circuits import tiny_test_circuit
from repro.grid import CostArray
from repro.harness.simjobs import SimConfig, run_sim_config
from repro.parallel import run_message_passing, run_shared_memory
from repro.route import SequentialRouter
from repro.updates import UpdateSchedule


@pytest.fixture(scope="module")
def circuit():
    return tiny_test_circuit(n_wires=40)


@pytest.fixture(scope="module")
def all_runs(circuit):
    return {
        "sequential": SequentialRouter(circuit, iterations=2).run(),
        "shared": run_shared_memory(circuit, n_procs=4, iterations=2),
        "mp_sender": run_message_passing(
            circuit, UpdateSchedule.sender_initiated(2, 2), n_procs=4, iterations=2
        ),
        "mp_receiver": run_message_passing(
            circuit, UpdateSchedule.receiver_initiated(1, 3), n_procs=4, iterations=2
        ),
        "dynamic": run_sim_config(
            SimConfig(
                kind="mp",
                schedule=UpdateSchedule(),
                n_procs=4,
                iterations=1,
                assigner="dynamic",
            ),
            circuit,
        ),
    }


class TestSolutionValidity:
    def test_every_engine_routes_every_wire(self, all_runs, circuit):
        for name, result in all_runs.items():
            assert set(result.paths) == set(range(circuit.n_wires)), name

    def test_wire_footprints_connect_pins(self, all_runs, circuit):
        """Every routed path covers all of its wire's pins."""
        for name, result in all_runs.items():
            for w, path in result.paths.items():
                cells = set(path.flat_cells.tolist())
                for pin in circuit.wire(w).pins:
                    assert pin.channel * circuit.n_grids + pin.x in cells, (
                        f"{name}: wire {w} misses pin {pin}"
                    )

    def test_heights_in_a_sane_band(self, all_runs):
        heights = {n: r.quality.circuit_height for n, r in all_runs.items()}
        best = min(heights.values())
        assert all(h <= 2 * best for h in heights.values()), heights


class TestQualityOrdering:
    def test_sequential_is_a_strong_baseline(self, all_runs):
        """No parallel engine beats the sequential baseline by much (the
        sequential router sees perfectly fresh data; parallel runs can only
        tie through luck)."""
        seq = all_runs["sequential"].quality.circuit_height
        for name in ("shared", "mp_sender", "mp_receiver"):
            assert all_runs[name].quality.circuit_height >= seq - 2, name


class TestTrafficOrdering:
    def test_shared_memory_traffic_dominates(self, all_runs):
        sm = all_runs["shared"].mbytes_transferred
        assert sm > all_runs["mp_sender"].mbytes_transferred
        assert sm > all_runs["mp_receiver"].mbytes_transferred


class TestCostArrayConsistency:
    @pytest.mark.parametrize("name", ["shared", "mp_sender", "mp_receiver", "dynamic"])
    def test_truth_equals_path_union(self, all_runs, circuit, name):
        result = all_runs[name]
        reference = CostArray(circuit.n_channels, circuit.n_grids)
        for path in result.paths.values():
            reference.apply_path(path.flat_cells)
        assert reference == result.truth
