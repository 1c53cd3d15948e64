"""The ground-truth ledger both simulators (and dynamic runs) drive."""

from __future__ import annotations

import pytest

from repro.circuits import tiny_test_circuit
from repro.errors import SimulationError
from repro.grid import CostArray
from repro.parallel.ledger import GroundTruthLedger
from repro.route import route_wire


@pytest.fixture
def circuit():
    return tiny_test_circuit(n_wires=3)


def routed(circuit, ledger, wire_idx, tie_break=0):
    return route_wire(ledger.truth, circuit.wire(wire_idx), tie_break=tie_break).path


def path_union(circuit, paths):
    union = CostArray(circuit.n_channels, circuit.n_grids)
    for path in paths.values():
        union.apply_path(path.flat_cells)
    return union


def test_ripup_commit_recommit(circuit):
    ledger = GroundTruthLedger(circuit, "test", check_invariants=True)
    for wire in range(3):
        assert ledger.standing(wire) is None
        ledger.commit(wire % 2, wire, routed(circuit, ledger, wire), float(wire))
    assert ledger.complete and ledger.wire_router.tolist() == [0, 1, 0]
    first_price = ledger.prices[0]
    assert first_price == 0  # priced before the wire itself lands, on an empty array

    old = ledger.standing(0)
    assert ledger.ripup(0, 3.0) is old
    assert ledger.standing(0) is None and not ledger.complete
    new = routed(circuit, ledger, 0, tie_break=1)
    price = ledger.truth.path_cost(new.flat_cells)
    ledger.commit(1, 0, new, 4.0)
    assert ledger.prices[0] == price and ledger.wire_router[0] == 1
    assert ledger.truth == path_union(circuit, ledger.paths)

    quality = ledger.close(5.0)
    assert quality.occupancy_factor == sum(ledger.prices.values())
    assert quality.total_wire_cells == ledger.truth.total_occupancy()
    meta = ledger.verification_meta()
    assert meta["verification_report"].report.ok
    assert meta["verification_report"].commit_times == {0: 4.0, 1: 1.0, 2: 2.0}
    assert GroundTruthLedger(circuit, "test").verification_meta() == {}


def test_ripped_pending_survives_a_crash(circuit):
    ledger = GroundTruthLedger(circuit, "test")
    for wire in range(3):
        ledger.commit(0, wire, routed(circuit, ledger, wire), 0.0)
    stale = ledger.ripup(1, 1.0)
    # ... and processor 0 dies before recommitting: the stale final path is
    # still listed, but the wire is not durably routed and cannot close.
    assert ledger.paths[1] is stale and ledger.standing(1) is None
    assert not ledger.complete
    with pytest.raises(SimulationError, match="ripped up but never rerouted"):
        ledger.close(2.0)
    # the adopter skips the rip-up (nothing stands) and only re-routes
    ledger.commit(2, 1, routed(circuit, ledger, 1), 3.0)
    assert ledger.complete and ledger.wire_router[1] == 2
    ledger.close(4.0)


def test_strict_ripup_raises_on_double_removal(circuit):
    ledger = GroundTruthLedger(circuit, "test")
    with pytest.raises(SimulationError, match="no standing path"):
        ledger.ripup(0, 0.0)  # never routed
    ledger.commit(0, 0, routed(circuit, ledger, 0), 0.0)
    ledger.ripup(0, 1.0)
    before = ledger.truth.data.copy()
    with pytest.raises(SimulationError, match="no standing path"):
        ledger.ripup(0, 2.0)
    assert (ledger.truth.data == before).all()


def test_close_checks_the_truth_against_the_paths(circuit):
    # Every commit balanced, then a write no path accounts for: only the
    # end-of-run reconstruction can see it.
    ledger = GroundTruthLedger(circuit, "test", check_invariants=True)
    for wire in range(3):
        ledger.commit(0, wire, routed(circuit, ledger, wire), float(wire))
    assert ledger.report.ok
    ledger.truth.data[0, 0] += 1
    ledger.close(3.0)
    assert not ledger.report.ok


def test_close_needs_every_wire(circuit):
    ledger = GroundTruthLedger(circuit, "test")
    ledger.commit(0, 0, routed(circuit, ledger, 0), 0.0)
    with pytest.raises(SimulationError, match="not every wire was routed"):
        ledger.close(1.0)
