"""Shared fixtures for the test suite.

Everything here is deterministic: fixed seeds, fixed circuit sizes.  Tests
use small circuits so the whole suite stays fast; the full-size benchmark
circuits are exercised by ``locusroute experiment`` (CI's "Paper-vs-measured
record is current" step) and ``benchmarks/``.
"""

from __future__ import annotations

import pytest

from repro.circuits import Circuit, Pin, Wire, bnre_like, tiny_test_circuit
from repro.grid import CostArray, RegionMap


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--regen-golden",
        action="store_true",
        default=False,
        help="regenerate tests/golden/ fixtures instead of comparing "
        "(run after an intentional behaviour change, then review the diff)",
    )


@pytest.fixture
def regen_golden(request: pytest.FixtureRequest) -> bool:
    """True when the run should rewrite the golden fixtures."""
    return bool(request.config.getoption("--regen-golden"))


@pytest.fixture
def tiny_circuit() -> Circuit:
    """A 24-wire, 4x40 circuit for fast routing tests."""
    return tiny_test_circuit()


@pytest.fixture
def small_bnre() -> Circuit:
    """A shrunk bnrE-like circuit (fast but realistically shaped)."""
    return bnre_like(n_wires=120)


@pytest.fixture
def two_pin_wire() -> Wire:
    """A simple two-pin wire crossing channels."""
    return Wire("w", [Pin(2, 0), Pin(12, 3)])


@pytest.fixture
def flat_wire() -> Wire:
    """A two-pin wire inside a single channel."""
    return Wire("w", [Pin(3, 1), Pin(9, 1)])


@pytest.fixture
def empty_cost() -> CostArray:
    """A zeroed 4x40 cost array matching ``tiny_circuit``."""
    return CostArray(4, 40)


@pytest.fixture
def regions_16() -> RegionMap:
    """A 16-processor region map over the bnrE-like grid."""
    return RegionMap(10, 341, 16)
