"""The grid-paint wave planner vs the O(n^2) recurrence oracle.

``plan_waves`` replaced the per-wire vectorized overlap test against all
earlier wires with a grid-paint skyline index; ``plan_waves_reference``
keeps the original recurrence as the differential oracle.  Both take the
geometry's ``(n_wires, 4)`` box array and return one column, the wave of
each position of the order.  Contract: identical columns for *every*
order and box set — including degenerate all-overlapping stacks
(everything serializes into size-1 waves), all-disjoint layouts (one
wave), inverted boxes (defined only by the recurrence's interval tests;
the index must defer), and giant footprints spanning the whole grid
(exercising the lazy/coarse slot layers).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import generate_scaled
from repro.route.wavefront import circuit_geometry, plan_waves, plan_waves_reference

N_WIRES = 128


def footprint_strategy(allow_inverted: bool):
    coord = st.integers(min_value=0, max_value=19)
    x = st.integers(min_value=0, max_value=220)
    if allow_inverted:
        return st.tuples(coord, x, coord, x)

    def ordered(c0, x0, dc, dx):
        return (c0, x0, c0 + dc, x0 + dx)

    return st.builds(
        ordered,
        coord,
        x,
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=0, max_value=90),
    )


def draw_boxes(data, n: int, allow_inverted: bool) -> np.ndarray:
    rows = [data.draw(footprint_strategy(allow_inverted), label=f"fp{i}") for i in range(n)]
    return np.array(rows, dtype=np.int64).reshape(n, 4)


def assert_planners_agree(order, boxes) -> np.ndarray:
    waves = plan_waves(order, boxes)
    assert waves.dtype == np.int64 and waves.shape == (len(order),)
    assert np.array_equal(waves, plan_waves_reference(order, boxes))
    return waves


@settings(max_examples=60, deadline=None)
@given(data=st.data(), allow_inverted=st.booleans())
def test_index_matches_recurrence(data, allow_inverted):
    boxes = draw_boxes(data, N_WIRES, allow_inverted)
    order = data.draw(st.permutations(list(range(N_WIRES))))
    assert_planners_agree(order, boxes)


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_index_matches_recurrence_partial_orders(data):
    boxes = draw_boxes(data, N_WIRES * 2, False)
    subset = data.draw(
        st.lists(
            st.sampled_from(list(range(N_WIRES * 2))),
            min_size=N_WIRES,
            max_size=N_WIRES,
            unique=True,
        )
    )
    assert_planners_agree(subset, boxes)


def test_degenerate_all_overlapping():
    boxes = np.tile([0, 0, 40, 3000], (N_WIRES, 1))
    waves = assert_planners_agree(list(range(N_WIRES)), boxes)
    assert waves.tolist() == list(range(N_WIRES))  # full serialization


def test_degenerate_all_disjoint():
    i = np.arange(N_WIRES)
    boxes = np.stack((i % 30, (i // 30) * 9, i % 30, (i // 30) * 9 + 7), axis=1)
    waves = assert_planners_agree(list(range(N_WIRES)), boxes)
    assert waves.tolist() == [0] * N_WIRES  # one wave: nothing overlaps


def test_giant_and_tiny_mixture():
    boxes = []
    for i in range(N_WIRES):
        if i % 17 == 0:
            boxes.append((0, 0, 25, 2900))  # spans many coarse slots
        else:
            c, x = (i * 7) % 26, (i * 131) % 2800
            boxes.append((c, x, c + 1, x + 12))
    assert_planners_agree(list(range(N_WIRES)), np.array(boxes))


@settings(max_examples=80, deadline=None)
@given(data=st.data(), n=st.integers(min_value=0, max_value=95), allow_inverted=st.booleans())
def test_small_circuits_match_recurrence(data, n, allow_inverted):
    """Small orders (the service's ``route`` jobs submit 40-99 wires) go
    through the index like every other size, the empty order included."""
    boxes = draw_boxes(data, n, allow_inverted)
    order = data.draw(st.permutations(list(range(n))))
    assert_planners_agree(order, boxes)


@pytest.mark.parametrize("which", ["bnrE", "MDC"])
@pytest.mark.parametrize("n_wires", [2, 40, 70, 95])
def test_small_generated_circuits_match_recurrence(which, n_wires):
    from repro.circuits import bnre_like, mdc_like

    circuit = (bnre_like if which == "bnrE" else mdc_like)(n_wires=n_wires)
    waves = assert_planners_agree(np.arange(circuit.n_wires), circuit_geometry(circuit).bbox)
    assert (np.bincount(waves) > 0).all()  # waves 0..max, none empty


#: sha256 of the wires in wave order, then the wave sizes (both ``int64``),
#: of the default-order plan of ``generate_scaled(n)``, recorded from the
#: planner that took a box dict and returned a list of waves.
PINNED_PLANS = {
    10_000: "50dbec9c5cd61161c679020dcd66d88c7f77e0d8066d97874882c03329039bcd",
    15_000: "84e5611a53068913500f6892d603054e0155ee96605f407a8b92a432723bcb56",
}


@pytest.mark.parametrize("n_wires", sorted(PINNED_PLANS))
def test_scaled_plans_are_pinned(n_wires):
    circuit = generate_scaled(n_wires)
    order = np.arange(circuit.n_wires, dtype=np.int64)
    waves = plan_waves(order, circuit_geometry(circuit).bbox)
    digest = hashlib.sha256(order[np.argsort(waves, kind="stable")].tobytes())
    digest.update(np.bincount(waves).astype(np.int64).tobytes())
    assert digest.hexdigest() == PINNED_PLANS[n_wires]


def test_wave_cache_is_bounded():
    """One slot: a second order replaces the cached plan, and a repeat of
    the first order re-plans and still routes bit-identically."""
    from repro.circuits import Circuit, Pin, Wire
    from repro.grid import CostArray
    from repro.route.wavefront import route_iteration_wavefront

    n = 16
    wires = [
        Wire(f"w{i}", {Pin(x=i, channel=0), Pin(x=i + 1, channel=1)})
        for i in range(n)
    ]
    circuit = Circuit("cache-test", 4, n + 2, wires)
    forward = list(range(n))
    backward = forward[::-1]

    def route(order):
        cost = CostArray(circuit.n_channels, circuit.n_grids)
        occupancy, work, paths = route_iteration_wavefront(cost, circuit, order, None, tie_break=0)
        cells = {idx: path.flat_cells.tolist() for idx, path in paths.items()}
        return (occupancy, work), cells, cost.data.tobytes()

    first = route(forward)
    key, plan = circuit._wf_waves
    assert key == tuple(forward)
    assert route(forward) == first
    assert circuit._wf_waves[1] is plan  # same order: the plan is reused

    route(backward)
    key, replaced = circuit._wf_waves
    assert key == tuple(backward) and replaced is not plan  # nothing else retained

    assert route(forward) == first
    assert circuit._wf_waves[0] == tuple(forward)
    # The slot holds the order's gather tables, stored as narrow as this
    # small grid allows.
    plan = circuit._wf_waves[1]
    n_cells = circuit.n_channels * circuit.n_grids
    assert plan.read_cells.size and plan.plus.size == plan.minus.size > 0
    assert plan.read_cells.dtype == np.min_scalar_type(n_cells)
    assert plan.plus.dtype == plan.minus.dtype == np.uint8
