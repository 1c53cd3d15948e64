"""Equivalence tests for the prefix-cached two-bend routing kernel.

Contract: :func:`route_wire_fused` (the fused lone-wire evaluator the
simulators route through) is bit-identical to :func:`route_wire_reference` (the
per-segment oracle) — same chosen columns, same paths, same costs — for
every wire, tie break, and any interleaving of cost-array mutations.
The mutation sequences matter most: they exercise the cache
invalidation hooks, which is where a stale-table bug would hide.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import Pin, Wire
from repro.grid import BBox, CostArray
from repro.kernels import active_kernels, set_kernels, use_kernels
from repro.route import route_wire
from repro.route.twobend import route_wire_reference
from repro.route.wavefront import route_wire_fused

N_CHANNELS = 8
N_GRIDS = 24


def assert_same_route(ref, vec):
    assert ref.cost == vec.cost
    assert ref.work_cells == vec.work_cells
    assert np.array_equal(ref.path.flat_cells, vec.path.flat_cells)
    assert tuple(s.xv for s in ref.segments) == tuple(s.xv for s in vec.segments)


pin_strategy = st.builds(
    Pin,
    x=st.integers(min_value=0, max_value=N_GRIDS - 1),
    channel=st.integers(min_value=0, max_value=N_CHANNELS - 1),
)


def wires(min_pins=2, max_pins=5):
    return st.builds(
        lambda pins, i: Wire(f"w{i}", pins),
        st.lists(pin_strategy, min_size=min_pins, max_size=max_pins, unique=True),
        st.integers(min_value=0, max_value=999),
    )


cost_grid = st.lists(
    st.integers(min_value=0, max_value=9),
    min_size=N_CHANNELS * N_GRIDS,
    max_size=N_CHANNELS * N_GRIDS,
)


class TestSingleWireEquivalence:
    @settings(max_examples=150, deadline=None)
    @given(cost_grid, wires(), st.integers(min_value=0, max_value=1))
    def test_any_wire_any_costs(self, grid, wire, tie_break):
        data = np.array(grid, dtype=np.int64).reshape(N_CHANNELS, N_GRIDS)
        ref = route_wire_reference(
            CostArray(N_CHANNELS, N_GRIDS, data=data.copy()), wire, tie_break
        )
        vec = route_wire_fused(
            CostArray(N_CHANNELS, N_GRIDS, data=data.copy()), wire, tie_break
        )
        assert_same_route(ref, vec)

    @settings(max_examples=150, deadline=None)
    @given(cost_grid, wires(), st.integers(min_value=0, max_value=1))
    def test_lazy_records_are_invisible(self, grid, wire, tie_break):
        """The fused evaluator builds ``segments`` on first read; reading
        them only *after* the array was committed to (the message passing
        node's order, when it reads them at all) must give exactly the
        reference's records, priced against the array as it was."""
        data = np.array(grid, dtype=np.int64).reshape(N_CHANNELS, N_GRIDS)
        ref = route_wire_reference(
            CostArray(N_CHANNELS, N_GRIDS, data=data.copy()), wire, tie_break
        )
        cost = CostArray(N_CHANNELS, N_GRIDS, data=data.copy())
        fused = route_wire_fused(cost, wire, tie_break)
        cost.apply_path(fused.path.flat_cells)
        whole = BBox(0, 0, N_CHANNELS - 1, N_GRIDS - 1)
        cost.accumulate(whole, np.full((N_CHANNELS, N_GRIDS), 3, dtype=np.int64))
        assert fused.cost == ref.cost
        assert fused.read_boxes == ref.read_boxes
        assert fused.segments == ref.segments
        assert [s.cost for s in fused.segments] == [s.cost for s in ref.segments]
        assert fused == ref and ref == fused
        assert fused.segments is fused.segments  # built once

    def test_route_equality_sees_every_field(self):
        cost = CostArray(N_CHANNELS, N_GRIDS)
        cost.apply_path(np.arange(3 * N_GRIDS + 4, 3 * N_GRIDS + 15))
        wire = Wire("w", [Pin(2, 1), Pin(20, 6)])
        first, last = route_wire_fused(cost, wire, 0), route_wire_fused(cost, wire, 1)
        assert first == route_wire_fused(cost, wire, 0)
        assert first.segments[0].xv != last.segments[0].xv and first != last
        assert first != route_wire_fused(cost, Wire("v", [Pin(2, 1), Pin(20, 5)]), 0)

    def test_routing_does_not_mutate_cost(self):
        cost = CostArray(N_CHANNELS, N_GRIDS)
        before = cost.data.copy()
        route_wire_fused(cost, Wire("w", [Pin(2, 1), Pin(20, 6)]))
        assert np.array_equal(cost.data, before)


class TestEquivalenceUnderMutation:
    """The cache-invalidation stress: mutations interleaved with routing."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(wires(), min_size=3, max_size=8),
        st.randoms(use_true_random=False),
    )
    def test_ripup_reroute_churn(self, wire_list, rng):
        ref_cost = CostArray(N_CHANNELS, N_GRIDS)
        vec_cost = CostArray(N_CHANNELS, N_GRIDS)
        ref_paths, vec_paths = {}, {}
        for iteration in range(3):
            for i, wire in enumerate(wire_list):
                if i in ref_paths:
                    ref_cost.remove_path(ref_paths[i].flat_cells)
                    vec_cost.remove_path(vec_paths[i].flat_cells)
                ref = route_wire_reference(ref_cost, wire, tie_break=iteration % 2)
                vec = route_wire_fused(vec_cost, wire, tie_break=iteration % 2)
                assert_same_route(ref, vec)
                ref_cost.apply_path(ref.path.flat_cells)
                vec_cost.apply_path(vec.path.flat_cells)
                ref_paths[i], vec_paths[i] = ref.path, vec.path
                # Remote-update traffic dirties a random box between
                # routes, exercising accumulate/replace invalidation.
                if rng.random() < 0.4:
                    c0 = rng.randrange(N_CHANNELS - 1)
                    x0 = rng.randrange(N_GRIDS - 2)
                    box = BBox(c0, x0, c0 + 1, x0 + 2)
                    deltas = np.ones((box.height, box.width), dtype=np.int64)
                    ref_cost.accumulate(box, deltas)
                    vec_cost.accumulate(box, deltas)
        assert ref_cost == vec_cost

    def test_replace_invalidates_cached_rows(self):
        cost = CostArray(N_CHANNELS, N_GRIDS)
        wire = Wire("w", [Pin(1, 0), Pin(22, 7)])
        route_wire_fused(cost, wire)  # warm the prefix cache
        box = BBox(0, 0, N_CHANNELS - 1, N_GRIDS - 1)
        values = np.arange(N_CHANNELS * N_GRIDS, dtype=np.int64).reshape(
            N_CHANNELS, N_GRIDS
        )
        cost.replace(box, values)
        fresh = CostArray(N_CHANNELS, N_GRIDS, data=values.copy())
        assert_same_route(
            route_wire_reference(fresh, wire), route_wire_fused(cost, wire)
        )

    def test_row_prefix_matches_recompute_after_mutations(self):
        cost = CostArray(N_CHANNELS, N_GRIDS)
        for channel in range(N_CHANNELS):
            assert not cost.row_prefix(channel).any()
        path = np.array([1 * N_GRIDS + 3, 1 * N_GRIDS + 4, 2 * N_GRIDS + 4])
        cost.apply_path(path)
        for channel in range(N_CHANNELS):
            expected = np.zeros(N_GRIDS + 1, dtype=np.int64)
            np.cumsum(cost.data[channel], out=expected[1:])
            assert np.array_equal(cost.row_prefix(channel), expected)


class TestKernelDispatch:
    def test_route_wire_dispatches_on_mode(self):
        cost = CostArray(N_CHANNELS, N_GRIDS)
        wire = Wire("w", [Pin(0, 0), Pin(10, 5), Pin(23, 2)])
        with use_kernels("reference"):
            ref = route_wire(cost, wire)
        with use_kernels("vectorized"):
            vec = route_wire(cost, wire)
        assert_same_route(ref, vec)

    def test_use_kernels_restores_mode(self):
        assert active_kernels() == "vectorized"
        with use_kernels("reference"):
            assert active_kernels() == "reference"
        assert active_kernels() == "vectorized"

    def test_set_kernels_rejects_unknown(self):
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            set_kernels("turbo")
