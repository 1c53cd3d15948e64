"""Wave-front batched routing vs the sequential scalar loop.

Contract: partitioning an iteration's wires into disjoint-footprint waves
and routing each wave through one fused evaluation is *bit-identical* to
the sequential per-wire loop — same chosen bend columns, same path cells,
same costs and work accounting, same final cost array — for every
circuit, wire order, and tie-break mode.  The overlap cases matter most:
wires sharing a bounding box must serialize into size-1 waves and still
reproduce the sequential result exactly.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import Circuit, Pin, Wire, bnre_like, generate_scaled
from repro.grid import CostArray
from repro.kernels import use_kernels
from repro.obs import telemetry as obs
from repro.route import PathTable, RoutePath, SequentialRouter
from repro.route.segments import candidate_columns
from repro.route.twobend import MAX_CANDIDATES, route_segment, route_wire, route_wire_reference
from repro.route.wavefront import (
    circuit_geometry,
    plan_waves,
    plan_waves_reference,
    route_iteration_wavefront,
    route_wire_fused,
    wire_geometry,
)

N_CHANNELS = 8
N_GRIDS = 24
#: Wide enough that random pin pairs often span more than MAX_CANDIDATES
#: columns (the strided ``linspace`` candidates).
N_GRIDS_WIDE = 3 * MAX_CANDIDATES


def assert_table_is(table, ref_paths):
    """*table* holds exactly the reference loop's wires, cell for cell."""
    assert len(table) == len(ref_paths)
    assert set(table) == set(ref_paths)
    for i, path in ref_paths.items():
        cells = table[i].flat_cells
        assert cells.dtype == np.int64
        assert np.array_equal(cells, path.flat_cells)


def assert_same_route(ref, vec):
    assert ref.cost == vec.cost
    assert ref.work_cells == vec.work_cells
    assert np.array_equal(ref.path.flat_cells, vec.path.flat_cells)
    assert tuple(s.xv for s in ref.segments) == tuple(s.xv for s in vec.segments)
    assert tuple(s.cost for s in ref.segments) == tuple(
        s.cost for s in vec.segments
    )


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


def circuits(min_wires=1, max_wires=10):
    return st.builds(
        lambda wire_list: Circuit(
            "hyp",
            N_CHANNELS,
            N_GRIDS,
            [Wire(f"w{i}", w.pins) for i, w in enumerate(wire_list)],
        ),
        st.lists(wires(), min_size=min_wires, max_size=max_wires),
    )


cost_grid = st.lists(
    st.integers(min_value=0, max_value=9),
    min_size=N_CHANNELS * N_GRIDS,
    max_size=N_CHANNELS * N_GRIDS,
)


def greedy_round(pending, footprints):
    """One round of the greedy in-order split: ``(wave, deferred)``.

    The specification the layering recurrence implements: a wire joins
    the wave only if its footprint is disjoint from *every* earlier
    pending wire's footprint, wave members and deferred ones alike.
    """
    wave, deferred, seen = [], [], []
    for idx in pending:
        c_lo, x_lo, c_hi, x_hi = footprints[idx]
        blocked = any(
            a <= c_hi and c >= c_lo and b <= x_hi and d >= x_lo
            for a, b, c, d in seen
        )
        (deferred if blocked else wave).append(idx)
        seen.append(footprints[idx])
    return wave, deferred


def planned(order, boxes):
    """Both planners' wave column for *order*, checked equal, as a list."""
    boxes = np.asarray(boxes).reshape(-1, 4)
    waves = plan_waves_reference(order, boxes)
    assert np.array_equal(plan_waves(order, boxes), waves)
    return waves.tolist()


class TestWavePartition:
    def test_disjoint_wires_share_a_wave(self):
        boxes = [(0, 0, 1, 5), (3, 0, 4, 5), (6, 10, 7, 20)]
        assert planned([0, 1, 2], boxes) == [0, 0, 0]

    def test_overlapping_wires_serialize(self):
        # All three share cell (0, 0): every wave has exactly one wire,
        # in the original order.
        assert planned([0, 1, 2], [(0, 0, 2, 10)] * 3) == [0, 1, 2]
        assert planned([2, 0, 1], [(0, 0, 2, 10)] * 3) == [0, 1, 2]

    def test_deferred_wire_blocks_later_overlaps(self):
        # B overlaps A, C overlaps only B.  C must not jump the queue
        # into A's wave: routing C before B would invert the order.
        boxes = [
            (0, 0, 1, 5),  # A
            (1, 4, 3, 10),  # B: overlaps A
            (3, 8, 5, 15),  # C: overlaps B, disjoint from A
        ]
        assert planned([0, 1, 2], boxes) == [0, 1, 2]

    def test_touching_edges_count_as_overlap(self):
        # Inclusive boxes sharing a boundary row conflict.
        assert planned([0, 1], [(0, 0, 2, 5), (2, 5, 4, 9)]) == [0, 1]

    def test_positions_follow_the_order_not_the_rows(self):
        # Entry k is the wave of order[k]; rows the order skips are unread.
        boxes = [(0, 0, 0, 3), (9, 9, 9, 9), (0, 2, 1, 4), (5, 0, 5, 1)]
        assert planned([2, 3, 0], boxes) == [0, 0, 1]

    @given(st.data())
    @settings(deadline=None, max_examples=100)
    def test_plan_waves_matches_iterated_plan_wave(self, data):
        # The one-pass layering recurrence must reproduce the
        # round-by-round greedy partition exactly, waves in order and
        # members in visit order.
        n = data.draw(st.integers(min_value=0, max_value=12))
        footprints = {}
        for i in range(n):
            c_lo = data.draw(st.integers(0, 6))
            x_lo = data.draw(st.integers(0, 20))
            footprints[i] = (
                c_lo,
                x_lo,
                data.draw(st.integers(c_lo, 7)),
                data.draw(st.integers(x_lo, 24)),
            )
        order = data.draw(st.permutations(list(range(n))))
        round_of = {}
        pending = list(order)
        rounds = 0
        while pending:
            wave, pending = greedy_round(pending, footprints)
            round_of.update(dict.fromkeys(wave, rounds))
            rounds += 1
        boxes = [footprints[i] for i in range(n)]
        assert planned(order, boxes) == [round_of[idx] for idx in order]


class TestGeometry:
    def test_geometry_cached_per_grid_width(self):
        wire = Wire("w", [Pin(2, 1), Pin(20, 6)])
        g1 = wire_geometry(wire, N_GRIDS)
        g2 = wire_geometry(wire, N_GRIDS)
        assert g1 is g2
        g3 = wire_geometry(wire, N_GRIDS * 2)
        assert g3 is not g1
        assert (g1[0].n_grids, g3[0].n_grids) == (N_GRIDS, N_GRIDS * 2)
        # One table per circuit, one row per wire, built by the first wire
        # that asks; a wire no circuit holds is a one-wire table.
        assert g1[1] == 0 and g1[0].layout.shape[0] == 1
        circuit = bnre_like(n_wires=30)
        rows = [wire_geometry(w, circuit.n_grids) for w in circuit.wires]
        assert all(tables is rows[0][0] for tables, _ in rows)
        assert [row for _, row in rows] == list(range(30))
        assert rows[0][0] is circuit_geometry(circuit).tables

    def test_footprint_covers_old_and_new_paths(self):
        # The partition invariant: any routed path of a wire lies inside
        # its static geometry bbox.
        wire = Wire("w", [Pin(2, 1), Pin(10, 4), Pin(20, 6)])
        circuit = Circuit("one", N_CHANNELS, N_GRIDS, [wire])
        assert wire.bounding_box == (1, 2, 6, 20)
        c_lo, x_lo, c_hi, x_hi = circuit_geometry(circuit).bbox[0]
        assert (c_lo, x_lo, c_hi, x_hi) == wire.bounding_box
        rng = np.random.default_rng(7)
        for _ in range(20):
            data = rng.integers(0, 9, size=(N_CHANNELS, N_GRIDS))
            cost = CostArray(N_CHANNELS, N_GRIDS, data=data)
            for tie in (0, 1):
                path = route_wire_fused(cost, wire, tie_break=tie).path
                channels, xs = path.coords()
                assert channels.min() >= c_lo and channels.max() <= c_hi
                assert xs.min() >= x_lo and xs.max() <= x_hi


class TestColumnarGeometry:
    """Circuit-level columns == the scalar per-segment definitions."""

    @pytest.mark.parametrize(
        "build", [lambda: generate_scaled(3000, seed=5), bnre_like], ids=["scaled", "bnrE"]
    )
    def test_matches_per_wire_geometry(self, build):
        circuit = build()
        geom = circuit_geometry(circuit)
        assert circuit_geometry(circuit) is geom
        cost = CostArray(circuit.n_channels, circuit.n_grids)
        n_sampled = 0
        for w, wire in enumerate(circuit.wires):
            assert tuple(geom.bbox[w]) == wire.bounding_box
            segs = range(geom.seg_ptr[w], geom.seg_ptr[w + 1])
            assert len(segs) == wire.n_pins - 1
            work = 0
            for s, (a, b) in zip(segs, wire.segments()):
                assert (geom.x1[s], geom.c1[s], geom.x2[s], geom.c2[s]) == (
                    a.x, a.channel, b.x, b.channel
                )
                cols = geom.cand[geom.cand_ptr[s] : geom.cand_ptr[s + 1]]
                is_bend = a.channel != b.channel
                expected = candidate_columns(a.x, b.x) if is_bend else []
                assert np.array_equal(cols, expected)
                assert geom.seg_work[s] == route_segment(cost, a, b).work_cells
                work += geom.seg_work[s]
                n_sampled += b.x - a.x >= MAX_CANDIDATES and is_bend
            assert geom.work_cells[w] == work
        assert n_sampled  # the strided-sampling branch was compared too

    def test_empty_circuit(self):
        geom = circuit_geometry(Circuit("empty", N_CHANNELS, N_GRIDS, []))
        assert geom.bbox.shape == (0, 4)
        assert geom.work_cells.size == 0 and geom.cand.size == 0


class TestFusedSingleWire:
    @settings(max_examples=150, deadline=None)
    @given(cost_grid, wires(), st.integers(min_value=0, max_value=1))
    def test_any_wire_any_costs(self, grid, wire, tie_break):
        data = np.array(grid, dtype=np.int64).reshape(N_CHANNELS, N_GRIDS)
        ref = route_wire_reference(
            CostArray(N_CHANNELS, N_GRIDS, data=data.copy()), wire, tie_break
        )
        fused = route_wire_fused(
            CostArray(N_CHANNELS, N_GRIDS, data=data.copy()), wire, tie_break
        )
        assert_same_route(ref, fused)

    def test_sampled_candidates_on_wide_grid(self):
        # Spans beyond MAX_CANDIDATES take the strided-sampling branch.
        n_grids = 300
        rng = np.random.default_rng(11)
        data = rng.integers(0, 9, size=(N_CHANNELS, n_grids))
        wire = Wire("w", [Pin(3, 0), Pin(295, 6)])
        for tie in (0, 1):
            ref = route_wire_reference(
                CostArray(N_CHANNELS, n_grids, data=data.copy()), wire, tie
            )
            fused = route_wire_fused(
                CostArray(N_CHANNELS, n_grids, data=data.copy()), wire, tie
            )
            assert_same_route(ref, fused)


@st.composite
def table_circuits(draw):
    """Circuits that reach every corner of the per-circuit tables: 2-12 pin
    wires, straight runs and adjacent-channel bends (two-channel wires),
    spans past ``MAX_CANDIDATES`` and wires that cross the whole grid."""
    wide_x = st.one_of(
        st.integers(0, N_GRIDS_WIDE - 1), st.sampled_from([0, N_GRIDS_WIDE - 1])
    )
    wire_list = []
    for i in range(draw(st.integers(1, 6))):
        channel = st.integers(3, 4) if draw(st.booleans()) else st.integers(0, N_CHANNELS - 1)
        pin = st.builds(Pin, x=wide_x, channel=channel)
        pins = draw(st.lists(pin, min_size=2, max_size=12, unique=True))
        wire_list.append(Wire(f"w{i}", pins))
    return Circuit("tables", N_CHANNELS, N_GRIDS_WIDE, wire_list)


def random_cost(seed, n_grids):
    data = np.random.default_rng(seed).integers(0, 9, size=(N_CHANNELS, n_grids))
    return CostArray(N_CHANNELS, n_grids, data=data)


def assert_route_is_reference(cost, wire):
    """``route_wire`` == the per-segment oracle, field by field, both tie-breaks."""
    for tie in (0, 1):
        ref = route_wire_reference(cost, wire, tie)
        vec = route_wire(cost, wire, tie)
        assert np.array_equal(ref.path.flat_cells, vec.path.flat_cells)
        assert vec.path.flat_cells.dtype == np.int64
        assert (ref.cost, ref.work_cells) == (vec.cost, vec.work_cells)
        assert ref.segments == vec.segments  # xv, cost, work_cells, pins, candidates
        assert ref.read_boxes == vec.read_boxes
        for a, b in zip(ref.segments, vec.segments):
            assert np.array_equal(a.read_cells(cost.n_grids), b.footprint(cost.n_grids))


@pytest.mark.parametrize("mode", ["vectorized", "reference"])
class TestTableEvaluator:
    """The lone-wire evaluator reads rows of per-circuit tables; the wire
    object is only the way to find them.  Every way of reaching a wire must
    price it exactly like ``route_wire_reference``."""

    @settings(max_examples=40, deadline=None)
    @given(table_circuits(), st.integers(0, 2**32 - 1), st.randoms(use_true_random=False))
    def test_wires_of_a_circuit_in_any_order(self, mode, circuit, seed, rng):
        cost = random_cost(seed, N_GRIDS_WIDE)
        shuffled = list(circuit.wires)
        rng.shuffle(shuffled)
        with use_kernels(mode):
            for wire in circuit.wires + tuple(shuffled):
                assert_route_is_reference(cost, wire)

    @settings(max_examples=40, deadline=None)
    @given(table_circuits(), st.integers(0, 2**32 - 1), st.data())
    def test_wires_shared_between_circuits(self, mode, circuit, seed, data):
        # The same Wire objects adopted by a prefix circuit and by a
        # circuit twice as wide: each call must read rows that match the
        # cost array it was handed, whichever circuit asked last.
        cost = random_cost(seed, N_GRIDS_WIDE)
        wide_cost = random_cost(seed + 1, 2 * N_GRIDS_WIDE)
        keep = data.draw(st.integers(1, circuit.n_wires))
        with use_kernels(mode):
            assert_route_is_reference(cost, circuit.wire(0))
            prefix = circuit.with_wires(circuit.wires[:keep])
            wide = Circuit("wide", N_CHANNELS, 2 * N_GRIDS_WIDE, circuit.wires)
            for i in range(circuit.n_wires):
                assert wide.wire(i) is circuit.wire(i)
                assert_route_is_reference(wide_cost, wide.wire(i))
                assert_route_is_reference(cost, circuit.wire(i))
                if i < keep:
                    assert_route_is_reference(cost, prefix.wire(i))

    @settings(max_examples=40, deadline=None)
    @given(table_circuits(), st.integers(0, 2**32 - 1))
    def test_free_standing_and_pickled(self, mode, circuit, seed):
        cost = random_cost(seed, N_GRIDS_WIDE)
        with use_kernels(mode):
            for wire in circuit.wires:
                assert_route_is_reference(cost, Wire(wire.name, wire.pins))
                assert_route_is_reference(cost, wire)
            for wire in pickle.loads(pickle.dumps(circuit)).wires:
                assert_route_is_reference(cost, wire)
            assert_route_is_reference(cost, pickle.loads(pickle.dumps(circuit.wire(0))))


class TestIterationEquivalence:
    """The tentpole property: batched iteration == scalar iteration."""

    @settings(max_examples=60, deadline=None)
    @given(circuits(), st.integers(min_value=0, max_value=1))
    def test_iteration_matches_scalar_loop(self, circuit, tie_break):
        ref_cost = CostArray(N_CHANNELS, N_GRIDS)
        vec_cost = CostArray(N_CHANNELS, N_GRIDS)
        ref_paths, table = {}, None
        order = list(range(circuit.n_wires))
        for iteration in range(2):
            tie = (tie_break + iteration) % 2
            ref_occ = 0
            ref_work = 0
            for i in order:
                wire = circuit.wire(i)
                if i in ref_paths:
                    ref_cost.remove_path(ref_paths[i].flat_cells)
                res = route_wire_reference(ref_cost, wire, tie_break=tie)
                ref_occ += res.cost
                ref_work += res.work_cells
                ref_cost.apply_path(res.path.flat_cells)
                ref_paths[i] = res.path
            vec_occ, vec_work, table = route_iteration_wavefront(
                vec_cost, circuit, order, table, tie_break=tie
            )
            assert vec_occ == ref_occ
            assert vec_work == ref_work
            assert ref_cost == vec_cost
            assert_table_is(table, ref_paths)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_columnar_iteration_matches_scalar_loop(self, data):
        # The wave step on everything the columnar layout special-cases:
        # multi-pin wires (per-wire de-duplication), segments longer than
        # MAX_CANDIDATES (sampled candidates), both tie-breaks, a permuted
        # visit order, and — when every wire shares one cell — size-one
        # waves.  The rip-up reads the previous iteration's table, which
        # may come from another visit order, hold only the first
        # iteration's subset of the wires, or be the reference loop's
        # paths in visit order: then its rows are gathered, not sliced.
        pin = st.builds(
            Pin,
            x=st.integers(0, N_GRIDS_WIDE - 1),
            channel=st.integers(0, N_CHANNELS - 1),
        )
        pin_lists = data.draw(
            st.lists(
                st.lists(pin, min_size=2, max_size=5, unique=True),
                min_size=1,
                max_size=12,
            )
        )
        if data.draw(st.booleans()):
            shared = Pin(N_GRIDS_WIDE // 2, N_CHANNELS // 2)
            pin_lists = [sorted(set(pins) | {shared}) for pins in pin_lists]
        circuit = Circuit(
            "columnar",
            N_CHANNELS,
            N_GRIDS_WIDE,
            [Wire(f"w{i}", pins) for i, pins in enumerate(pin_lists)],
        )
        wires = list(range(circuit.n_wires))
        order = data.draw(st.permutations(wires))
        first = order[: data.draw(st.integers(1, len(wires)))]
        first_tie = data.draw(st.integers(0, 1))

        ref_cost = CostArray(N_CHANNELS, N_GRIDS_WIDE)
        vec_cost = CostArray(N_CHANNELS, N_GRIDS_WIDE)
        ref_paths, table = {}, None
        for iteration in range(3):
            tie = (first_tie + iteration) % 2
            if iteration and data.draw(st.booleans()):
                order = data.draw(st.permutations(wires))
            if iteration and data.draw(st.booleans()):
                table = PathTable.from_paths(ref_paths, N_GRIDS_WIDE)
            visit = order if iteration else first
            ref_occ = ref_work = 0
            for i in visit:
                if i in ref_paths:
                    ref_cost.remove_path(ref_paths[i].flat_cells)
                res = route_wire_reference(ref_cost, circuit.wire(i), tie_break=tie)
                ref_occ += res.cost
                ref_work += res.work_cells
                ref_cost.apply_path(res.path.flat_cells)
                ref_paths[i] = res.path
            vec_occ, vec_work, table = route_iteration_wavefront(
                vec_cost, circuit, visit, table, tie_break=tie
            )
            assert (vec_occ, vec_work) == (ref_occ, ref_work)
            assert ref_cost == vec_cost
            assert_table_is(table, ref_paths)
            assert table == ref_paths

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(wires(), min_size=2, max_size=6),
        st.randoms(use_true_random=False),
    )
    def test_interleaved_mutations_and_routes(self, wire_list, rng):
        # apply_path / remove_path / route_wire churn: external mutations
        # between routes must flow into the fused evaluation identically.
        ref_cost = CostArray(N_CHANNELS, N_GRIDS)
        vec_cost = CostArray(N_CHANNELS, N_GRIDS)
        ref_paths, vec_paths = {}, {}
        extra = []
        for iteration in range(3):
            tie = iteration % 2
            for i, wire in enumerate(wire_list):
                if i in ref_paths:
                    ref_cost.remove_path(ref_paths[i].flat_cells)
                    vec_cost.remove_path(vec_paths[i].flat_cells)
                ref = route_wire_reference(ref_cost, wire, tie_break=tie)
                vec = route_wire_fused(vec_cost, wire, tie_break=tie)
                assert_same_route(ref, vec)
                ref_cost.apply_path(ref.path.flat_cells)
                vec_cost.apply_path(vec.path.flat_cells)
                ref_paths[i], vec_paths[i] = ref.path, vec.path
                choice = rng.random()
                if choice < 0.3:
                    # A foreign wire-path lands on both arrays.
                    cells = np.unique(
                        np.array(
                            [
                                rng.randrange(N_CHANNELS * N_GRIDS)
                                for _ in range(rng.randrange(1, 6))
                            ],
                            dtype=np.int64,
                        )
                    )
                    ref_cost.apply_path(cells)
                    vec_cost.apply_path(cells)
                    extra.append(cells)
                elif choice < 0.45 and extra:
                    cells = extra.pop(rng.randrange(len(extra)))
                    ref_cost.remove_path(cells)
                    vec_cost.remove_path(cells)
        assert ref_cost == vec_cost

    def test_forced_size_one_waves(self):
        # Every wire crosses column 12, so every footprint overlaps every
        # other and each wave carries exactly one wire.
        overlapping = [
            Wire(f"w{i}", [Pin(4, i % N_CHANNELS), Pin(20, (i + 3) % N_CHANNELS)])
            for i in range(6)
        ]
        circuit = Circuit("serial", N_CHANNELS, N_GRIDS, overlapping)
        boxes = [circuit.wire(i).bounding_box for i in range(circuit.n_wires)]
        assert planned(list(range(circuit.n_wires)), boxes) == list(range(circuit.n_wires))
        with use_kernels("reference"):
            ref = SequentialRouter(circuit, iterations=3).run()
        with use_kernels("vectorized"):
            vec = SequentialRouter(circuit, iterations=3).run()
        assert ref.cost == vec.cost
        assert ref.work_cells == vec.work_cells


class TestEngineDispatch:
    @settings(max_examples=40, deadline=None)
    @given(circuits(min_wires=1, max_wires=8))
    def test_sequential_router_bit_identical_across_modes(self, circuit):
        with use_kernels("reference"):
            ref = SequentialRouter(circuit, iterations=3).run()
        with use_kernels("vectorized"):
            vec = SequentialRouter(circuit, iterations=3).run()
        assert ref.quality == vec.quality
        assert ref.work_cells == vec.work_cells
        assert ref.per_iteration_height == vec.per_iteration_height
        assert ref.cost == vec.cost
        assert set(ref.paths) == set(vec.paths)
        for i, path in ref.paths.items():
            assert np.array_equal(path.flat_cells, vec.paths[i].flat_cells)

    def test_custom_wire_order_respected(self):
        wire_list = [
            Wire("a", [Pin(0, 0), Pin(10, 3)]),
            Wire("b", [Pin(5, 2), Pin(15, 5)]),
            Wire("c", [Pin(12, 4), Pin(23, 7)]),
        ]
        circuit = Circuit("ordered", N_CHANNELS, N_GRIDS, wire_list)
        order = [2, 0, 1]
        with use_kernels("reference"):
            ref = SequentialRouter(circuit, iterations=2).run(wire_order=order)
        with use_kernels("vectorized"):
            vec = SequentialRouter(circuit, iterations=2).run(wire_order=order)
        assert ref.cost == vec.cost
        for i in ref.paths:
            assert np.array_equal(
                ref.paths[i].flat_cells, vec.paths[i].flat_cells
            )

    def test_tie_break_validation(self):
        from repro.errors import RoutingError

        cost = CostArray(N_CHANNELS, N_GRIDS)
        wire = Wire("w", [Pin(0, 0), Pin(5, 3)])
        with pytest.raises(RoutingError):
            route_wire_fused(cost, wire, tie_break=2)
        circuit = Circuit("one", N_CHANNELS, N_GRIDS, [wire])
        with pytest.raises(RoutingError):
            route_iteration_wavefront(cost, circuit, [0], None, tie_break=2)
        with pytest.raises(RoutingError):
            route_iteration_wavefront(
                CostArray(N_CHANNELS, N_GRIDS + 1), circuit, [0], None, tie_break=0
            )


def reference_paths(circuit, order, iterations):
    """The per-wire rip-up-and-reroute loop's final paths, keyed in *order*."""
    cost = CostArray(circuit.n_channels, circuit.n_grids)
    paths = {}
    for iteration in range(iterations):
        for i in order:
            if i in paths:
                cost.remove_path(paths[i].flat_cells)
            res = route_wire_reference(cost, circuit.wire(i), tie_break=iteration % 2)
            cost.apply_path(res.path.flat_cells)
            paths[i] = res.path
    return paths


def materialised():
    return obs.get_telemetry().count("route.paths_materialised")


class TestPathTable:
    """``SequentialResult.paths`` reads like the dict the router used to
    fill — same keys in the same order, same paths — and builds a
    :class:`RoutePath` only for whoever looks one up."""

    @pytest.fixture(scope="class")
    def runs(self):
        circuit = bnre_like(n_wires=40)
        order = list(range(circuit.n_wires))[::-1]
        runs = {}
        for mode in ("reference", "vectorized"):
            with use_kernels(mode):
                runs[mode] = SequentialRouter(circuit, iterations=2).run(wire_order=order)
        return circuit, order, runs

    def test_keys_paths_and_order_match_the_dict(self, runs):
        circuit, order, results = runs
        expected = reference_paths(circuit, order, 2)
        waves = plan_waves(order, circuit_geometry(circuit).bbox)
        assert list(results["reference"].paths) == order
        wave_order = np.asarray(order)[np.argsort(waves, kind="stable")]
        assert list(results["vectorized"].paths) == wave_order.tolist()
        for table in (results["reference"].paths, results["vectorized"].paths):
            assert isinstance(table, PathTable)
            assert len(table) == circuit.n_wires
            assert table == expected and expected == table
            assert dict(table.items()) == expected
            assert_table_is(table, expected)

    def test_only_lookups_build_paths(self, runs):
        circuit, order, results = runs
        table, n = results["vectorized"].paths, circuit.n_wires
        before = materialised()
        assert len(table) == n and sorted(table) == list(range(n))
        assert all(w in table for w in range(n))
        assert n not in table and -1 not in table and "w0" not in table
        assert materialised() == before

        assert table.get(n) is None and table.get(-1, "absent") == "absent"
        with pytest.raises(KeyError):
            table[n]
        assert table.get(3) == table[3]
        assert materialised() == before + 2
        values = iter(table.values())
        next(values), next(values)
        del values
        assert materialised() == before + 4
        assert sum(path.n_cells for path in table.values()) == table.cells.size
        assert materialised() == before + 4 + n

    def test_views_match_lookups(self, runs):
        for result in runs[2].values():
            table = result.paths
            assert list(table.values()) == [table[w] for w in table]
            assert list(table.items()) == [(w, table[w]) for w in table]
            assert all(path.flat_cells.dtype == np.int64 for path in table.values())

    def test_wave_router_builds_no_path(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the wave router built a RoutePath")

        circuit = generate_scaled(2000, seed=3)
        before = materialised()
        monkeypatch.setattr(RoutePath, "_trusted", staticmethod(refuse))
        with use_kernels("vectorized"):
            result = SequentialRouter(circuit, iterations=2).run()
        assert len(result.paths) == circuit.n_wires and materialised() == before

    def test_result_pickles(self, runs):
        for result in runs[2].values():
            again = pickle.loads(pickle.dumps(result))
            assert again.quality == result.quality and again.cost == result.cost
            assert list(again.paths) == list(result.paths)
            assert again.paths == result.paths
            view = result.paths[3]  # a slice of the table's cell column
            assert pickle.loads(pickle.dumps(view)) == view

    @pytest.mark.parametrize("mode", ["vectorized", "reference"])
    def test_empty_circuit(self, mode):
        with use_kernels(mode):
            result = SequentialRouter(Circuit("empty", N_CHANNELS, N_GRIDS, []), 2).run()
        assert len(result.paths) == 0 and list(result.paths) == [] and 0 not in result.paths
