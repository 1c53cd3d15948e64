"""The circuit's two views: the pin table and the ``Wire`` objects.

Whole-circuit code reads the columns, per-wire code reads
``circuit.wire(i)``; whichever a circuit was built from, the other is
derived once.  These tests pin the generators' circuits to digests
recorded before ``generate_scaled`` went columnar, hold
``Circuit.from_columns`` to the object constructors (same circuits, same
rejections), and check that routing neither cares where a circuit came
from nor builds the object view behind the caller's back.
"""

from __future__ import annotations

import hashlib
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.assign import Assignment, load_report
from repro.circuits import (
    Circuit,
    CircuitStats,
    Pin,
    ScaledCircuitConfig,
    Wire,
    bnre_like,
    compute_stats,
    generate_scaled,
    mdc_like,
    span_histogram,
    tiny_test_circuit,
)
from repro.errors import CircuitError
from repro.harness.cache import circuit_fingerprint
from repro.kernels import use_kernels
from repro.route.engine import SequentialRouter
from repro.route.wavefront import CircuitGeometry


def _scaled(**kw) -> Circuit:
    return generate_scaled(kw["n_wires"], config=ScaledCircuitConfig(name="x", **kw))


#: ``circuit_fingerprint`` of each circuit at the commit before this file.
PINNED = [
    (lambda: generate_scaled(50, seed=1),
     "2a929ec89f0cfddb754c24eb1055a5da052b999848c6a7d7e1b7ad91f189f225"),
    (lambda: generate_scaled(3000, seed=7),
     "41e627c1e99a7159181e80be88a0fc40ffc361e89047560dadc439cfc161da58"),
    (lambda: generate_scaled(15000, seed=12345),
     "ef7311cda3a876897159104014275f04a5faec6322d3a3d14564f44a775c62f2"),
    (lambda: generate_scaled(40000, seed=5),
     "00db1bacf2eb709d7621a8023f1772c8636df05c0e84ed22c18907eba49dbdde"),
    (lambda: generate_scaled(3000, rent_exponent=0.45),
     "019a3d98aec540d1e0e732ccd446253fe3a9e08723db4cf05e6778a8664381c6"),
    (lambda: _scaled(n_wires=2000, seed=3, rent_exponent=0.7, max_pins=2,
                     n_channels=4, n_grids=16),
     "18aec311dbb16a51ca3dbdcd914010d0e58de83c1f90c59e48b60aed35f5df6b"),
    # 6 025 pins on a 2 x 6 grid: most extra pins collide.
    (lambda: _scaled(n_wires=2000, seed=3, rent_exponent=0.7, max_pins=12,
                     pin_geometric_p=0.15, n_channels=2, n_grids=6),
     "b51a9d32d1e4d5f5eee868fb9af040f24fc127c8b1fa77f7f2aea5ae172fbfd2"),
    (lambda: _scaled(n_wires=1, seed=1),
     "3756fba064a2893d290e82cd074c2f81eef0e0d44be6c94870ecd76830914796"),
    (lambda: _scaled(n_wires=7, seed=2, rent_exponent=0.3, channel_geometric_p=1.0,
                     pin_geometric_p=1.0),
     "8ed90c50234ac60c6893790a5d8136faa15dbba2f11ac456dc7724b9b03efd83"),
    (bnre_like, "ee5e2e1ec52ecf985ff96f5939ec091c3c675edcf32cb4d1e5d946d27d920ec8"),
    (mdc_like, "0969b08be21aa7be96cfe166936816e9e6ebe7a1f4479f9491f42e783acf72dd"),
    (tiny_test_circuit, "9481c462e713e4f1c001eb48176c84b064dad5ac3f60e415e391133e9dc12c08"),
    (lambda: bnre_like(seed=5, n_wires=70),
     "db70a558c38023d15026a89a99548cb78ca622fd61c728d048844334ca8e07cb"),
]


def _digest_of_objects(circuit: Circuit) -> str:
    """The fingerprint as it was computed: one walk over the objects."""
    digest = hashlib.sha256()
    digest.update(
        f"{circuit.name}|{circuit.n_channels}|{circuit.n_grids}|{len(circuit.wires)}".encode()
    )
    for wire in circuit.wires:
        digest.update(wire.name.encode())
        for pin in wire.pins:
            digest.update(f"{pin.x},{pin.channel};".encode())
    return digest.hexdigest()


class TestPinnedCircuits:
    @pytest.mark.parametrize("build,digest", PINNED, ids=[d[:8] for _, d in PINNED])
    def test_same_circuit_as_before(self, build, digest):
        circuit = build()
        assert circuit_fingerprint(circuit) == digest
        assert _digest_of_objects(circuit) == digest

    def test_scaled_names_stay_in_index_order(self):
        names = generate_scaled(300).wire_names()
        assert names[0] == "w000000" and list(names) == sorted(names)
        one = Circuit.from_columns("one", 1, 2, [0, 1], [0, 0], [0, 2])
        assert one.wire_names() == ("w000000",)


# ----------------------------------------------------------------------
# from_columns against the object constructors
# ----------------------------------------------------------------------
N_CHANNELS, N_GRIDS = 5, 12

pin_multisets = st.lists(
    st.lists(
        st.tuples(st.integers(0, N_GRIDS - 1), st.integers(0, N_CHANNELS - 1)),
        min_size=2, max_size=7,
    ).filter(lambda pins: len(set(pins)) >= 2),
    min_size=0, max_size=6,
)

GEOMETRY_COLUMNS = ("seg_ptr", "x1", "c1", "x2", "c2", "cand_ptr", "cand", "work_cells", "bbox")


def _columns(per_wire):
    """Sorted, de-duplicated CSR columns of per-wire pin multisets."""
    xs, cs, ptr = [], [], [0]
    for pins in per_wire:
        for x, c in sorted(set(pins)):
            xs.append(x)
            cs.append(c)
        ptr.append(len(xs))
    return xs, cs, ptr


class TestFromColumns:
    @settings(max_examples=120, deadline=None)
    @given(pin_multisets)
    def test_equals_the_object_path(self, per_wire):
        names = [f"n{i}" for i in range(len(per_wire))]
        objects = Circuit(
            "c", N_CHANNELS, N_GRIDS,
            [Wire(name, [Pin(x, c) for x, c in set(pins)])
             for name, pins in zip(names, per_wire)],
        )
        columns = Circuit.from_columns("c", N_CHANNELS, N_GRIDS, *_columns(per_wire), names)
        assert "wires" not in vars(columns)
        for view in ("pin_x", "pin_channel", "pin_ptr"):
            assert np.array_equal(getattr(columns, view), getattr(objects, view))
        assert columns.describe() == objects.describe()
        assert circuit_fingerprint(columns) == circuit_fingerprint(objects)
        if per_wire:
            a, b = CircuitGeometry(columns), CircuitGeometry(objects)
            for column in GEOMETRY_COLUMNS:
                assert np.array_equal(getattr(a, column), getattr(b, column)), column
        assert "wires" not in vars(columns)  # nothing above asked for an object

        shipped = pickle.loads(pickle.dumps(columns))
        assert "wires" not in vars(shipped)
        assert np.array_equal(shipped.pin_x, columns.pin_x)
        assert np.array_equal(shipped.pin_ptr, columns.pin_ptr)

        assert columns == objects and hash(columns) == hash(objects)
        assert columns.wires == objects.wires and repr(columns) == repr(objects)
        assert shipped == columns and pickle.loads(pickle.dumps(columns)) == objects

    def test_the_object_view_is_derived_once_and_counted(self):
        circuit = Circuit.from_columns("c", 2, 9, [0, 4, 1, 1, 8], [0, 1, 0, 1, 0], [0, 2, 5])
        before = obs.get_telemetry().count("circuits.wires_materialised")
        wires = circuit.wires
        assert wires == (
            Wire("w000000", [Pin(0, 0), Pin(4, 1)]),
            Wire("w000001", [Pin(1, 0), Pin(1, 1), Pin(8, 0)]),
        )
        assert circuit.wires is wires and circuit.wire(1) is wires[1]
        assert list(circuit) == list(wires) and len(circuit) == 2
        assert obs.get_telemetry().count("circuits.wires_materialised") == before + 2
        Circuit("c", 2, 9, wires)  # built from objects: nothing to derive
        assert obs.get_telemetry().count("circuits.wires_materialised") == before + 2

    def test_columns_are_read_only_copies(self):
        xs = np.array([0, 4])
        circuit = Circuit.from_columns("c", 2, 9, xs, [0, 1], [0, 2])
        xs[0] = 7
        assert circuit.pin_x.tolist() == [0, 4]
        with pytest.raises(ValueError):
            circuit.pin_x[0] = 7

    @pytest.mark.parametrize(
        "why,dims,columns,names",
        [
            ("unsorted pins", (4, 10), ([5, 2], [0, 0], [0, 2]), None),
            ("unsorted channels", (4, 10), ([2, 2], [3, 1], [0, 2]), None),
            ("duplicate pin", (4, 10), ([2, 2, 5], [1, 1, 0], [0, 3]), None),
            ("one-pin wire", (4, 10), ([0, 5, 7], [0, 0, 0], [0, 2, 3]), None),
            ("empty wire", (4, 10), ([0, 5], [0, 0], [0, 0, 2]), None),
            ("negative x", (4, 10), ([-1, 5], [0, 0], [0, 2]), None),
            ("negative channel", (4, 10), ([1, 5], [0, -2], [0, 2]), None),
            ("off-grid x", (4, 10), ([1, 10], [0, 0], [0, 2]), None),
            ("off-grid channel", (4, 10), ([1, 5], [0, 4], [0, 2]), None),
            ("zero channels", (0, 10), ([], [], [0]), None),
            ("zero grids", (4, 0), ([], [], [0]), None),
            ("duplicate names", (4, 10), ([0, 5, 1, 6], [0, 0, 1, 1], [0, 2, 4]), ["a", "a"]),
            ("too few names", (4, 10), ([0, 5, 1, 6], [0, 0, 1, 1], [0, 2, 4]), ["a"]),
            ("pin_ptr ends early", (4, 10), ([0, 5, 7], [0, 0, 0], [0, 2]), None),
            ("pin_ptr starts late", (4, 10), ([0, 5, 7], [0, 0, 0], [1, 3]), None),
            ("pin_ptr empty", (4, 10), ([], [], []), None),
            ("ragged columns", (4, 10), ([0, 5], [0], [0, 2]), None),
        ],
    )
    def test_rejects_what_the_object_path_rejects(self, why, dims, columns, names):
        with pytest.raises(CircuitError):
            Circuit.from_columns("c", *dims, *columns, names)

    def test_errors_name_the_wire(self):
        with pytest.raises(CircuitError, match="'b'.*outside the 4x10 grid"):
            Circuit.from_columns("c", 4, 10, [0, 5, 1, 12], [0, 0, 1, 1], [0, 2, 4], ["a", "b"])
        with pytest.raises(CircuitError, match="wire #1 needs >= 2 pins, got 1"):
            Circuit.from_columns("c", 4, 10, [0, 5, 7], [0, 0, 0], [0, 2, 3])


# ----------------------------------------------------------------------
# whole-circuit readers
# ----------------------------------------------------------------------
def _stats_of_objects(circuit: Circuit) -> CircuitStats:
    """``compute_stats`` as it was written: three walks over the wires."""
    spans = np.array([w.x_span for w in circuit.wires], dtype=np.int64)
    pins = np.array([w.n_pins for w in circuit.wires], dtype=np.int64)
    costs = np.array([w.length_cost() for w in circuit.wires], dtype=np.int64)
    return CircuitStats(
        n_wires=circuit.n_wires,
        n_pins=int(pins.sum()),
        mean_pins_per_wire=float(pins.mean()),
        two_pin_fraction=float((pins == 2).mean()),
        mean_x_span=float(spans.mean()),
        median_x_span=float(np.median(spans)),
        p90_x_span=float(np.percentile(spans, 90)),
        max_x_span=int(spans.max()),
        mean_length_cost=float(costs.mean()),
        max_length_cost=int(costs.max()),
        long_wire_fraction=float((spans > 0.25 * circuit.n_grids).mean()),
    )


class TestWholeCircuitReaders:
    @pytest.mark.parametrize(
        "build", [bnre_like, mdc_like, tiny_test_circuit, lambda: generate_scaled(3000)]
    )
    def test_stats_equal_the_object_walk(self, build):
        circuit = build()
        assert compute_stats(circuit) == _stats_of_objects(circuit)
        counts, _ = span_histogram(circuit)
        assert counts.sum() == circuit.n_wires
        assert circuit.length_costs().tolist() == [w.length_cost() for w in circuit.wires]

    def test_stats_of_a_circuit_without_wires(self, recwarn):
        empty = Circuit("e", 2, 4)
        assert empty.describe() == "e: 0 wires, 0 pins, 2 channels x 4 routing grids"
        assert empty.length_costs().size == 0
        with pytest.raises(CircuitError, match="circuit has no wires"):
            compute_stats(empty)
        assert not recwarn.list  # used to print four RuntimeWarnings, then IndexError

    def test_load_report_reads_the_columns(self):
        circuit = generate_scaled(400)
        dealt = Assignment(owner=np.arange(400) % 4, n_procs=4, method="round robin")
        report = load_report(circuit, dealt)
        assert "wires" not in vars(circuit)
        costs = np.array([w.length_cost() for w in circuit.wires], dtype=np.float64)
        work = costs**2 / 100.0 + costs
        assert report.work_per_proc.tolist() == pytest.approx(
            [work[p::4].sum() for p in range(4)], rel=1e-12
        )


# ----------------------------------------------------------------------
# routing
# ----------------------------------------------------------------------
class TestRoutingIgnoresProvenance:
    @pytest.mark.parametrize("kernels", ["vectorized", "reference"])
    def test_columnar_circuit_routes_like_its_object_twin(self, kernels):
        columnar = generate_scaled(3000)
        twin = Circuit(
            columnar.name, columnar.n_channels, columnar.n_grids,
            generate_scaled(3000).wires,
        )
        with use_kernels(kernels):
            a = SequentialRouter(columnar, 2).run()
            b = SequentialRouter(twin, 2).run()
        assert a.quality == b.quality and a.work_cells == b.work_cells
        assert a.per_iteration_height == b.per_iteration_height
        assert all(
            np.array_equal(a.paths[i].flat_cells, b.paths[i].flat_cells)
            for i in range(columnar.n_wires)
        )
        # The wave-front route is whole-circuit code; the scalar loop asks
        # for every wire.
        assert ("wires" in vars(columnar)) == (kernels == "reference")


# ----------------------------------------------------------------------
# pickling
# ----------------------------------------------------------------------
class TestPicklesDeclaredStateOnly:
    """What routing derives from a circuit (geometry tables, wave plan,
    region clips, the rows stamped on its wires) never rides in a pickle:
    the live drivers ship the circuit to every worker they spawn."""

    @pytest.mark.parametrize("kernels", ["vectorized", "reference"])
    @pytest.mark.parametrize(
        "build",
        [lambda: bnre_like(n_wires=100), lambda: generate_scaled(300)],
        ids=["objects", "columns"],
    )
    def test_same_bytes_before_and_after_routing(self, kernels, build):
        from repro.parallel import run_message_passing, run_shared_memory
        from repro.route.wavefront import circuit_geometry
        from repro.updates import UpdateSchedule

        circuit = build()
        before = pickle.dumps(circuit)
        wire_before = pickle.dumps(circuit.wire(0))
        assert pickle.dumps(circuit) == before  # building the wires changed nothing
        schedule = UpdateSchedule.mixed_example()
        runs = {}
        with use_kernels(kernels):
            for name, run in (
                ("mp", lambda c: run_message_passing(c, schedule, n_procs=4, iterations=2)),
                ("sm", lambda c: run_shared_memory(c, n_procs=4, iterations=2)),
                ("seq", lambda c: SequentialRouter(c, 2).run()),
            ):
                runs[name] = run(circuit)
                assert pickle.dumps(circuit) == before, name
                assert pickle.dumps(circuit.wire(0)) == wire_before, name
            if kernels == "vectorized":
                assert circuit_geometry(circuit).tables is not None

            shipped = pickle.loads(before)
            assert shipped == circuit and shipped.wire(0) is not circuit.wire(0)
            assert not any(name.startswith(("_wf", "_mp")) for name in vars(shipped))
            assert not shipped.pin_x.flags.writeable
            builds = obs.get_telemetry().count("route.geometry_builds")
            again = run_shared_memory(shipped, n_procs=4, iterations=2)
            # The round-tripped circuit rebuilt its own tables, once: the
            # fused evaluator reads them, and under either kernel mode so
            # does the trace collector (a segment's read cells).
            assert obs.get_telemetry().count("route.geometry_builds") - builds == 1
        assert again.quality == runs["sm"].quality
        assert all(
            np.array_equal(again.paths[i].flat_cells, runs["sm"].paths[i].flat_cells)
            for i in range(circuit.n_wires)
        )
