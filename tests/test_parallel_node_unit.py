"""Protocol-level unit tests of :class:`repro.parallel.node.MPNode`.

These drive a single node against a scripted harness (no network, no
other nodes) to pin down the update-protocol behaviours the integration
tests can only observe in aggregate.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.assign import DistributedLoop
from repro.circuits import Circuit, Pin, Wire, bnre_like
from repro.circuits.generate import generate_scaled
from repro.errors import GridError, ProtocolError
from repro.faults import RecoveryPolicy
from repro.grid import BBox, OwnershipMap, RegionMap
from repro.parallel import DEFAULT_COST_MODEL
from repro.parallel.node import MPNode, NodePhase, NodeServices
from repro.parallel.wire_regions import wire_region_table
from repro.updates import UpdateKind, UpdateSchedule, build_request
from repro.updates.packets import UpdatePacket, build_control


class Harness:
    """Scripted services: runs the node's events immediately in order."""

    def __init__(self):
        self.sent: List[Tuple[UpdatePacket, float]] = []
        self.commits: List[Tuple[int, int, float]] = []
        self.ripups: List[Tuple[int, int, float]] = []
        self._queue: List[Tuple[float, int, callable]] = []
        self._seq = 0

    def services(self) -> NodeServices:
        return NodeServices(
            send_packet=lambda pkt, t: self.sent.append((pkt, t)),
            schedule=self._schedule,
            on_ripup=lambda p, w, path, t: self.ripups.append((p, w, t)),
            on_commit=lambda p, w, path, t: self.commits.append((p, w, t)),
            on_finished=lambda p, t: None,
            cancel=self._cancel,
        )

    def _schedule(self, time, action):
        self._seq += 1
        handle = [time, self._seq, action, True]
        self._queue.append(handle)
        return handle

    def _cancel(self, handle):
        handle[3] = False

    def run(self, max_events: int = 10_000) -> None:
        """Drain scheduled events in (time, seq) order."""
        count = 0
        while True:
            live = [h for h in self._queue if h[3]]
            if not live:
                return
            live.sort(key=lambda h: (h[0], h[1]))
            handle = live[0]
            handle[3] = False
            handle[2]()
            count += 1
            if count > max_events:
                raise AssertionError("node did not quiesce")


@pytest.fixture
def circuit():
    wires = [
        Wire("w0", [Pin(2, 0), Pin(10, 1)]),
        Wire("w1", [Pin(5, 2), Pin(30, 3)]),
        Wire("w2", [Pin(1, 0), Pin(6, 0)]),
    ]
    return Circuit("unit", 4, 40, wires)


@pytest.fixture
def regions():
    return RegionMap(4, 40, 4)  # 2x2 mesh


def make_node(
    circuit, regions, schedule, wires=(0, 1, 2), iterations=1, harness=None, **kwargs
):
    harness = harness or Harness()
    node = MPNode(
        proc=0,
        circuit=circuit,
        regions=regions,
        schedule=schedule,
        wires=list(wires),
        iterations=iterations,
        cost_model=DEFAULT_COST_MODEL,
        services=harness.services(),
        **kwargs,
    )
    return node, harness


def _per_wire_clips(circuit, regions):
    """Every wire's ``(region, box ∩ region)`` pairs, one box at a time."""
    clips = []
    for wire in circuit.wires:
        box = BBox(*wire.bounding_box)
        clips.append(
            tuple(
                (owner, box.intersect(regions.region(owner)))
                for owner in regions.regions_touched(box)
            )
        )
    return clips


class TestWireRegionTable:
    """The run-level table equals what the node used to derive per wire."""

    @pytest.mark.parametrize("n_procs", [1, 4, 16])
    def test_columns_match_per_wire_geometry(self, n_procs):
        circuit = bnre_like(n_wires=80)
        regions = RegionMap(circuit.n_channels, circuit.n_grids, n_procs)
        table = wire_region_table(circuit, regions)
        for idx, wire in enumerate(circuit.wires):
            box = BBox(*wire.bounding_box)
            assert table.n_segments[idx] == wire.n_pins - 1
            assert table.clips[idx] == tuple(
                (owner, box.intersect(regions.region(owner)))
                for owner in regions.regions_touched(box)
            )

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_array_clips_equal_per_wire_intersections(self, data):
        """The clips computed as arrays from the geometry boxes and the band
        edges are ``regions_touched`` + ``intersect`` of every wire's box,
        on random circuits, on 1x1 and 8x8 meshes and on random ones."""
        n_channels = data.draw(st.integers(8, 14))
        n_grids = data.draw(st.integers(8, 60))
        pin = st.builds(Pin, st.integers(0, n_grids - 1), st.integers(0, n_channels - 1))
        pins = st.lists(pin, min_size=2, max_size=5, unique=True)
        wires = [
            Wire(f"w{i}", p) for i, p in enumerate(data.draw(st.lists(pins, min_size=1, max_size=12)))
        ]
        circuit = Circuit("hyp", n_channels, n_grids, wires)
        drawn = (data.draw(st.integers(1, n_channels)), data.draw(st.integers(1, n_grids)))
        for shape in ((1, 1), (8, 8), drawn):
            regions = RegionMap(n_channels, n_grids, shape[0] * shape[1], shape=shape)
            assert wire_region_table(circuit, regions).clips == _per_wire_clips(circuit, regions)

    @pytest.mark.parametrize("shape", [(1, 1), (4, 4), (8, 8)])
    def test_array_clips_on_a_scaled_circuit(self, shape):
        circuit = generate_scaled(1500, seed=3)
        regions = RegionMap(circuit.n_channels, circuit.n_grids, shape[0] * shape[1], shape=shape)
        assert wire_region_table(circuit, regions).clips == _per_wire_clips(circuit, regions)

    def test_cached_per_circuit_and_mesh_shape(self, circuit):
        table = wire_region_table(circuit, RegionMap(4, 40, 4))
        assert wire_region_table(circuit, RegionMap(4, 40, 4)) is table
        assert wire_region_table(circuit, RegionMap(4, 40, 2)) is not table
        other = Circuit("other", 4, 40, circuit.wires[:2])
        assert wire_region_table(other, RegionMap(4, 40, 4)) is not table

    def test_region_map_must_cover_the_circuit_grid(self, circuit):
        with pytest.raises(GridError):
            wire_region_table(circuit, RegionMap(4, 41, 4))


class TestOwnershipCache:
    """What the pushes read is derived once and refreshed by a death."""

    def derived(self, node):
        owned = node.ownership.regions_owned_by(node.proc)
        area = node.view.n_channels * node.view.n_grids - sum(
            node.regions.region(r).area for r in owned
        )
        pushes = []
        for r in owned:
            dsts = []
            for neighbor in node.regions.neighbors(r):
                dst = node.ownership.live_owner(neighbor)
                if dst != node.proc and dst not in dsts:
                    dsts.append(dst)
            pushes.append((r, node.regions.region(r), dsts))
        return frozenset(owned), area, pushes

    def test_death_refreshes_owned_set_scan_area_and_destinations(self, circuit, regions):
        adopted = 0
        for dead in (1, 2, 3):
            node, _ = make_node(
                circuit,
                regions,
                UpdateSchedule.sender_initiated(1, 1),
                ownership=OwnershipMap(regions, seed=3),
                recovery=RecoveryPolicy(),
            )
            assert (node._owned, node._rmt_scan_area, node._loc_pushes) == self.derived(node)
            assert node._owned == {0}
            node._handle_death(dead, 0.0)
            assert (node._owned, node._rmt_scan_area, node._loc_pushes) == self.derived(node)
            assert all(dead not in dsts for _, _, dsts in node._loc_pushes)
            adopted += len(node._owned) - 1
        assert adopted, "no death handed node 0 a region: the adoption side is untested"


class TestSenderInitiated:
    def test_send_loc_goes_to_neighbors_only(self, circuit, regions):
        node, harness = make_node(
            circuit, regions, UpdateSchedule.sender_initiated(100, 1)
        )
        node.start()
        harness.run()
        loc = [p for p, _ in harness.sent if p.kind is UpdateKind.SEND_LOC_DATA]
        assert loc, "no SendLocData sent"
        assert {p.dst for p in loc} <= set(regions.neighbors(0))

    def test_send_loc_clears_own_region_delta(self, circuit, regions):
        node, harness = make_node(
            circuit, regions, UpdateSchedule.sender_initiated(100, 1)
        )
        node.start()
        harness.run()
        assert node.delta.region_dirty_bbox(node.own_region) is None

    def test_send_rmt_targets_region_owners(self, circuit, regions):
        node, harness = make_node(
            circuit, regions, UpdateSchedule.sender_initiated(1, 100)
        )
        node.start()
        harness.run()
        rmt = [p for p, _ in harness.sent if p.kind is UpdateKind.SEND_RMT_DATA]
        # wire w1 crosses into remote regions, so deltas must flow
        assert rmt
        for p in rmt:
            assert p.region_owner == p.dst
            region = regions.region(p.dst)
            assert region.intersect(p.bbox) == p.bbox

    def test_clean_regions_send_nothing(self, circuit, regions):
        # only wire w2, fully inside region 0: no remote deltas to push
        node, harness = make_node(
            circuit, regions, UpdateSchedule.sender_initiated(1, 100), wires=(2,)
        )
        node.start()
        harness.run()
        assert not [p for p, _ in harness.sent if p.kind is UpdateKind.SEND_RMT_DATA]

    def test_update_interval_respected(self, circuit, regions):
        node, harness = make_node(
            circuit, regions, UpdateSchedule.sender_initiated(100, 2)
        )
        node.start()
        harness.run()
        loc_sends = {p.bbox for p, _ in harness.sent if p.kind is UpdateKind.SEND_LOC_DATA}
        # 3 wires at interval 2 -> exactly one SendLocData burst
        assert len(loc_sends) <= 1


class TestReceiverInitiated:
    def test_lookahead_issues_requests_before_routing(self, circuit, regions):
        node, harness = make_node(
            circuit, regions, UpdateSchedule.receiver_initiated(100, 1)
        )
        node.start()
        harness.run()
        reqs = [p for p, _ in harness.sent if p.kind is UpdateKind.REQ_RMT_DATA]
        assert reqs
        assert node.outstanding_responses == len(reqs)

    def test_response_decrements_outstanding(self, circuit, regions):
        node, harness = make_node(
            circuit, regions, UpdateSchedule.receiver_initiated(100, 1)
        )
        node.start()
        harness.run()
        req = next(p for p, _ in harness.sent if p.kind is UpdateKind.REQ_RMT_DATA)
        response = UpdatePacket(
            kind=UpdateKind.RSP_RMT_DATA,
            src=req.dst,
            dst=0,
            bbox=req.bbox,
            values=np.zeros((req.bbox.height, req.bbox.width), dtype=np.int32),
            region_owner=req.dst,
        )
        before = node.outstanding_responses
        node.deliver(response, arrive_time=node.clock + 1.0)
        harness.run()
        assert node.outstanding_responses == before - 1

    def test_a_duplicated_response_is_counted_once_and_applied_once(
        self, circuit, regions
    ):
        node, harness = make_node(
            circuit, regions, UpdateSchedule.receiver_initiated(100, 1)
        )
        node.start()
        harness.run()
        req = next(p for p, _ in harness.sent if p.kind is UpdateKind.REQ_RMT_DATA)
        response = UpdatePacket(
            kind=UpdateKind.RSP_RMT_DATA,
            src=req.dst,
            dst=0,
            bbox=req.bbox,
            values=np.zeros((req.bbox.height, req.bbox.width), dtype=np.int32),
            region_owner=req.dst,
            req_id=req.req_id,
        )
        before = node.outstanding_responses
        for _ in range(2):
            node.deliver(response, arrive_time=node.clock + 1.0)
            harness.run()
        assert node.outstanding_responses == before - 1
        assert node.duplicate_responses_ignored == 1

    def test_a_response_without_a_request_is_a_protocol_error(self, circuit, regions):
        node, harness = make_node(circuit, regions, UpdateSchedule(), wires=())
        node.start()
        harness.run()
        box = regions.region(1)
        stray = UpdatePacket(
            kind=UpdateKind.RSP_RMT_DATA,
            src=1,
            dst=0,
            bbox=box,
            values=np.zeros((box.height, box.width), dtype=np.int32),
            region_owner=1,
        )
        with pytest.raises(ProtocolError):
            node.deliver(stray, arrive_time=node.clock + 1.0)
            harness.run()

    def test_a_duplicated_delta_response_is_counted_once_and_folded_once(
        self, circuit, regions
    ):
        node, harness = make_node(circuit, regions, UpdateSchedule(), wires=())
        node.start()
        harness.run()
        box = BBox(0, 0, 0, 0)
        answer = UpdatePacket(
            kind=UpdateKind.RSP_LOC_DATA,
            src=1,
            dst=0,
            bbox=box,
            values=np.ones((1, 1), dtype=np.int32),
            region_owner=0,
            req_id=7,
        )
        for _ in range(2):
            node.deliver(answer, arrive_time=node.clock + 1.0)
            harness.run()
        assert node.duplicate_responses_ignored == 1
        assert node.delta.data[0, 0] == 1

    def test_owner_answers_req_rmt(self, circuit, regions):
        node, harness = make_node(circuit, regions, UpdateSchedule(), wires=())
        node.start()
        harness.run()
        request = build_request(
            UpdateKind.REQ_RMT_DATA, 1, 0, regions.region(0), region_owner=0
        )
        node.deliver(request, arrive_time=1.0)
        harness.run()
        rsp = [p for p, _ in harness.sent if p.kind is UpdateKind.RSP_RMT_DATA]
        assert len(rsp) == 1
        assert rsp[0].dst == 1
        assert rsp[0].bbox == regions.region(0)

    def test_req_loc_triggered_by_repeat_requesters(self, circuit, regions):
        schedule = UpdateSchedule(req_loc_every=2, req_rmt_every=100)
        node, harness = make_node(circuit, regions, schedule, wires=())
        node.start()
        harness.run()
        request = build_request(
            UpdateKind.REQ_RMT_DATA, 1, 0, regions.region(0), region_owner=0
        )
        node.deliver(request, arrive_time=1.0)
        harness.run()
        assert not [p for p, _ in harness.sent if p.kind is UpdateKind.REQ_LOC_DATA]
        node.deliver(request, arrive_time=2.0)
        harness.run()
        req_loc = [p for p, _ in harness.sent if p.kind is UpdateKind.REQ_LOC_DATA]
        assert len(req_loc) == 1 and req_loc[0].dst == 1

    def test_req_loc_answered_with_deltas(self, circuit, regions):
        # node 0 routes wire w1 (channels 2-3, cols 5-30: it crosses the
        # bottom regions 2 and 3), then owner 3 pulls its deltas.
        node, harness = make_node(
            circuit, regions, UpdateSchedule(), wires=(1,)
        )
        node.start()
        harness.run()
        assert node.delta.region_dirty_bbox(regions.region(3)) is not None
        req = build_request(
            UpdateKind.REQ_LOC_DATA, 3, 0, regions.region(3), region_owner=3
        )
        node.deliver(req, arrive_time=node.clock + 1.0)
        harness.run()
        rsp = [p for p, _ in harness.sent if p.kind is UpdateKind.RSP_LOC_DATA]
        assert len(rsp) == 1 and rsp[0].dst == 3
        # the served deltas are cleared so they are never double-reported
        assert node.delta.region_dirty_bbox(regions.region(3)) is None


class TestViewMaintenance:
    def test_send_loc_data_replaces_view(self, circuit, regions):
        node, harness = make_node(circuit, regions, UpdateSchedule(), wires=())
        node.start()
        harness.run()
        box = BBox(0, 20, 1, 25)
        values = np.full((2, 6), 7, dtype=np.int32)
        packet = UpdatePacket(UpdateKind.SEND_LOC_DATA, 1, 0, box, values, 1)
        node.deliver(packet, arrive_time=1.0)
        harness.run()
        assert node.view[0, 22] == 7

    def test_send_rmt_data_accumulates_into_view_and_delta(self, circuit, regions):
        node, harness = make_node(circuit, regions, UpdateSchedule(), wires=())
        node.start()
        harness.run()
        own = regions.region(0)
        box = BBox(own.c_lo, own.x_lo, own.c_lo, own.x_lo)
        values = np.array([[3]], dtype=np.int32)
        packet = UpdatePacket(UpdateKind.SEND_RMT_DATA, 1, 0, box, values, 0)
        node.deliver(packet, arrive_time=1.0)
        harness.run()
        assert node.view[own.c_lo, own.x_lo] == 3
        assert node.delta.data[own.c_lo, own.x_lo] == 3

    def test_done_node_still_serves_requests(self, circuit, regions):
        node, harness = make_node(
            circuit, regions, UpdateSchedule.sender_initiated(100, 100)
        )
        node.start()
        harness.run()
        assert node.is_done and node.phase == NodePhase.DONE
        request = build_request(
            UpdateKind.REQ_RMT_DATA, 2, 0, regions.region(0), region_owner=0
        )
        node.deliver(request, arrive_time=node.clock + 5.0)
        harness.run()
        assert any(p.kind is UpdateKind.RSP_RMT_DATA for p, _ in harness.sent)


class TestIterations:
    def test_two_iterations_route_each_wire_twice(self, circuit, regions):
        node, harness = make_node(
            circuit, regions, UpdateSchedule(), wires=(0, 2), iterations=2
        )
        node.start()
        harness.run()
        assert node.qi == 4
        commits = [w for _, w, _ in harness.commits]
        assert commits == [0, 2, 0, 2]
        ripups = [w for _, w, _ in harness.ripups]
        assert ripups == [0, 2]

    def test_clock_monotone_through_run(self, circuit, regions):
        node, harness = make_node(
            circuit, regions, UpdateSchedule.sender_initiated(2, 2), iterations=2
        )
        node.start()
        harness.run()
        times = [t for _, _, t in harness.commits]
        assert times == sorted(times)
        assert node.finish_time_s == pytest.approx(node.clock)


class TestCrashAwareRecovery:
    """Recovery branches that whole crash runs do not reach."""

    def crash_aware_node(self, circuit, regions):
        node, harness = make_node(
            circuit,
            regions,
            UpdateSchedule(),
            wires=(),
            ownership=OwnershipMap(regions, seed=3),
            recovery=RecoveryPolicy(),
        )
        node.start()
        harness.run()
        harness.sent.clear()
        return node, harness

    @pytest.mark.parametrize(
        "region_owner, box_region",
        [(1, 1), (0, 3)],
        ids=["region-not-owned", "box-outside-owned-region"],
    )
    def test_misdirected_req_rmt_is_counted_and_dropped(
        self, circuit, regions, region_owner, box_region
    ):
        node, harness = self.crash_aware_node(circuit, regions)
        request = build_request(
            UpdateKind.REQ_RMT_DATA, 1, 0, regions.region(box_region), region_owner=region_owner
        )
        node.deliver(request, arrive_time=1.0)
        harness.run()
        assert node.misdirected_requests == 1
        assert harness.sent == []

    def test_probe_timeout_after_a_death_notice_sends_nothing(self, circuit, regions):
        node, harness = self.crash_aware_node(circuit, regions)
        node.probe_peer(1, 1.0)
        assert [p.kind for p, _ in harness.sent] == [UpdateKind.HEARTBEAT]
        notice = build_control(UpdateKind.DEATH_NOTICE, 2, 0, 1)
        node.deliver(notice, arrive_time=1.0 + RecoveryPolicy().watchdog_timeout_s / 2)
        harness.run()  # the notice arrives, then the probe's timeout fires
        assert node.death_notices_received == 1
        assert not node.ownership.is_live(1)
        assert node._pending_probes == {}
        assert node.probes_sent == 1
        assert [p.kind for p, _ in harness.sent].count(UpdateKind.HEARTBEAT) == 1

    def test_an_answered_probe_clears_its_peers_abandonments(self, circuit, regions):
        node, harness = self.crash_aware_node(circuit, regions)
        node._abandons_by_peer.update({1: 2, 2: 2})
        node.probe_peer(1, 1.0)
        probe = harness.sent[0][0]
        ack = build_control(UpdateKind.HEARTBEAT_ACK, 1, 0, 1, req_id=probe.req_id)
        for _ in range(2):  # the second ack answers nothing
            node.deliver(ack, arrive_time=1.0 + RecoveryPolicy().watchdog_timeout_s / 2)
            harness.run()
        assert node._pending_probes == {}
        assert node._abandons_by_peer == {1: 0, 2: 2}
        assert node.duplicate_responses_ignored == 1


class TestControlPackets:
    def test_control_answers_marshal_no_cells(self, circuit, regions):
        node, harness = make_node(
            circuit, regions, UpdateSchedule(), wires=(), task_loop=DistributedLoop([])
        )
        node.start()
        harness.run()
        harness.sent.clear()
        before = node.work.assemble_units
        for kind in (UpdateKind.HEARTBEAT, UpdateKind.TASK_REQUEST):
            node.deliver(build_control(kind, 1, 0, 1, req_id=5), arrive_time=1.0)
            harness.run()
        assert [(p.kind, p.dst) for p, _ in harness.sent] == [
            (UpdateKind.HEARTBEAT_ACK, 1),
            (UpdateKind.TASK_GRANT, 1),
        ]
        assert node.work.assemble_units == before

    def test_the_last_grant_ends_the_wait_for_it(self, circuit, regions):
        harness = Harness()
        node = MPNode(
            proc=1,
            circuit=circuit,
            regions=regions,
            schedule=UpdateSchedule(),
            wires=[],
            iterations=1,
            cost_model=DEFAULT_COST_MODEL,
            services=harness.services(),
            task_loop=DistributedLoop([]),
        )
        node.start()
        harness.run()
        assert [p.kind for p, _ in harness.sent] == [UpdateKind.TASK_REQUEST]
        waited_from = node.clock
        node.deliver(build_control(UpdateKind.TASK_GRANT, 0, 1, -1), arrive_time=waited_from + 1.0)
        harness.run()
        assert node.phase is NodePhase.DONE
        assert node.blocked_time_s == node.finish_time_s - waited_from > 1.0
