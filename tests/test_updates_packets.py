"""Tests for update packet construction and sizing."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.errors import ProtocolError
from repro.grid import BBox, CostArray, DeltaArray
from repro.updates import (
    ENTRY_BYTES,
    HEADER_BYTES,
    UpdateKind,
    UpdatePacket,
    build_control,
    build_loc_data,
    build_request,
    build_response,
    build_rmt_data,
    is_data,
    is_request,
    is_sender_initiated,
    packet_bytes,
)


@pytest.fixture
def state():
    cost = CostArray(4, 40)
    delta = DeltaArray(4, 40)
    return cost, delta


#: the whole 4x40 grid as one region's clip: covers any written cells
WHOLE = ((0, BBox(0, 0, 3, 39)),)


def touch(cost, delta, cells):
    flat = np.array([c * 40 + x for c, x in cells], dtype=np.int64)
    cost.apply_path(flat)
    delta.record_path(flat, +1, WHOLE)


class TestClassification:
    def test_sender_initiated_kinds(self):
        assert is_sender_initiated(UpdateKind.SEND_LOC_DATA)
        assert is_sender_initiated(UpdateKind.SEND_RMT_DATA)
        assert not is_sender_initiated(UpdateKind.REQ_RMT_DATA)

    def test_request_kinds(self):
        assert is_request(UpdateKind.REQ_RMT_DATA)
        assert is_request(UpdateKind.REQ_LOC_DATA)
        assert not is_request(UpdateKind.RSP_RMT_DATA)

    def test_data_kinds(self):
        for kind in (
            UpdateKind.SEND_LOC_DATA,
            UpdateKind.SEND_RMT_DATA,
            UpdateKind.RSP_RMT_DATA,
            UpdateKind.RSP_LOC_DATA,
        ):
            assert is_data(kind)
        assert not is_data(UpdateKind.REQ_RMT_DATA)


class TestPacketSizes:
    def test_request_is_header_only(self):
        assert packet_bytes(UpdateKind.REQ_RMT_DATA, BBox(0, 0, 3, 9)) == HEADER_BYTES

    def test_data_packet_counts_cells(self):
        box = BBox(0, 0, 1, 4)  # 2x5 = 10 cells
        expected = HEADER_BYTES + ENTRY_BYTES * 10
        assert packet_bytes(UpdateKind.SEND_LOC_DATA, box) == expected

    def test_packet_length_property(self, state):
        cost, delta = state
        touch(cost, delta, [(1, 5), (1, 6)])
        pkt = build_loc_data(0, 1, cost, delta, BBox(0, 0, 3, 39))
        assert pkt.length_bytes == HEADER_BYTES + ENTRY_BYTES * pkt.payload_cells


class TestBuildLocData:
    def test_clean_region_returns_none(self, state):
        cost, delta = state
        assert build_loc_data(0, 1, cost, delta, BBox(0, 0, 3, 39)) is None

    def test_dirty_region_ships_absolute_values(self, state):
        cost, delta = state
        touch(cost, delta, [(1, 5), (2, 8)])
        pkt = build_loc_data(0, 1, cost, delta, BBox(0, 0, 3, 39))
        assert pkt.kind is UpdateKind.SEND_LOC_DATA
        assert pkt.bbox == BBox(1, 5, 2, 8)
        assert pkt.values[0, 0] == 1  # absolute cost value at (1,5)
        assert pkt.region_owner == 0

    def test_only_in_region_changes_count(self, state):
        cost, delta = state
        touch(cost, delta, [(0, 1), (3, 30)])
        pkt = build_loc_data(0, 1, cost, delta, BBox(0, 0, 1, 19))
        assert pkt.bbox == BBox(0, 1, 0, 1)


class TestBuildRmtData:
    def test_ships_deltas_not_absolutes(self, state):
        cost, delta = state
        cost.data[1, 5] = 7  # pre-existing occupancy not in delta
        flat = np.array([1 * 40 + 5], dtype=np.int64)
        delta.record_path(flat, -1, WHOLE)
        pkt = build_rmt_data(0, 1, delta, BBox(0, 0, 3, 39))
        assert pkt.kind is UpdateKind.SEND_RMT_DATA
        assert pkt.values[0, 0] == -1

    def test_clean_region_returns_none(self, state):
        _, delta = state
        assert build_rmt_data(0, 1, delta, BBox(0, 0, 3, 39)) is None


class TestRequestsResponses:
    def test_build_request(self):
        box = BBox(1, 2, 3, 4)
        pkt = build_request(UpdateKind.REQ_RMT_DATA, 2, 5, box, region_owner=5)
        assert pkt.length_bytes == HEADER_BYTES
        assert pkt.values is None

    def test_build_request_rejects_data_kinds(self):
        with pytest.raises(ProtocolError):
            build_request(UpdateKind.SEND_LOC_DATA, 0, 1, BBox(0, 0, 1, 1), 1)

    def test_response_echoes_and_flips_direction(self):
        box = BBox(1, 2, 2, 4)
        req = build_request(UpdateKind.REQ_RMT_DATA, 2, 5, box, region_owner=5)
        rsp = build_response(req, np.zeros((2, 3), dtype=np.int32))
        assert rsp.kind is UpdateKind.RSP_RMT_DATA
        assert (rsp.src, rsp.dst) == (5, 2)
        assert rsp.bbox == box

    def test_req_loc_gets_rsp_loc(self):
        box = BBox(0, 0, 0, 0)
        req = build_request(UpdateKind.REQ_LOC_DATA, 1, 3, box, region_owner=1)
        rsp = build_response(req, np.zeros((1, 1), dtype=np.int32))
        assert rsp.kind is UpdateKind.RSP_LOC_DATA

    def test_response_to_data_packet_rejected(self):
        pkt = UpdatePacket(
            UpdateKind.SEND_LOC_DATA, 0, 1, BBox(0, 0, 0, 0),
            np.zeros((1, 1), dtype=np.int32), 0,
        )
        with pytest.raises(ProtocolError):
            build_response(pkt, np.zeros((1, 1), dtype=np.int32))


class TestPacketValidation:
    def test_request_with_payload_rejected(self):
        with pytest.raises(ProtocolError):
            UpdatePacket(
                UpdateKind.REQ_RMT_DATA, 0, 1, BBox(0, 0, 0, 0),
                np.zeros((1, 1), dtype=np.int32), 1,
            )

    def test_data_without_payload_rejected(self):
        with pytest.raises(ProtocolError):
            UpdatePacket(UpdateKind.SEND_LOC_DATA, 0, 1, BBox(0, 0, 0, 0), None, 0)

    def test_payload_shape_must_match_bbox(self):
        with pytest.raises(ProtocolError):
            UpdatePacket(
                UpdateKind.SEND_LOC_DATA, 0, 1, BBox(0, 0, 1, 1),
                np.zeros((3, 3), dtype=np.int32), 0,
            )

    def test_control_with_payload_rejected(self):
        with pytest.raises(ProtocolError):
            UpdatePacket(
                UpdateKind.HEARTBEAT, 0, 1, BBox(0, 0, 0, 0),
                np.zeros((1, 1), dtype=np.int32), 0,
            )


class TestPacketRecord:
    def test_sizes_are_fixed_at_construction(self):
        box = BBox(1, 2, 2, 4)  # 2x3 = 6 cells
        values = np.arange(6, dtype=np.int32).reshape(2, 3)
        data = UpdatePacket(UpdateKind.SEND_RMT_DATA, 0, 1, box, values, 1)
        assert (data.payload_cells, data.length_bytes) == (6, HEADER_BYTES + ENTRY_BYTES * 6)
        assert data.length_bytes == packet_bytes(data.kind, data.bbox)
        encoded = UpdatePacket(UpdateKind.SEND_RMT_DATA, 0, 1, box, values, 1, wire_bytes=40)
        assert (encoded.payload_cells, encoded.length_bytes) == (6, 40)
        request = build_request(UpdateKind.REQ_RMT_DATA, 2, 5, box, region_owner=5, req_id=9)
        assert (request.payload_cells, request.length_bytes) == (0, HEADER_BYTES)

    @pytest.mark.parametrize("protocol", range(2, pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip(self, protocol):
        """Packets cross the live router's pipes pickled."""
        box = BBox(1, 2, 2, 4)
        values = np.arange(6, dtype=np.int32).reshape(2, 3)
        packets = [
            UpdatePacket(UpdateKind.RSP_RMT_DATA, 3, 1, box, values, 3, wire_bytes=40, req_id=7),
            build_request(UpdateKind.REQ_LOC_DATA, 2, 5, box, region_owner=2, req_id=11),
            build_control(UpdateKind.TASK_GRANT, 0, 4, -1),
        ]
        for packet in packets:
            back = pickle.loads(pickle.dumps(packet, protocol))
            for name in UpdatePacket.__slots__:
                if name != "values":
                    assert getattr(back, name) == getattr(packet, name), name
            assert back.kind is packet.kind
            if packet.values is None:
                assert back.values is None
            else:
                assert np.array_equal(back.values, packet.values)
                assert back.values.dtype == packet.values.dtype
