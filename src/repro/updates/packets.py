"""Update packet construction and wire-size accounting.

Paper §4.3.1 weighs three packet structures and picks the third: "the
sending processor scans the delta array for changes ... For each cost
array region, the sender constructs a packet which contains the bounding
box of all the changes made within that region, as well as the coordinates
of the bounding box being sent."

Wire format (accounted, never actually serialised — the simulator moves
NumPy blocks):

- every packet: a fixed :data:`HEADER_BYTES` header (kind, source,
  destination, sequence — 1+1+1+1 bytes — plus the 4x2-byte bbox
  coordinates, total 12);
- data packets add ``bbox.area *`` :data:`ENTRY_BYTES` payload (cost
  entries are 16-bit counts);
- request packets are header-only.

These sizes put the reproduction's traffic in the same regime as the
paper's (a full 16-processor owned region of bnrE is ~213 cells = 426
payload bytes; change bboxes are typically much smaller).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import ProtocolError
from ..grid.bbox import BBox
from ..grid.cost_array import CostArray
from ..grid.delta import DeltaArray
from .types import UpdateKind, is_control, is_data, is_request

__all__ = [
    "HEADER_BYTES",
    "ENTRY_BYTES",
    "UpdatePacket",
    "packet_bytes",
    "build_loc_data",
    "build_rmt_data",
    "build_request",
    "build_response",
    "build_control",
]

#: Fixed per-packet header: kind/src/dst/seq plus 4 x 16-bit bbox coordinates.
HEADER_BYTES = 12
#: Bytes per transmitted cost/delta array entry (16-bit counts).
ENTRY_BYTES = 2

#: Every kind is a request, a control or a data kind; only data carries cells.
_DATA_KINDS = tuple(kind for kind in UpdateKind if is_data(kind))


class UpdatePacket:
    """One update transaction travelling as a network message payload.

    ``values`` is ``None`` for request packets; for data packets it is the
    ``(bbox.height, bbox.width)`` block of absolute cost values
    (SendLocData / RspRmtData) or signed deltas (SendRmtData / RspLocData).
    ``region_owner`` records which processor owns the region the bbox lies
    in (used by ReqLocData bookkeeping and assertions).

    ``wire_bytes`` is the optional wire-size override of the alternative
    §4.3.1 packet structures (wire-based encoding): the *information*
    still travels as bbox + values, but the accounted bytes follow the
    encoding.  ``req_id`` is the request correlation id: set on
    ReqRmtData/ReqLocData by nodes that track recovery state, echoed back
    on the matching response.  It fits in the header's sequence byte
    conceptually, so it adds no wire bytes; ``None`` preserves the legacy
    un-tracked protocol.

    A packet is built once and never changed (treat it as immutable):
    the constructor validates the payload against the kind and computes
    ``length_bytes`` (the wire size; the encoding override wins if
    present) and ``payload_cells`` (array cells carried, 0 for requests)
    once.  A hand-written ``__slots__`` class, not a frozen dataclass,
    whose generated ``__init__`` cost four times as much per packet.
    """

    __slots__ = (
        "kind", "src", "dst", "bbox", "values", "region_owner",
        "wire_bytes", "req_id", "length_bytes", "payload_cells",
    )

    def __init__(
        self,
        kind: UpdateKind,
        src: int,
        dst: int,
        bbox: BBox,
        values: Optional[np.ndarray],
        region_owner: int,
        wire_bytes: Optional[int] = None,
        req_id: Optional[int] = None,
    ) -> None:
        if kind in _DATA_KINDS:
            if values is None:
                raise ProtocolError(f"{kind} packets need a payload")
            if values.shape != (bbox.height, bbox.width):
                raise ProtocolError(
                    f"payload shape {values.shape} != bbox "
                    f"{bbox.height}x{bbox.width}"
                )
            self.payload_cells = values.size
            self.length_bytes = (
                HEADER_BYTES + ENTRY_BYTES * values.size
                if wire_bytes is None
                else wire_bytes
            )
        else:
            if values is not None:
                raise ProtocolError(f"{kind} packets carry no payload")
            self.payload_cells = 0
            self.length_bytes = HEADER_BYTES if wire_bytes is None else wire_bytes
        self.kind = kind
        self.src = src
        self.dst = dst
        self.bbox = bbox
        self.values = values
        self.region_owner = region_owner
        self.wire_bytes = wire_bytes
        self.req_id = req_id

    def __repr__(self) -> str:
        return (
            f"UpdatePacket({self.kind}, {self.src}->{self.dst}, {self.bbox}, "
            f"region_owner={self.region_owner}, req_id={self.req_id}, "
            f"{self.length_bytes} bytes)"
        )


def packet_bytes(kind: UpdateKind, bbox: BBox) -> int:
    """Wire size of a packet of *kind* covering *bbox*."""
    if is_request(kind) or is_control(kind):
        return HEADER_BYTES
    return HEADER_BYTES + ENTRY_BYTES * bbox.area


def build_loc_data(
    src: int, dst: int, cost: CostArray, delta: DeltaArray, region: BBox
) -> Optional[UpdatePacket]:
    """Build a SendLocData packet: absolute values of *src*'s dirty bbox.

    Scans the sender's own region of the delta array for changes; returns
    ``None`` when the region is clean (the update "will not be sent out",
    §4.3.2).  The caller clears the region's deltas after sending to all
    neighbours.
    """
    dirty = delta.region_dirty_bbox(region)
    if dirty is None:
        return None
    return UpdatePacket(
        kind=UpdateKind.SEND_LOC_DATA,
        src=src,
        dst=dst,
        bbox=dirty,
        values=cost.extract(dirty),
        region_owner=src,
    )


def build_rmt_data(
    src: int, dst: int, delta: DeltaArray, region: BBox
) -> Optional[UpdatePacket]:
    """Build a SendRmtData packet: *src*'s deltas inside *dst*'s region.

    "The processor sending this update is not the owner processor of the
    region, so it does not send the absolute cost array entries.  Rather,
    it sends the corresponding locations from the delta array" (§4.3.2).
    Returns ``None`` when the region holds no pending deltas.
    """
    dirty = delta.region_dirty_bbox(region)
    if dirty is None:
        return None
    return UpdatePacket(
        kind=UpdateKind.SEND_RMT_DATA,
        src=src,
        dst=dst,
        bbox=dirty,
        values=delta.extract(dirty),
        region_owner=dst,
    )


def build_request(
    kind: UpdateKind,
    src: int,
    dst: int,
    bbox: BBox,
    region_owner: int,
    req_id: Optional[int] = None,
) -> UpdatePacket:
    """Build a ReqRmtData / ReqLocData request covering *bbox*."""
    if not is_request(kind):
        raise ProtocolError(f"{kind} is not a request kind")
    return UpdatePacket(
        kind=kind,
        src=src,
        dst=dst,
        bbox=bbox,
        values=None,
        region_owner=region_owner,
        req_id=req_id,
    )


def build_control(
    kind: UpdateKind,
    src: int,
    dst: int,
    subject: int,
    req_id: Optional[int] = None,
) -> UpdatePacket:
    """Build a header-only control packet (liveness or task distribution).

    ``subject`` is what the packet is about — the prober for a HEARTBEAT,
    the responder for an ACK, the confirmed-dead processor for a
    DEATH_NOTICE, the requester for a TASK_REQUEST, the granted wire (or
    -1) for a TASK_GRANT — and rides in the header's ``region_owner``
    field, so control packets add no payload bytes.
    """
    if not is_control(kind):
        raise ProtocolError(f"{kind} is not a control kind")
    return UpdatePacket(
        kind=kind,
        src=src,
        dst=dst,
        bbox=BBox(0, 0, 0, 0),
        values=None,
        region_owner=subject,
        req_id=req_id,
    )


def build_response(request: UpdatePacket, values: np.ndarray) -> UpdatePacket:
    """Build the data response answering *request* (bbox is echoed back)."""
    if request.kind is UpdateKind.REQ_RMT_DATA:
        kind = UpdateKind.RSP_RMT_DATA
    elif request.kind is UpdateKind.REQ_LOC_DATA:
        kind = UpdateKind.RSP_LOC_DATA
    else:
        raise ProtocolError(f"cannot respond to a {request.kind} packet")
    return UpdatePacket(
        kind=kind,
        src=request.dst,
        dst=request.src,
        bbox=request.bbox,
        values=values,
        region_owner=request.region_owner,
        req_id=request.req_id,
    )
