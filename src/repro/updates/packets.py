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

from dataclasses import dataclass
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


@dataclass(frozen=True)
class UpdatePacket:
    """One update transaction travelling as a network message payload.

    ``values`` is ``None`` for request packets; for data packets it is the
    ``(bbox.height, bbox.width)`` block of absolute cost values
    (SendLocData / RspRmtData) or signed deltas (SendRmtData / RspLocData).
    ``region_owner`` records which processor owns the region the bbox lies
    in (used by ReqLocData bookkeeping and assertions).
    """

    kind: UpdateKind
    src: int
    dst: int
    bbox: BBox
    values: Optional[np.ndarray]
    region_owner: int
    #: Optional wire-size override used by the alternative §4.3.1 packet
    #: structures (wire-based encoding): the *information* still travels
    #: as bbox + values, but the accounted bytes follow the encoding.
    wire_bytes: Optional[int] = None
    #: Request correlation id: set on ReqRmtData/ReqLocData by nodes that
    #: track recovery state, echoed back on the matching response.  Fits
    #: in the header's sequence byte conceptually, so it adds no wire
    #: bytes.  ``None`` preserves the legacy un-tracked protocol.
    req_id: Optional[int] = None

    def __post_init__(self) -> None:
        if is_request(self.kind) or is_control(self.kind):
            if self.values is not None:
                raise ProtocolError(f"{self.kind} packets carry no payload")
        elif is_data(self.kind):
            if self.values is None:
                raise ProtocolError(f"{self.kind} packets need a payload")
            if self.values.shape != (self.bbox.height, self.bbox.width):
                raise ProtocolError(
                    f"payload shape {self.values.shape} != bbox "
                    f"{self.bbox.height}x{self.bbox.width}"
                )

    @property
    def length_bytes(self) -> int:
        """Wire size of this packet (encoding override wins if present)."""
        if self.wire_bytes is not None:
            return self.wire_bytes
        return packet_bytes(self.kind, self.bbox)

    @property
    def payload_cells(self) -> int:
        """Number of array cells carried (0 for requests)."""
        return 0 if self.values is None else int(self.values.size)


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
