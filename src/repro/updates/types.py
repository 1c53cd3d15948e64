"""The Figure-3 classification of cost-array update transactions.

Paper §4.3.2-4.3.3 defines four transaction types along two axes —
who initiates (sender vs receiver) and whose data moves (the initiator's
owned region vs a remotely owned region):

==============  =================  ============================================
Kind            Initiated by       Carries
==============  =================  ============================================
SendLocData     sender (owner)     absolute values of the owner's region bbox,
                                   pushed to the owner's N/S/E/W neighbours
SendRmtData     sender (non-owner) *delta* values the sender accumulated in a
                                   remotely owned region, pushed to its owner
ReqRmtData      receiver           a request for absolute values of a remote
                                   region bbox; the owner answers with data
ReqLocData      receiver (owner)   a request for a remote's deltas in the
                                   owner's own region; the remote answers
==============  =================  ============================================

Receiver-initiated requests additionally choose **blocking** (requester
idles until the response arrives) or **non-blocking** semantics (§4.3.3).

Beyond the paper's four transaction types there are five header-only
*control* kinds (the subject rides in the packet's ``region_owner`` field):

==============  =============================================================
Kind            Meaning
==============  =============================================================
Heartbeat       liveness probe to a suspected peer (crash-fault plans)
HeartbeatAck    the probe's answer: the peer is alive
DeathNotice     gossip to every survivor: the subject is confirmed dead
TaskRequest     §4.2 dynamic distribution: an idle processor asks the wire
                assignment processor for its next wire
TaskGrant       the answer: the subject is the granted wire index, or -1
                once every wire has been handed out
==============  =============================================================
"""

from __future__ import annotations

import enum

__all__ = [
    "UpdateKind",
    "is_sender_initiated",
    "is_request",
    "is_data",
    "is_control",
]


class UpdateKind(enum.Enum):
    """Every packet kind that crosses the network in the MP implementation."""

    SEND_LOC_DATA = "SendLocData"  #: sender-initiated absolute data push
    SEND_RMT_DATA = "SendRmtData"  #: sender-initiated delta push
    REQ_RMT_DATA = "ReqRmtData"  #: receiver-initiated request for remote data
    REQ_LOC_DATA = "ReqLocData"  #: owner-initiated request for remote deltas
    RSP_RMT_DATA = "RspRmtData"  #: absolute-data response to ReqRmtData
    RSP_LOC_DATA = "RspLocData"  #: delta-data response to ReqLocData
    HEARTBEAT = "Heartbeat"  #: liveness probe to a suspected peer
    HEARTBEAT_ACK = "HeartbeatAck"  #: probe answer (peer is alive)
    DEATH_NOTICE = "DeathNotice"  #: gossip: ``region_owner`` is confirmed dead
    TASK_REQUEST = "TaskRequest"  #: dynamic distribution: "give me a wire"
    TASK_GRANT = "TaskGrant"  #: ``region_owner`` is the granted wire, or -1


def is_sender_initiated(kind: UpdateKind) -> bool:
    """True for the two push-style transaction kinds."""
    return kind in (UpdateKind.SEND_LOC_DATA, UpdateKind.SEND_RMT_DATA)


def is_request(kind: UpdateKind) -> bool:
    """True for the two request packets (small, carry only a bbox)."""
    return kind in (UpdateKind.REQ_RMT_DATA, UpdateKind.REQ_LOC_DATA)


def is_data(kind: UpdateKind) -> bool:
    """True for packets whose payload carries cost/delta array cells."""
    return kind in (
        UpdateKind.SEND_LOC_DATA,
        UpdateKind.SEND_RMT_DATA,
        UpdateKind.RSP_RMT_DATA,
        UpdateKind.RSP_LOC_DATA,
    )


def is_control(kind: UpdateKind) -> bool:
    """True for the header-only liveness/membership/task packets."""
    return kind in (
        UpdateKind.HEARTBEAT,
        UpdateKind.HEARTBEAT_ACK,
        UpdateKind.DEATH_NOTICE,
        UpdateKind.TASK_REQUEST,
        UpdateKind.TASK_GRANT,
    )
