"""Update schedules: when each transaction kind fires.

The paper parameterises every strategy by "how many wires should be routed
between updates" (§4.3.2) or by request-count thresholds (§4.3.3):

- ``send_loc_every``: wires routed between SendLocData pushes (k1 in the
  tables' *SendLocData* column).
- ``send_rmt_every``: wires routed between SendRmtData pushes (k2, the
  *SendRmtData* column).
- ``req_rmt_every``: a ReqRmtData request fires for a region after this
  many of the processor's wires have touched that region (*ReqRmtData*).
- ``req_loc_every``: an owner sends ReqLocData to a remote after receiving
  this many ReqRmtData requests from it (*ReqLocData*).
- ``blocking``: whether receiver-initiated requesters idle until the
  response arrives (§4.3.3).
- ``lookahead_wires``: how many wires ahead ReqRmtData requests are issued
  ("we chose to have processors request updates for five wires at a
  time").

``None`` disables a transaction kind entirely.  The classic configurations
from the results section are provided as constructors.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Mapping, Optional

from ..errors import ProtocolError
from .structures import PacketStructure

__all__ = ["UpdateSchedule"]

#: Paper §4.3.3: requests are issued five wires ahead of need.
DEFAULT_LOOKAHEAD = 5


@dataclass(frozen=True)
class UpdateSchedule:
    """A complete update-strategy configuration (see module docstring)."""

    send_loc_every: Optional[int] = None
    send_rmt_every: Optional[int] = None
    req_rmt_every: Optional[int] = None
    req_loc_every: Optional[int] = None
    blocking: bool = False
    lookahead_wires: int = DEFAULT_LOOKAHEAD
    #: §4.3.1 data-packet encoding (wire-based / full-region / bounding-box).
    packet_structure: PacketStructure = PacketStructure.BOUNDING_BOX
    #: Interrupt-driven reception (§4.2): request packets interrupt the
    #: routing of the current wire and are serviced at arrival (plus an
    #: interrupt overhead), instead of waiting for the next between-wires
    #: poll.  CBS could not simulate this; this reproduction can, which is
    #: what lets the §5.1.3 prediction about blocking strategies be tested
    #: (see experiment A2; benchmarks/bench_experiments.py -k A2).
    interrupt_reception: bool = False

    def __post_init__(self) -> None:
        for name in ("send_loc_every", "send_rmt_every", "req_rmt_every", "req_loc_every"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ProtocolError(f"{name} must be >= 1 or None, got {value}")
        if self.lookahead_wires < 0:
            raise ProtocolError("lookahead_wires must be >= 0")
        if self.blocking and self.req_rmt_every is None:
            raise ProtocolError("blocking mode requires receiver-initiated requests")

    # ------------------------------------------------------------------
    # classification predicates (Figure 3)
    # ------------------------------------------------------------------
    @property
    def has_sender_initiated(self) -> bool:
        """True if any push-style transactions are enabled."""
        return self.send_loc_every is not None or self.send_rmt_every is not None

    @property
    def has_receiver_initiated(self) -> bool:
        """True if any request-style transactions are enabled."""
        return self.req_rmt_every is not None or self.req_loc_every is not None

    @property
    def is_mixed(self) -> bool:
        """True for schedules combining both initiation styles (§5.1.3)."""
        return self.has_sender_initiated and self.has_receiver_initiated

    @property
    def is_silent(self) -> bool:
        """True when no updates ever flow (processors route fully blind)."""
        return not (self.has_sender_initiated or self.has_receiver_initiated)

    # ------------------------------------------------------------------
    # the configurations used in the paper's results section
    # ------------------------------------------------------------------
    @staticmethod
    def sender_initiated(send_rmt_every: int, send_loc_every: int) -> "UpdateSchedule":
        """A purely sender-initiated schedule (Table 1 rows)."""
        return UpdateSchedule(
            send_loc_every=send_loc_every, send_rmt_every=send_rmt_every
        )

    @staticmethod
    def receiver_initiated(
        req_loc_every: int, req_rmt_every: int, blocking: bool = False
    ) -> "UpdateSchedule":
        """A purely receiver-initiated schedule (Table 2 rows)."""
        return UpdateSchedule(
            req_loc_every=req_loc_every,
            req_rmt_every=req_rmt_every,
            blocking=blocking,
        )

    @staticmethod
    def mixed_example() -> "UpdateSchedule":
        """The §5.1.3 mixed schedule: SLD=5, SRD=2, RLD=1, RRD=5."""
        return UpdateSchedule(
            send_loc_every=5, send_rmt_every=2, req_loc_every=1, req_rmt_every=5
        )

    @staticmethod
    def from_flags(flags: Mapping[str, Any]) -> "UpdateSchedule":
        """The schedule a flat set of run flags describes.

        *flags* uses the names the command line (``--send-loc`` is
        ``send_loc``) and the service's job parameters share; other keys
        are ignored and an absent name keeps its field's default, so each
        caller passes whatever namespace it has and only the names it
        accepts take effect.
        """
        return UpdateSchedule(
            send_loc_every=flags.get("send_loc"),
            send_rmt_every=flags.get("send_rmt"),
            req_loc_every=flags.get("req_loc"),
            req_rmt_every=flags.get("req_rmt"),
            blocking=bool(flags.get("blocking", False)),
            packet_structure=PacketStructure(
                flags.get("packet_structure", PacketStructure.BOUNDING_BOX)
            ),
            interrupt_reception=bool(flags.get("interrupts", False)),
        )

    def with_blocking(self, blocking: bool) -> "UpdateSchedule":
        """Copy of this schedule with the blocking flag changed."""
        return replace(self, blocking=blocking)

    def describe(self) -> str:
        """Compact human-readable form, e.g. ``SLD=5 SRD=2 RLD=1 RRD=5``."""
        parts = []
        if self.send_loc_every is not None:
            parts.append(f"SLD={self.send_loc_every}")
        if self.send_rmt_every is not None:
            parts.append(f"SRD={self.send_rmt_every}")
        if self.req_loc_every is not None:
            parts.append(f"RLD={self.req_loc_every}")
        if self.req_rmt_every is not None:
            parts.append(f"RRD={self.req_rmt_every}")
        if self.blocking:
            parts.append("blocking")
        if self.packet_structure is not PacketStructure.BOUNDING_BOX:
            parts.append(self.packet_structure.value)
        return " ".join(parts) if parts else "silent"
