"""Network message envelope and delivery records.

The network simulator is payload-agnostic: it moves :class:`Message`
envelopes (source, destination, length in bytes, opaque payload) and
reports :class:`Delivery` records with the arrival time.  Update-protocol
semantics live entirely in :mod:`repro.updates` / :mod:`repro.parallel`.
"""

from __future__ import annotations

from typing import Any

from ..errors import NetworkError

__all__ = ["Message", "Delivery"]


class Message:
    """A packet to be carried by the network.

    ``length_bytes`` is the wire size used both for latency (the ``L`` in
    the CBS formula) and traffic accounting.  ``payload`` is never
    inspected by the network layer.

    Self-addressed messages (``src == dst``) are legal: retry and
    re-request paths can legitimately produce them, and the network
    loops them back locally (two ProcessTime copies, no link occupancy).

    Built once per packet and never changed (treat it as immutable); a
    plain ``__slots__`` class because one is made per simulated packet.
    """

    __slots__ = ("src", "dst", "length_bytes", "payload")

    def __init__(self, src: int, dst: int, length_bytes: int, payload: Any) -> None:
        if length_bytes <= 0:
            raise NetworkError(f"message length must be positive, got {length_bytes}")
        self.src = src
        self.dst = dst
        self.length_bytes = length_bytes
        self.payload = payload

    def __repr__(self) -> str:
        return (
            f"Message({self.src}->{self.dst}, {self.length_bytes} bytes, "
            f"payload={self.payload!r})"
        )


class Delivery:
    """A completed transfer: the message plus its timing.

    ``inject_time`` is when the sender handed the packet to the network;
    ``arrive_time`` is when the destination node can first see it;
    ``hops`` is the dimension-order route length.
    """

    __slots__ = ("message", "inject_time", "arrive_time", "hops")

    def __init__(
        self, message: Message, inject_time: float, arrive_time: float, hops: int
    ) -> None:
        self.message = message
        self.inject_time = inject_time
        self.arrive_time = arrive_time
        self.hops = hops

    @property
    def latency(self) -> float:
        """End-to-end network latency in seconds."""
        return self.arrive_time - self.inject_time

    def __repr__(self) -> str:
        return (
            f"Delivery({self.message!r}, inject={self.inject_time}, "
            f"arrive={self.arrive_time}, hops={self.hops})"
        )
