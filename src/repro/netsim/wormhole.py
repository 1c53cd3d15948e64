"""Wormhole-routed network with link contention (the CBS network model).

Latency model (paper §2.1), for a packet of ``L`` bytes travelling ``D``
hops on one-byte-wide channels with no contention::

    2 * ProcessTime + HopTime * (D + L)

ProcessTime (2000 ns) is the node/network copy cost paid at each end;
HopTime (100 ns) is one byte across one link.  These default constants
"roughly model the performance of the Ametek Series 2010".

Contention model
----------------
CBS models network contention; we reproduce it at the link-reservation
level rather than per-flit.  In wormhole routing the packet's flits form a
train: the header reaches link *i* of its route ``i * HopTime`` after the
train starts moving, and the tail clears that link ``L`` byte-times later.
A packet therefore holds link *i* during::

    [t_start + i * HopTime,  t_start + (i + 1 + L) * HopTime)

A new packet must wait until every link of its route is free before its
train starts (head-of-line blocking collapses onto the whole-route
reservation, a standard wormhole approximation); ``t_start`` is the
earliest time all links are simultaneously available after injection.
This reproduces the qualitative CBS behaviours that matter for the paper:
bursts of sender-initiated updates queue behind each other, and traffic
hot spots delay delivery, while keeping the simulation O(D) per message.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

import numpy as np

from ..errors import NetworkError
from ..events.sim import Simulator
from .message import Delivery, Message
from .stats import NetworkStats
from .topology import MeshTopology

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (faults -> netsim)
    from ..faults.injector import FaultDecision, FaultInjector

__all__ = ["WormholeNetwork", "HOP_TIME_S", "PROCESS_TIME_S"]

#: One byte across one link: 100 ns (paper §2.1).
HOP_TIME_S = 100e-9
#: Node <-> network copy cost per end: 2000 ns (paper §2.1).
PROCESS_TIME_S = 2000e-9


class WormholeNetwork:
    """Contention-aware wormhole network bound to a :class:`Simulator`.

    Parameters
    ----------
    sim:
        The discrete-event kernel carrying virtual time.
    topology:
        Link structure and deterministic routes.
    hop_time_s, process_time_s:
        Timing constants (defaults are the paper's).  ``hop_time_s`` must
        be strictly positive; ``process_time_s`` may be 0 — a legitimate
        ideal-network ablation with free node/network copies.
    on_deliver:
        Callback invoked as ``on_deliver(delivery)`` when a message
        arrives at its destination.
    faults:
        Optional :class:`~repro.faults.FaultInjector`; when present,
        every send attempt is submitted to it and the decided faults
        (drop / duplicate / delay / reorder, plus link outage and node
        stall windows) are applied.  Dropped packets never enter the
        network: they reserve no links and appear in no conservation
        counter except the injector's own :class:`FaultStats`.
    """

    def __init__(
        self,
        sim: Simulator,
        topology: MeshTopology,
        on_deliver: Callable[[Delivery], None],
        hop_time_s: float = HOP_TIME_S,
        process_time_s: float = PROCESS_TIME_S,
        faults: Optional["FaultInjector"] = None,
    ) -> None:
        if hop_time_s <= 0:
            raise NetworkError(f"hop_time_s must be positive, got {hop_time_s}")
        if process_time_s < 0:
            raise NetworkError(
                f"process_time_s must be non-negative, got {process_time_s}"
            )
        self.sim = sim
        self.topology = topology
        self.on_deliver = on_deliver
        self.hop_time_s = hop_time_s
        self.process_time_s = process_time_s
        self.faults = faults
        # Plain lists, read and written hop by hop: a route is a handful
        # of links (at most 6 on the paper's 4x4 mesh), and at that size
        # NumPy scalar reads and fancy-indexed batches both cost more per
        # send than the list loop at every mesh size measured (16 to 256
        # nodes; docs/PERFORMANCE.md).
        self._link_free_at: List[float] = [0.0] * topology.n_links
        self._link_busy_s: List[float] = [0.0] * topology.n_links
        # Routes are deterministic per (src, dst): the topology's Python
        # route walk is paid once per pair.
        self._route_cache: Dict[Tuple[int, int], Tuple[int, ...]] = {}
        self.stats = NetworkStats()
        # Conservation counters (independent of ``stats`` so the
        # verification layer can cross-check the two accounts).
        self.messages_injected = 0
        self.messages_delivered = 0
        self.bytes_injected = 0
        self.bytes_delivered = 0
        self.in_flight = 0

    def link_utilization(self, elapsed_s: float) -> np.ndarray:
        """Per-link busy fraction over *elapsed_s* seconds of virtual time.

        A hot-spot diagnostic: the fraction of time each unidirectional
        channel carried flits.  Pass the run's makespan (or ``sim.now``).
        """
        if elapsed_s <= 0:
            raise NetworkError("elapsed time must be positive")
        return np.asarray(self._link_busy_s) / elapsed_s

    def uncontended_latency(self, src: int, dst: int, length_bytes: int) -> float:
        """The paper's closed-form latency: 2*ProcessTime + HopTime*(D+L).

        Self-addressed packets never enter the network: the only cost is
        the two node/network copies, so the floor is ``2 * ProcessTime``.
        """
        if src == dst:
            return 2 * self.process_time_s
        hops = self.topology.hop_distance(src, dst)
        return 2 * self.process_time_s + self.hop_time_s * (hops + length_bytes)

    def send(
        self, message: Message, inject_time: Optional[float] = None
    ) -> Optional[Delivery]:
        """Inject *message* and schedule its delivery; returns the record.

        ``inject_time`` defaults to the simulator's current time; it may be
        in the future (a node handing over a packet at the end of its
        current computation), never in the past.

        Self-addressed messages (``src == dst`` — retry/re-request paths
        produce them) loop back locally after ``2 * process_time_s`` with
        no link occupancy.

        With a fault injector installed the packet may be dropped
        (returns ``None``), duplicated (two trains, two deliveries; the
        last delivery record is returned), delayed, or deferred by link
        outage / node stall windows.
        """
        now = self.sim.now
        t_inject = now if inject_time is None else inject_time
        if t_inject < now:
            raise NetworkError(f"inject time {t_inject} is in the past (now={now})")

        copies = 1
        extra_delay_s = 0.0
        if self.faults is not None:
            decision = self.faults.on_send(message)
            if decision.drop:
                return None
            copies = decision.copies
            extra_delay_s = decision.extra_delay_s

        delivery: Optional[Delivery] = None
        for _ in range(copies):
            delivery = self._transmit(message, t_inject, extra_delay_s)
        return delivery

    def _transmit(
        self, message: Message, t_inject: float, extra_delay_s: float
    ) -> Delivery:
        """Reserve links and schedule one delivery of *message*."""
        length = message.length_bytes
        if message.src == message.dst:
            # Local loop-back: the packet is copied out of and back into
            # the same node, crossing no links.
            hops = 0
            arrive = t_inject + 2 * self.process_time_s + extra_delay_s
        else:
            key = (message.src, message.dst)
            links = self._route_cache.get(key)
            if links is None:
                links = tuple(self.topology.route(message.src, message.dst))
                self._route_cache[key] = links
            hops = len(links)
            # The train may start once the source has copied the packet
            # out and every link on the route is free.
            free = self._link_free_at
            earliest = t_inject + self.process_time_s
            for link in links:
                if free[link] > earliest:
                    earliest = free[link]
            if self.faults is not None:
                earliest = self.faults.outage_release(links, earliest)
            t_start = earliest
            # Link i is held until the tail byte has crossed it; the flit
            # train itself occupies each link for (L + 1) byte-times.
            hop_time_s = self.hop_time_s
            busy = self._link_busy_s
            held_s = hop_time_s * (length + 1)
            for i, link in enumerate(links):
                free[link] = t_start + hop_time_s * (i + 1 + length)
                busy[link] += held_s
            transfer_s = hop_time_s * (hops + length)
            arrive = t_start + transfer_s + self.process_time_s + extra_delay_s
            if self.faults is not None:
                arrive += self.faults.slowdown_delay(links, t_start, transfer_s)
        if self.faults is not None:
            arrive = self.faults.stall_release(message.dst, arrive)

        delivery = Delivery(
            message=message, inject_time=t_inject, arrive_time=arrive, hops=hops
        )
        self.stats.record(delivery)
        self.messages_injected += 1
        self.bytes_injected += length
        self.in_flight += 1
        self.sim.at(arrive, lambda d=delivery: self._deliver(d))
        return delivery

    def _deliver(self, delivery: Delivery) -> None:
        self.messages_delivered += 1
        self.bytes_delivered += delivery.message.length_bytes
        self.in_flight -= 1
        self.on_deliver(delivery)
