"""CBS-style message passing architecture simulator.

A k-ary 2-cube (unidirectional torus) with deterministic dimension-order
wormhole routing, link contention, and the paper's timing constants
(HopTime = 100 ns, ProcessTime = 2000 ns; packet latency
``2*ProcessTime + HopTime*(D+L)``).  See DESIGN.md §2 for the mapping to
the original CBS simulator.
"""

from .message import Delivery, Message
from .stats import NetworkStats
from .topology import MeshTopology
from .wormhole import HOP_TIME_S, PROCESS_TIME_S, WormholeNetwork

__all__ = [
    "Message",
    "Delivery",
    "NetworkStats",
    "MeshTopology",
    "WormholeNetwork",
    "HOP_TIME_S",
    "PROCESS_TIME_S",
]
