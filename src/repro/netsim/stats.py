"""Network traffic accounting.

The paper's headline message passing metric is "MBytes Xfrd." — total bytes
injected into the network.  :class:`NetworkStats` accumulates that plus the
per-kind breakdowns and latency aggregates used in EXPERIMENTS.md.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Dict

from .message import Delivery

__all__ = ["NetworkStats"]


@dataclass
class NetworkStats:
    """Running totals over every delivered message."""

    n_messages: int = 0
    total_bytes: int = 0
    total_hop_bytes: int = 0  #: bytes x hops (link-level load)
    total_hops: int = 0  #: summed route lengths (header-flit link crossings)
    total_latency_s: float = 0.0
    max_latency_s: float = 0.0
    bytes_by_kind: Dict[str, int] = field(default_factory=lambda: defaultdict(int))
    messages_by_kind: Dict[str, int] = field(default_factory=lambda: defaultdict(int))

    def record(self, delivery: Delivery) -> None:
        """Fold one delivery into the totals.

        If the payload exposes a ``kind`` attribute (update packets do),
        per-kind breakdowns are kept as well.
        """
        msg = delivery.message
        self.n_messages += 1
        self.total_bytes += msg.length_bytes
        self.total_hop_bytes += msg.length_bytes * delivery.hops
        self.total_hops += delivery.hops
        self.total_latency_s += delivery.latency
        self.max_latency_s = max(self.max_latency_s, delivery.latency)
        kind = getattr(msg.payload, "kind", None)
        if kind is not None:
            key = getattr(kind, "name", None) or str(kind)
            self.bytes_by_kind[key] += msg.length_bytes
            self.messages_by_kind[key] += 1

    @property
    def mbytes(self) -> float:
        """Total traffic in megabytes (the paper's unit, 10^6 bytes)."""
        return self.total_bytes / 1e6

    @property
    def mean_latency_s(self) -> float:
        """Mean end-to-end message latency."""
        return self.total_latency_s / self.n_messages if self.n_messages else 0.0

    def rates(self, elapsed_s: float) -> Dict[str, float]:
        """Messages/bytes per second over *elapsed_s* seconds.

        *elapsed_s* is whatever clock the caller cares about — the run's
        simulated makespan for offered-load figures, or harness wall time
        for simulator-throughput telemetry.  Must be positive.
        """
        if elapsed_s <= 0:
            raise ValueError(f"elapsed time must be positive, got {elapsed_s}")
        return {
            "messages_per_s": self.n_messages / elapsed_s,
            "bytes_per_s": self.total_bytes / elapsed_s,
        }

    def as_dict(self) -> Dict[str, Any]:
        """Plain-dict summary for JSON dumps."""
        return {
            "n_messages": self.n_messages,
            "total_bytes": self.total_bytes,
            "mbytes": self.mbytes,
            "total_hop_bytes": self.total_hop_bytes,
            "total_hops": self.total_hops,
            "mean_latency_s": self.mean_latency_s,
            "max_latency_s": self.max_latency_s,
            "bytes_by_kind": dict(self.bytes_by_kind),
            "messages_by_kind": dict(self.messages_by_kind),
        }
