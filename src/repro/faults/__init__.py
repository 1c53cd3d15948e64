"""Deterministic fault injection for the message passing simulator.

The paper's central claim for message passing is that *loose* consistency
is safe: stale cost-array replicas degrade routing quality gradually
rather than catastrophically (§4.1, §5.1).  The seed simulator proved
that only on a perfect network.  This package makes the claim testable
under genuine message loss: a seed-driven :class:`FaultPlan` injects
drops, duplicates, delays, reorderings, link outage/slowdown windows and
per-node stalls at the :class:`~repro.netsim.wormhole.WormholeNetwork`
boundary, while the :class:`RecoveryPolicy` watchdog machinery in
:class:`~repro.parallel.node.MPNode` retries overdue requests with
exponential backoff and unblocks blocking-mode nodes instead of
deadlocking.  Everything is deterministic: the same ``seed`` produces
the same fault sequence and therefore bit-identical run fingerprints.

See ``docs/FAULTS.md`` for the fault model and how drop-tolerance maps
onto the paper's staleness argument.
"""

from .injector import FaultDecision, FaultInjector
from .plan import (
    FaultPlan,
    FaultStats,
    LinkWindow,
    NodeCrash,
    NodeStall,
    RecoveryPolicy,
    random_crashes,
    validate_crashes,
)

__all__ = [
    "FaultDecision",
    "FaultInjector",
    "FaultPlan",
    "FaultStats",
    "LinkWindow",
    "NodeCrash",
    "NodeStall",
    "RecoveryPolicy",
    "random_crashes",
    "validate_crashes",
]
