"""Fault plans: the declarative, seed-driven description of what breaks.

A :class:`FaultPlan` is a frozen, picklable dataclass, so it slots into
the harness's content-addressed result cache the same way an
:class:`~repro.updates.schedule.UpdateSchedule` does: two runs with the
same circuit, schedule and plan (including ``seed``) produce identical
fingerprints.

The plan describes *network-level* misbehaviour only; the protocol-level
recovery that survives it (request retries, blocking-mode timeouts) is
configured by the nested :class:`RecoveryPolicy` and executed by
:class:`~repro.parallel.node.MPNode`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..errors import FaultPlanError, SimulationError

__all__ = [
    "FaultPlan",
    "FaultStats",
    "LinkWindow",
    "NodeCrash",
    "NodeStall",
    "RecoveryPolicy",
    "random_crashes",
    "validate_crashes",
]


@dataclass(frozen=True)
class LinkWindow:
    """A time window during which one link misbehaves.

    ``slowdown=None`` means a full outage: no flit train whose route uses
    ``link`` may *start* inside ``[start_s, end_s)``; injections are
    deferred to the window's end.  A numeric ``slowdown`` (> 1) instead
    stretches the transfer of any train starting inside the window by
    that factor (modelled as extra destination-side latency, so link
    reservations — and the flit-conservation accounting — are unchanged).
    """

    link: int
    start_s: float
    end_s: float
    slowdown: Optional[float] = None

    def __post_init__(self) -> None:
        if self.link < 0:
            raise FaultPlanError(f"link index must be >= 0, got {self.link}")
        if not (0.0 <= self.start_s < self.end_s):
            raise FaultPlanError(
                f"window needs 0 <= start < end, got [{self.start_s}, {self.end_s})"
            )
        if self.slowdown is not None and self.slowdown <= 1.0:
            raise FaultPlanError(f"slowdown must exceed 1, got {self.slowdown}")


@dataclass(frozen=True)
class NodeStall:
    """A processor stall: deliveries landing in the window wait it out.

    Models a node that stops servicing its network interface (GC pause,
    OS preemption, thermal throttle) during ``[start_s, end_s)``; packets
    whose arrival falls inside the window are held until ``end_s``.
    """

    proc: int
    start_s: float
    end_s: float

    def __post_init__(self) -> None:
        if self.proc < 0:
            raise FaultPlanError(f"proc must be >= 0, got {self.proc}")
        if not (0.0 <= self.start_s < self.end_s):
            raise FaultPlanError(
                f"stall needs 0 <= start < end, got [{self.start_s}, {self.end_s})"
            )


@dataclass(frozen=True)
class NodeCrash:
    """Fail-stop crash of one processor at a fixed virtual time.

    From ``at_s`` onwards the processor sends nothing (packets it would
    emit are discarded at the network interface and counted), answers
    nothing, and every in-flight message addressed to it is dropped on
    arrival.  There is no recovery of the crashed node itself; survivors
    detect the death (see :class:`RecoveryPolicy` suspicion) and adopt
    its cost-array regions and unfinished wires.
    """

    proc: int
    at_s: float

    def __post_init__(self) -> None:
        if self.proc < 0:
            raise FaultPlanError(f"proc must be >= 0, got {self.proc}")
        if self.at_s < 0:
            raise FaultPlanError(f"crash time must be >= 0, got {self.at_s}")


def validate_crashes(crashes: Sequence[NodeCrash], n_procs: int) -> None:
    """Check a crash plan against the machine a simulator is about to run.

    Every crash names an existing processor, no processor dies twice, and
    at least one survives (somebody has to finish the wires).
    """
    bad = [c.proc for c in crashes if not (0 <= c.proc < n_procs)]
    if bad:
        raise SimulationError(f"crash plan names unknown processors {bad}")
    if len({c.proc for c in crashes}) != len(crashes):
        raise SimulationError("crash plan names a processor twice")
    if len(crashes) >= n_procs:
        raise SimulationError("at least one processor must survive the crash plan")


def random_crashes(
    n_procs: int,
    n_crashes: int,
    at_s: float,
    seed: int,
    spread: float = 0.5,
) -> Tuple[NodeCrash, ...]:
    """Seed-deterministic crash set: *n_crashes* distinct procs, times in
    ``[at_s, at_s * (1 + spread)]``.

    The draw uses its own PCG64 stream (derived from *seed*), so it never
    perturbs the injector's per-packet stream; the same arguments always
    yield the same crashes.  At least one processor must survive.
    """
    if n_crashes < 0:
        raise FaultPlanError(f"n_crashes must be >= 0, got {n_crashes}")
    if n_crashes == 0:
        return ()
    if n_crashes >= n_procs:
        raise FaultPlanError(
            f"cannot crash {n_crashes} of {n_procs} processors: "
            "at least one must survive"
        )
    if at_s <= 0:
        raise FaultPlanError(f"base crash time must be positive, got {at_s}")
    if spread < 0:
        raise FaultPlanError(f"spread must be >= 0, got {spread}")
    rng = np.random.default_rng([seed, 0xC4A5])
    procs = sorted(int(p) for p in rng.choice(n_procs, size=n_crashes, replace=False))
    times = at_s * (1.0 + spread * rng.random(n_crashes))
    return tuple(
        NodeCrash(proc=p, at_s=float(t)) for p, t in zip(procs, times)
    )


@dataclass(frozen=True)
class RecoveryPolicy:
    """Watchdog semantics for overdue ReqRmtData responses.

    A node arms a watchdog when it issues a request; if the response has
    not arrived after ``watchdog_timeout_s`` the request is re-issued,
    each retry waiting ``backoff_factor`` times longer than the last.
    After ``max_retries`` re-sends the request is *abandoned*: the node
    gives up on fresh data for that region and routes against its stale
    view — the graceful-degradation path.  Abandonment is what unblocks
    blocking-mode nodes that would otherwise deadlock (§4.3.3 blocking
    semantics assume a lossless network).

    The timeout must be calibrated against *servicing* delay, not wire
    latency: owners poll for packets between wires (§5.1.3), so a healthy
    response can take a full wire-routing time (several ms) to appear.
    The default (10 ms) keeps fault-free requests inside the retry
    budget — the watchdog may still fire on a slow response (it cannot
    distinguish slow from lost), but the retry is idempotent and the
    request is never abandoned unless the network is actually eating
    responses.

    Failure detection (crash plans only): after ``suspect_after``
    abandonments attributed to the same peer, the node *suspects* it and
    sends a heartbeat probe.  Probes use the same retry machinery with a
    ``probe_timeout_factor`` times longer base timeout (a live peer
    answers between wires, so the probe budget must cover several
    wire-routing times — a short budget would declare slow peers dead).
    A peer that exhausts the probe retries is declared dead and the
    declaration is gossiped to every survivor.

    ``jitter`` desynchronises the exponential backoff: each retry's
    timeout is stretched by a factor uniform in ``[1, 1 + jitter]``,
    drawn from a per-node generator seeded by ``(fault seed, proc)`` —
    never the global RNG — so lossy runs stay bit-reproducible across
    ``--jobs`` settings.
    """

    watchdog_timeout_s: float = 1e-2
    backoff_factor: float = 2.0
    max_retries: int = 3
    #: Backoff jitter fraction; timeouts stretch by U[1, 1 + jitter].
    jitter: float = 0.1
    #: Abandonments charged to one peer before it is suspected/probed.
    suspect_after: int = 1
    #: Heartbeat probes wait this multiple of ``watchdog_timeout_s``.
    probe_timeout_factor: float = 4.0

    def __post_init__(self) -> None:
        if self.watchdog_timeout_s <= 0:
            raise FaultPlanError(
                f"watchdog_timeout_s must be positive, got {self.watchdog_timeout_s}"
            )
        if self.backoff_factor < 1.0:
            raise FaultPlanError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )
        if self.max_retries < 0:
            raise FaultPlanError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.jitter < 0:
            raise FaultPlanError(f"jitter must be >= 0, got {self.jitter}")
        if self.suspect_after < 1:
            raise FaultPlanError(
                f"suspect_after must be >= 1, got {self.suspect_after}"
            )
        if self.probe_timeout_factor < 1.0:
            raise FaultPlanError(
                f"probe_timeout_factor must be >= 1, got {self.probe_timeout_factor}"
            )


def _check_prob(name: str, value: float) -> None:
    if not (0.0 <= value <= 1.0):
        raise FaultPlanError(f"{name} must be a probability in [0, 1], got {value}")


@dataclass(frozen=True)
class FaultPlan:
    """Everything the injector needs to decide each packet's fate.

    Per-packet faults are Bernoulli draws from a ``seed``-derived PCG64
    stream, consumed in network injection order (which is deterministic
    in virtual time), so the whole fault sequence is a pure function of
    ``(plan, workload)``.

    ``drop_prob_by_kind`` / ``duplicate_prob_by_kind`` override the
    global probabilities for specific packet kinds, keyed by
    :class:`~repro.updates.types.UpdateKind` member *name* (e.g.
    ``"RSP_RMT_DATA"``); this is how the test suite expresses "drop every
    response" without touching requests.
    """

    seed: int = 0
    drop_prob: float = 0.0
    duplicate_prob: float = 0.0
    delay_prob: float = 0.0
    #: Extra latency of a delayed packet: uniform in (0, max_delay_s].
    max_delay_s: float = 500e-6
    reorder_prob: float = 0.0
    #: A reordered packet is held up to this long, letting later
    #: injections overtake it.
    reorder_window_s: float = 100e-6
    drop_prob_by_kind: Tuple[Tuple[str, float], ...] = ()
    duplicate_prob_by_kind: Tuple[Tuple[str, float], ...] = ()
    link_windows: Tuple[LinkWindow, ...] = ()
    node_stalls: Tuple[NodeStall, ...] = ()
    #: Fail-stop processor crashes (see :class:`NodeCrash`); survivors
    #: detect them and adopt the dead nodes' regions and wires.
    node_crashes: Tuple[NodeCrash, ...] = ()
    #: ``None`` disables the watchdog entirely (faults with no recovery).
    recovery: Optional[RecoveryPolicy] = RecoveryPolicy()

    def __post_init__(self) -> None:
        for name in ("drop_prob", "duplicate_prob", "delay_prob", "reorder_prob"):
            _check_prob(name, getattr(self, name))
        for attr in ("drop_prob_by_kind", "duplicate_prob_by_kind"):
            for kind, prob in getattr(self, attr):
                _check_prob(f"{attr}[{kind!r}]", prob)
        if self.max_delay_s <= 0:
            raise FaultPlanError(f"max_delay_s must be positive, got {self.max_delay_s}")
        if self.reorder_window_s <= 0:
            raise FaultPlanError(
                f"reorder_window_s must be positive, got {self.reorder_window_s}"
            )
        procs = [crash.proc for crash in self.node_crashes]
        if len(set(procs)) != len(procs):
            raise FaultPlanError(f"duplicate crash procs in {procs}")

    # ------------------------------------------------------------------
    def kind_drop_prob(self, kind_name: Optional[str]) -> float:
        """Drop probability for a packet of *kind_name* (global fallback)."""
        for kind, prob in self.drop_prob_by_kind:
            if kind == kind_name:
                return prob
        return self.drop_prob

    def kind_duplicate_prob(self, kind_name: Optional[str]) -> float:
        """Duplicate probability for *kind_name* (global fallback)."""
        for kind, prob in self.duplicate_prob_by_kind:
            if kind == kind_name:
                return prob
        return self.duplicate_prob

    @property
    def has_packet_faults(self) -> bool:
        """True when any per-packet Bernoulli fault can fire."""
        return (
            self.drop_prob > 0
            or self.duplicate_prob > 0
            or self.delay_prob > 0
            or self.reorder_prob > 0
            or any(p > 0 for _, p in self.drop_prob_by_kind)
            or any(p > 0 for _, p in self.duplicate_prob_by_kind)
        )

    def describe(self) -> str:
        """Compact human-readable form for run metadata."""
        parts = [f"seed={self.seed}"]
        for name, short in (
            ("drop_prob", "drop"),
            ("duplicate_prob", "dup"),
            ("delay_prob", "delay"),
            ("reorder_prob", "reorder"),
        ):
            value = getattr(self, name)
            if value > 0:
                parts.append(f"{short}={value:g}")
        for kind, prob in self.drop_prob_by_kind:
            parts.append(f"drop[{kind}]={prob:g}")
        for kind, prob in self.duplicate_prob_by_kind:
            parts.append(f"dup[{kind}]={prob:g}")
        if self.link_windows:
            parts.append(f"link_windows={len(self.link_windows)}")
        if self.node_stalls:
            parts.append(f"node_stalls={len(self.node_stalls)}")
        if self.node_crashes:
            parts.append(
                "crashes="
                + ",".join(f"p{c.proc}@{c.at_s:g}s" for c in self.node_crashes)
            )
        if self.recovery is None:
            parts.append("no-recovery")
        return " ".join(parts)


@dataclass
class FaultStats:
    """What the injector actually did to one run's traffic.

    ``send_attempts`` counts every packet handed to the network;
    ``dropped`` ones never entered it (no link reservation, no delivery),
    ``duplicated`` counts *extra* transmitted copies.  The lossy counters
    single out faults that can violate the delta-replica convergence
    invariant (see :mod:`repro.verify.invariants`): any drop or
    duplication may lose or double-count state, so the verify layer
    waives that check — explicitly, never silently — when
    :attr:`lossy` is true.
    """

    send_attempts: int = 0
    dropped: int = 0
    bytes_dropped: int = 0
    duplicated: int = 0
    delayed: int = 0
    reordered: int = 0
    outage_deferrals: int = 0
    slowdown_hits: int = 0
    deliveries_stalled: int = 0
    dropped_by_kind: Dict[str, int] = field(default_factory=dict)
    # Fail-stop crash effects, counted *separately* from the packet-fault
    # books: a crashed node's suppressed sends never reach the network
    # (so they are not ``send_attempts``), and in-flight deliveries to a
    # dead node are discarded after the network accounted them — the
    # ``attempts - dropped + duplicated == injected`` reconciliation must
    # keep holding unchanged under crashes.
    nodes_crashed: int = 0
    crash_dropped_sends: int = 0
    crash_dropped_deliveries: int = 0

    @property
    def lossy(self) -> bool:
        """True when state may have been lost or double-counted."""
        return self.dropped > 0 or self.duplicated > 0

    def count_drop(self, kind_name: Optional[str], length_bytes: int) -> None:
        """Record one dropped packet."""
        self.dropped += 1
        self.bytes_dropped += length_bytes
        key = kind_name or "?"
        self.dropped_by_kind[key] = self.dropped_by_kind.get(key, 0) + 1

    def as_dict(self) -> Dict[str, object]:
        """JSON-safe summary for ``meta["faults"]``."""
        return {
            "send_attempts": self.send_attempts,
            "dropped": self.dropped,
            "bytes_dropped": self.bytes_dropped,
            "duplicated": self.duplicated,
            "delayed": self.delayed,
            "reordered": self.reordered,
            "outage_deferrals": self.outage_deferrals,
            "slowdown_hits": self.slowdown_hits,
            "deliveries_stalled": self.deliveries_stalled,
            "dropped_by_kind": dict(self.dropped_by_kind),
            "nodes_crashed": self.nodes_crashed,
            "crash_dropped_sends": self.crash_dropped_sends,
            "crash_dropped_deliveries": self.crash_dropped_deliveries,
            "lossy": self.lossy,
        }
