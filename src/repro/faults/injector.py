"""The fault injector: turns a :class:`FaultPlan` into per-packet fate.

The injector sits inside :meth:`WormholeNetwork.send
<repro.netsim.wormhole.WormholeNetwork.send>`: the network asks
:meth:`FaultInjector.on_send` for a :class:`FaultDecision` before
reserving links, then consults the window helpers while computing the
flit train's start and arrival times.

Determinism contract
--------------------
Decisions come from one PCG64 stream seeded by ``plan.seed``.  Exactly
four uniforms are drawn per data-packet send attempt (drop, duplicate,
delay, reorder), in that order, plus one magnitude draw per triggered
delay/reorder — so the stream position is a pure function of the packet
sequence, and identical ``(plan, workload)`` pairs replay identical
fault sequences.  Liveness control packets (heartbeats, acks, death
notices) are exempt — they model a reliable acked control channel — and
draw nothing, leaving the data-packet stream undisturbed.  Duplicated copies are transmitted verbatim and do not
re-enter the decision path (no fault cascades, no unbounded
re-duplication).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..updates.types import is_control
from .plan import FaultPlan, FaultStats

__all__ = ["FaultDecision", "FaultInjector"]


@dataclass(frozen=True)
class FaultDecision:
    """The injector's verdict for one send attempt."""

    drop: bool = False
    #: Transmitted copies (1 = normal, 2 = duplicated); 0 when dropped.
    copies: int = 1
    #: Extra destination-side latency from delay/reorder faults.
    extra_delay_s: float = 0.0


_NO_FAULT = FaultDecision()


class FaultInjector:
    """Stateful per-run fault oracle bound to one network.

    Parameters
    ----------
    plan:
        The declarative fault description.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.stats = FaultStats()
        self._rng = np.random.Generator(np.random.PCG64(plan.seed))
        # Pre-index windows/stalls for O(windows-on-this-link) lookups.
        self._windows_by_link: dict = {}
        for window in plan.link_windows:
            self._windows_by_link.setdefault(window.link, []).append(window)
        self._stalls_by_proc: dict = {}
        for stall in plan.node_stalls:
            self._stalls_by_proc.setdefault(stall.proc, []).append(stall)
        self._crash_at: dict = {c.proc: c.at_s for c in plan.node_crashes}
        self.stats.nodes_crashed = len(self._crash_at)

    # ------------------------------------------------------------------
    # per-packet Bernoulli faults
    # ------------------------------------------------------------------
    def on_send(self, message) -> FaultDecision:
        """Decide the fate of one packet about to be injected."""
        plan = self.plan
        self.stats.send_attempts += 1
        if not plan.has_packet_faults:
            return _NO_FAULT
        kind = getattr(message.payload, "kind", None)
        kind_name = getattr(kind, "name", None) if kind is not None else None
        if kind is not None and is_control(kind):
            # Control traffic (heartbeats, acks, death notices, task grants)
            # rides a reliable acked control channel: exempt from the
            # Bernoulli packet faults, or a dropped death notice would leave
            # the survivors' ownership maps diverged forever.  Control packets
            # draw nothing, so the data-packet fault stream is unchanged.
            return _NO_FAULT
        # Always four draws, in a fixed order, per data-packet attempt.
        u_drop, u_dup, u_delay, u_reorder = self._rng.random(4)

        if u_drop < plan.kind_drop_prob(kind_name):
            self.stats.count_drop(kind_name, message.length_bytes)
            return FaultDecision(drop=True, copies=0)

        copies = 1
        if u_dup < plan.kind_duplicate_prob(kind_name):
            copies = 2
            self.stats.duplicated += 1

        extra = 0.0
        if u_delay < plan.delay_prob:
            extra += float(self._rng.random()) * plan.max_delay_s
            self.stats.delayed += 1
        if u_reorder < plan.reorder_prob:
            extra += float(self._rng.random()) * plan.reorder_window_s
            self.stats.reordered += 1
        if copies == 1 and extra == 0.0:
            return _NO_FAULT
        return FaultDecision(drop=False, copies=copies, extra_delay_s=extra)

    # ------------------------------------------------------------------
    # time-window faults (deterministic, no RNG)
    # ------------------------------------------------------------------
    def outage_release(self, links: Sequence[int], t_start: float) -> float:
        """Earliest start >= *t_start* clear of every outage on *links*.

        Outage windows on different links of the route may chain (being
        pushed past one window can land the train inside another), so the
        scan repeats until the candidate time is stable.
        """
        if not self._windows_by_link:
            return t_start
        released = t_start
        moved = True
        while moved:
            moved = False
            for link in links:
                for window in self._windows_by_link.get(link, ()):
                    if window.slowdown is None and window.start_s <= released < window.end_s:
                        released = window.end_s
                        moved = True
        if released > t_start:
            self.stats.outage_deferrals += 1
        return released

    def slowdown_delay(
        self, links: Sequence[int], t_start: float, transfer_s: float
    ) -> float:
        """Extra latency from slowdown windows active at *t_start*.

        The worst slowdown factor among the route's active windows
        stretches the transfer time ``transfer_s``; modelled as extra
        destination-side latency so link reservations stay exact.
        """
        if not self._windows_by_link:
            return 0.0
        worst = 1.0
        for link in links:
            for window in self._windows_by_link.get(link, ()):
                if window.slowdown is not None and window.start_s <= t_start < window.end_s:
                    worst = max(worst, window.slowdown)
        if worst <= 1.0:
            return 0.0
        self.stats.slowdown_hits += 1
        return (worst - 1.0) * transfer_s

    # ------------------------------------------------------------------
    # fail-stop crashes (deterministic, no RNG)
    # ------------------------------------------------------------------
    def crash_time(self, proc: int) -> Optional[float]:
        """The planned crash time of *proc*, or ``None`` if it never dies."""
        return self._crash_at.get(proc)

    def is_crashed(self, proc: int, t: float) -> bool:
        """True once *proc*'s planned crash time has passed at time *t*."""
        at = self._crash_at.get(proc)
        return at is not None and t >= at

    def count_crash_send_drop(self) -> None:
        """A dead node tried to send: the packet never reaches the network."""
        self.stats.crash_dropped_sends += 1

    def count_crash_delivery_drop(self) -> None:
        """An in-flight message arrived at a dead node and was discarded."""
        self.stats.crash_dropped_deliveries += 1

    def stall_release(self, proc: int, arrive: float) -> float:
        """Delivery time once *proc*'s stall windows are accounted for."""
        stalls = self._stalls_by_proc.get(proc)
        if not stalls:
            return arrive
        released = arrive
        for stall in stalls:
            if stall.start_s <= released < stall.end_s:
                released = stall.end_s
        if released > arrive:
            self.stats.deliveries_stalled += 1
        return released
