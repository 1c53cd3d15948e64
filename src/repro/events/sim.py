"""Minimal discrete-event simulator.

Both the CBS-style network simulation and the Tango-style shared memory
multiplexer run on this kernel: schedule callbacks at absolute virtual
times, run until the queue drains (or a step/time bound trips, which is
treated as a runaway-simulation error rather than silently truncating).
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from ..errors import SimulationError
from ..obs import telemetry as obs
from .queue import EventQueue

__all__ = ["Simulator"]


class Simulator:
    """Event loop with a virtual clock.

    The clock starts at 0.0 and only moves forward, driven by event pops.
    """

    def __init__(self) -> None:
        self._queue = EventQueue()
        self._now = 0.0
        self._steps = 0
        self._probes: list = []

    @property
    def now(self) -> float:
        """Current virtual time (seconds)."""
        return self._now

    @property
    def steps(self) -> int:
        """Number of events executed so far."""
        return self._steps

    def at(self, time: float, action: Callable[[], Any]) -> object:
        """Schedule *action* at absolute virtual *time*.

        Returns an opaque cancellable handle; pass it back to
        :meth:`cancel`, do not inspect it.
        """
        return self._queue.push(time, action)

    def after(self, delay: float, action: Callable[[], Any]) -> object:
        """Schedule *action* ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self._queue.push(self._now + delay, action)

    def cancel(self, event: object) -> None:
        """Cancel a previously scheduled event by its handle."""
        self._queue.cancel(event)

    def add_probe(self, action: Callable[[], Any], interval: int) -> None:
        """Call *action* every *interval* executed events.

        Probes run after the triggering event's action, at the same
        virtual time.  The loop pays a single truthiness check per event
        when no probes are registered.
        """
        if interval <= 0:
            raise SimulationError(f"probe interval must be positive, got {interval}")
        self._probes.append((interval, action))

    def run(
        self,
        max_steps: int = 50_000_000,
        until: Optional[float] = None,
    ) -> float:
        """Execute events until the queue is empty.

        ``max_steps`` guards against runaway simulations; ``until`` stops
        the clock at a given virtual time (events beyond it stay queued).
        Returns the final virtual time.

        Telemetry: the number of events executed by this call is added to
        the global ``sim.events`` counter on exit (one batched increment,
        nothing per-event), including when an event's action raises.
        """
        steps_before = self._steps
        queue = self._queue
        bounded = until is not None
        try:
            while True:
                if bounded:
                    # Only a time-bounded run needs to look before leaping;
                    # the common unbounded run pops directly, halving the
                    # heap traffic per event.
                    next_time = queue.peek_time()
                    if next_time is None:
                        return self._now
                    if next_time > until:
                        self._now = until
                        return self._now
                nxt = queue.pop_next()
                if nxt is None:
                    return self._now
                self._now, action = nxt
                self._steps += 1
                if self._steps > max_steps:
                    raise SimulationError(f"simulation exceeded {max_steps} events")
                action()
                if self._probes:
                    for interval, probe in self._probes:
                        if self._steps % interval == 0:
                            probe()
        finally:
            obs.incr("sim.events", self._steps - steps_before)
