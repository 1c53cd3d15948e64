"""Deterministic event queue for the discrete-event kernel.

A thin wrapper over :mod:`heapq` that totally orders events by
``(time, sequence)``.  The sequence number is assigned at scheduling time,
so simultaneous events fire in the order they were scheduled — this is
what makes every simulation in this package bit-for-bit reproducible.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Tuple

from ..errors import SimulationError

__all__ = ["Event", "EventQueue"]


@dataclass(frozen=True, order=True)
class Event:
    """A scheduled callback.

    Ordering compares ``(time, seq)`` only; the callback and the
    cancellation flag are excluded via ``field(compare=False)``.  The
    flag lives on the event itself (mutated through
    ``object.__setattr__``) so cancelling an event that already fired is
    a harmless no-op rather than corrupting the queue's bookkeeping.
    """

    time: float
    seq: int
    action: Callable[[], Any] = field(compare=False)
    cancelled: bool = field(default=False, compare=False)
    fired: bool = field(default=False, compare=False)


class EventQueue:
    """Min-heap of :class:`Event` with monotonic pop times."""

    def __init__(self) -> None:
        self._heap: List[Event] = []
        self._counter = itertools.count()
        self._last_popped = 0.0
        self._n_cancelled_in_heap = 0

    def __len__(self) -> int:
        return len(self._heap) - self._n_cancelled_in_heap

    def push(self, time: float, action: Callable[[], Any]) -> Event:
        """Schedule *action* at absolute *time*; returns a cancellable handle."""
        if time < self._last_popped:
            raise SimulationError(
                f"cannot schedule at {time} before current time {self._last_popped}"
            )
        event = Event(time, next(self._counter), action)
        heapq.heappush(self._heap, event)
        return event

    def cancel(self, event: Event) -> None:
        """Mark *event* as cancelled (skipped on pop).

        Cancelling an event that has already fired, or cancelling twice,
        is a no-op.
        """
        if event.cancelled or event.fired:
            return
        object.__setattr__(event, "cancelled", True)
        # A fired event was already removed by pop(); only events still in
        # the heap affect the live count.
        self._n_cancelled_in_heap += 1
        # Lazy cancellation: the dead entry stays in the heap and is
        # skipped when popped.  Only an interrupted commit and a crash
        # cancel, and both are re-due within one wire, so no run holds
        # more than a few dozen dead entries (docs/PERFORMANCE.md).

    def pop(self) -> Optional[Event]:
        """Pop the earliest live event, or ``None`` if the queue is empty."""
        while self._heap:
            event = heapq.heappop(self._heap)
            if event.cancelled:
                self._n_cancelled_in_heap -= 1
                continue
            self._last_popped = event.time
            object.__setattr__(event, "fired", True)
            return event
        return None

    def pop_next(self) -> Optional[Tuple[float, Callable[[], Any]]]:
        """Pop the earliest live event as a ``(time, action)`` pair.

        The queue-protocol form of :meth:`pop` shared with
        :class:`~repro.events.columnar.ColumnarEventQueue`: the simulator
        loop only needs the fire time and the callback, not the handle.
        """
        event = self.pop()
        if event is None:
            return None
        return event.time, event.action

    def peek_time(self) -> Optional[float]:
        """Time of the earliest live event without popping it."""
        while self._heap and self._heap[0].cancelled:
            heapq.heappop(self._heap)
            self._n_cancelled_in_heap -= 1
        return self._heap[0].time if self._heap else None
