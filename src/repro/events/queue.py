"""Deterministic event queue for the discrete-event kernel.

A :mod:`heapq` of ``(time, seq)`` keys.  The sequence number is assigned
at scheduling time, so simultaneous events fire in the order they were
scheduled — this is what makes every simulation in this package
bit-for-bit reproducible.

Each *column* of the event table lives in the structure that serves it
at machine speed, instead of one Python object per event:

- **sort keys** — plain ``(time, seq)`` tuples of scalars.  CPython
  compares these without entering a Python frame, so every heap sift runs
  at C speed.
- **callbacks** — a ``seq -> action`` dict, touched exactly twice per
  event (schedule, fire) instead of travelling through every comparison.
- **liveness** — a set of cancelled ``seq`` values; cancellation is a set
  insert, and a dead key is skipped when it reaches the top of the heap.
  Only an interrupted commit and a crash cancel, and both are re-due
  within one wire, so no run holds more than a few dozen dead keys and
  the heap is never rebuilt (docs/PERFORMANCE.md).

What deliberately did **not** land: batch-advancing a whole window of
ready events in one vectorised step.  A fired action may schedule *into*
the window being advanced (a node activation schedules its own commit at
``now + dt``), so the ready set is not known until each callback has run.

The oracle is ``SortedListModel`` in ``tests/test_events.py``: a sorted
list of live keys with no heap and no laziness.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from ..errors import SimulationError

__all__ = ["EventQueue"]

#: Opaque cancellable handle: the event's ``(time, seq)`` sort key.
Handle = Tuple[float, int]


class EventQueue:
    """Min-heap of ``(time, seq)`` scalar keys with monotonic pop times."""

    __slots__ = (
        "_heap",
        "_actions",
        "_cancelled",
        "_counter",
        "_last_popped",
    )

    def __init__(self) -> None:
        self._heap: List[Handle] = []
        self._actions: Dict[int, Callable[[], Any]] = {}
        self._cancelled: Set[int] = set()
        self._counter = itertools.count()
        self._last_popped = 0.0

    def __len__(self) -> int:
        return len(self._actions)

    def push(self, time: float, action: Callable[[], Any]) -> Handle:
        """Schedule *action* at absolute *time*; returns a cancellable handle."""
        if time < self._last_popped:
            raise SimulationError(
                f"cannot schedule at {time} before current time {self._last_popped}"
            )
        seq = next(self._counter)
        heapq.heappush(self._heap, (time, seq))
        self._actions[seq] = action
        return (time, seq)

    def cancel(self, handle: Handle) -> None:
        """Mark *handle* cancelled (skipped on pop).

        Cancelling an event that already fired, or cancelling twice, is a
        no-op.  The callback column is released immediately; the dead key
        stays in the heap until it is popped.
        """
        seq = handle[1]
        if seq not in self._actions:
            return  # already fired or already cancelled
        del self._actions[seq]
        self._cancelled.add(seq)

    def pop_next(self) -> Optional[Tuple[float, Callable[[], Any]]]:
        """Pop the earliest live event as ``(time, action)``, else ``None``."""
        heap = self._heap
        cancelled = self._cancelled
        while heap:
            time, seq = heapq.heappop(heap)
            if cancelled:
                if seq in cancelled:
                    cancelled.discard(seq)
                    continue
            self._last_popped = time
            return time, self._actions.pop(seq)
        return None

    def peek_time(self) -> Optional[float]:
        """Time of the earliest live event without popping it."""
        heap = self._heap
        cancelled = self._cancelled
        while heap and heap[0][1] in cancelled:
            cancelled.discard(heapq.heappop(heap)[1])
        return heap[0][0] if heap else None
