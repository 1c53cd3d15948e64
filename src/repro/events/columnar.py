"""Columnar event queue: scalar sort keys, payload columns, batched cleanup.

:class:`~repro.events.queue.EventQueue` orders frozen :class:`Event`
dataclasses; every heap sift compares them through a generated Python
``__lt__``, and every schedule allocates an object that carries its
callback and bookkeeping flags along the heap.  On the T6 path
(``mp_sim``/``sm_sim``) the event loop is thousands of tiny events, so
those per-event Python frames are pure overhead.

This module applies the :mod:`repro.memsim.columnar` storage trick to the
event kernel: keep each *column* of the event table in the structure that
serves it at machine speed, instead of one Python object per row.

- **sort keys** — plain ``(time, seq)`` tuples of scalars.  CPython
  compares these without entering a Python frame, so every heap sift runs
  at C speed.
- **callbacks** — a ``seq -> action`` dict, touched exactly twice per
  event (schedule, fire) instead of travelling through every comparison.
- **liveness** — a set of cancelled ``seq`` values; cancellation is a set
  insert, and a dead key is skipped when it reaches the top of the heap.

What deliberately did **not** land: batch-advancing a whole window of
ready events in one vectorised step, the full order-statistics replay of
``memsim.columnar``.  A fired action may schedule *into* the window being
advanced (a node activation schedules its own commit at ``now + dt``), so
the ready set is not known until each callback has run — the replay trick
needs a closed trace, and the live event loop is not one.  The columnar
storage above is the part of the trick that survives contact with a live
schedule; ``benchmarks/bench_perf_suite.py`` (``t6_event_kernel``)
measures what it buys.

Pop order is bit-identical to :class:`EventQueue`: both order strictly by
unique ``(time, seq)`` keys with sequence numbers assigned at schedule
time, so any mix of the two queues over the same schedule fires the same
callbacks in the same order at the same virtual times.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from ..errors import SimulationError

__all__ = ["ColumnarEventQueue"]

#: Opaque cancellable handle: the event's ``(time, seq)`` sort key.
Handle = Tuple[float, int]


class ColumnarEventQueue:
    """Min-heap of ``(time, seq)`` scalar keys with columnar payloads.

    Drop-in protocol match for :class:`~repro.events.queue.EventQueue`
    as the simulator uses it: ``push`` returns an opaque cancellable
    handle, ``pop_next`` yields ``(time, action)`` pairs in ``(time,
    seq)`` order, ``peek_time``/``cancel``/``__len__`` behave
    identically (including the monotonic-time guard and the
    cancel-after-fire no-op).
    """

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
