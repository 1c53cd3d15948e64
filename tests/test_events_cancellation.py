"""The event queue against a sorted-list model under heavy cancellation.

Cancellation is lazy: a cancelled key stays in the heap and is skipped
when it surfaces.  The model below has no heap and no laziness at all —
a sorted list of live ``(time, seq)`` keys that cancel removes on the
spot — so it is the oracle for what the queue must *observe* (pop order,
``peek_time``, ``len``) however many dead keys it carries.

(The one-entry parametrisation dates from when a second, dataclass-heap
queue ran the same tests under the id ``reference``; the surviving id is
kept so the test ids stay stable.)
"""

from __future__ import annotations

import bisect
from typing import List, Optional, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.events.queue import EventQueue

QUEUES = pytest.mark.parametrize("queue_cls", [EventQueue], ids=["columnar"])


class SortedListModel:
    """Live events as a sorted list of ``(time, seq)``; cancel deletes."""

    def __init__(self) -> None:
        self.live: List[Tuple[float, int]] = []
        self.n_pushed = 0

    def push(self, time: float) -> Tuple[float, int]:
        key = (time, self.n_pushed)
        self.n_pushed += 1
        bisect.insort(self.live, key)
        return key

    def cancel(self, key: Tuple[float, int]) -> None:
        if key in self.live:  # fired or already cancelled: no-op
            self.live.remove(key)

    def pop(self) -> Optional[Tuple[float, int]]:
        return self.live.pop(0) if self.live else None

    def peek_time(self) -> Optional[float]:
        return self.live[0][0] if self.live else None


class Pair:
    """The queue under test driven in lockstep with the model."""

    def __init__(self, queue_cls) -> None:
        self.queue = queue_cls()
        self.model = SortedListModel()
        self.handles: List[Tuple[object, Tuple[float, int]]] = []

    def push(self, time: float) -> int:
        key = self.model.push(time)
        # The action returns the event's sequence number, so a pop names
        # exactly which event fired, not merely when.
        handle = self.queue.push(time, lambda seq=key[1]: seq)
        self.handles.append((handle, key))
        return len(self.handles) - 1

    def cancel(self, which: int) -> None:
        handle, key = self.handles[which]
        self.queue.cancel(handle)
        self.model.cancel(key)
        assert len(self.queue) == len(self.model.live)

    def pop(self) -> Optional[Tuple[float, int]]:
        """Pop both; dead keys at the top are the queue's to skip."""
        expected = self.model.pop()
        got = self.queue.pop_next()
        fired = None if got is None else (got[0], got[1]())
        assert fired == expected
        assert len(self.queue) == len(self.model.live)
        return fired

    def peek(self) -> Optional[float]:
        """Peek both; kept apart from :meth:`pop` because a peek sheds
        dead heads, and a pop must cope with them unaided."""
        time = self.queue.peek_time()
        assert time == self.model.peek_time()
        assert len(self.queue) == len(self.model.live)
        return time

    def drain(self) -> int:
        n = 0
        while self.pop() is not None:
            n += 1
        return n


@QUEUES
def test_three_quarters_cancelled(queue_cls):
    """Retry churn: of every eight events scheduled, six are withdrawn."""
    pair = Pair(queue_cls)
    state = 0xC0FFEE
    live: List[int] = []
    for _ in range(4000):
        state = (state * 1103515245 + 12345) & (2**31 - 1)
        live.append(pair.push(state / 1e6))
        if len(live) == 8:
            for which in live[:6]:
                pair.cancel(which)
            live.clear()
    assert pair.drain() == 1000


@QUEUES
def test_cancelled_head_runs(queue_cls):
    """Long dead prefixes at the top of the heap, met by pops and peeks."""
    pair = Pair(queue_cls)
    ids = [pair.push(float(i)) for i in range(600)]
    for lo in range(0, 600, 150):
        for which in ids[lo : lo + 100]:  # 100 dead, then 50 live, four times
            pair.cancel(which)
    for lo in range(0, 600, 150):
        if lo % 300 == 0:
            # a peek sees through the dead run; every other run is left
            # for the pop to skip on its own
            assert pair.peek() == float(lo + 100)
        for _ in range(50):
            assert pair.pop() is not None
    assert pair.pop() is None
    assert pair.peek() is None


@QUEUES
def test_cancel_after_fire_changes_nothing(queue_cls):
    pair = Pair(queue_cls)
    first = pair.push(1.0)
    later = [pair.push(2.0 + i) for i in range(5)]
    assert pair.pop() == (1.0, 0)
    pair.cancel(first)  # each cancel re-checks the live count
    pair.cancel(first)
    pair.cancel(later[0])
    pair.cancel(later[0])  # a double cancel counts once
    assert pair.peek() == 3.0
    assert pair.drain() == 4


@QUEUES
def test_peek_on_all_dead_queue_and_reuse(queue_cls):
    pair = Pair(queue_cls)
    for which in [pair.push(5.0 + i) for i in range(200)]:
        pair.cancel(which)
    assert pair.peek() is None
    assert pair.pop() is None
    # Nothing fired, so the clock guard has not moved past the dead keys.
    pair.push(0.5)
    assert pair.pop() == (0.5, 200)
    with pytest.raises(SimulationError):
        pair.queue.push(0.25, lambda: None)


OPS = st.lists(
    st.one_of(
        st.tuples(st.just("push"), st.integers(0, 1000)),
        st.tuples(st.just("cancel"), st.integers(0, 10_000)),
        st.tuples(st.just("pop"), st.just(0)),
        st.tuples(st.just("peek"), st.just(0)),
    ),
    max_size=400,
)


@QUEUES
@settings(max_examples=150, deadline=None)
@given(ops=OPS, cancel_bias=st.integers(1, 4))
def test_random_schedules_match_the_model(queue_cls, ops, cancel_bias):
    pair = Pair(queue_cls)
    now = 0.0
    for op, arg in ops:
        if op == "push":
            fresh = pair.push(now + arg / 10.0)
            # Bias towards the cancel-heavy regime: most pushes are
            # withdrawn again, sometimes at once (a dead head).
            if arg % cancel_bias:
                pair.cancel(fresh)
        elif op == "cancel" and pair.handles:
            pair.cancel(arg % len(pair.handles))  # may be fired or dead already
        elif op == "pop":
            fired = pair.pop()
            if fired is not None:
                now = fired[0]
        elif op == "peek":
            pair.peek()
    pair.drain()
