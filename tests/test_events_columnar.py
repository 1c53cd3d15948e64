"""The queue's contract by its internals, and a time-bounded run.

``EventQueue`` stores sort keys and callbacks in separate columns; these
tests look at that storage directly (the callback column is released on
cancel, the cancelled set is emptied on pop), which the black-box suites
in ``tests/test_events.py`` and ``tests/test_events_cancellation.py`` do
not.  (File and class names date from when this queue was the
``columnar`` twin of a dataclass-heap reference queue, and ``Simulator``
dispatched between the two; they are kept so the test ids stay stable.)
"""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.events.queue import EventQueue
from repro.events.sim import Simulator


class TestQueueContract:
    def test_pop_next_returns_time_and_action(self):
        q = EventQueue()
        fired = []
        q.push(2.0, lambda: fired.append("late"))
        q.push(1.0, lambda: fired.append("early"))
        time, action = q.pop_next()
        assert time == 1.0
        action()
        assert fired == ["early"]

    def test_simultaneous_events_fire_in_schedule_order(self):
        q = EventQueue()
        order = []
        for tag in range(5):
            q.push(3.0, lambda t=tag: order.append(t))
        while True:
            nxt = q.pop_next()
            if nxt is None:
                break
            nxt[1]()
        assert order == [0, 1, 2, 3, 4]

    def test_push_before_last_popped_raises(self):
        q = EventQueue()
        q.push(5.0, lambda: None)
        q.pop_next()
        with pytest.raises(SimulationError):
            q.push(4.0, lambda: None)

    def test_cancel_after_fire_is_noop(self):
        q = EventQueue()
        handle = q.push(1.0, lambda: None)
        assert q.pop_next() is not None
        q.cancel(handle)
        q.cancel(handle)
        assert len(q) == 0
        assert not q._cancelled

    def test_len_counts_live_events(self):
        q = EventQueue()
        handles = [q.push(float(i), lambda: None) for i in range(10)]
        for h in handles[::2]:
            q.cancel(h)
        assert len(q) == 5

    def test_cancel_releases_callback_immediately(self):
        q = EventQueue()
        handle = q.push(1.0, lambda: None)
        q.cancel(handle)
        assert len(q._actions) == 0

    def test_peek_skips_cancelled_heads(self):
        q = EventQueue()
        doomed = q.push(1.0, lambda: None)
        q.push(2.0, lambda: None)
        q.cancel(doomed)
        assert q.peek_time() == 2.0


class TestSimulatorDispatch:
    def test_bounded_run_stops_at_until(self):
        sim = Simulator()
        fired = []
        sim.at(1.0, lambda: fired.append(1.0))
        sim.at(3.0, lambda: fired.append(3.0))
        assert sim.run(until=2.0) == 2.0
        assert fired == [1.0]
        assert sim.run() == 3.0
        assert fired == [1.0, 3.0]
