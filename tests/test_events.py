"""Tests for the discrete-event kernel: the queue's contract and the simulator.

The queue is held to ``SortedListModel`` under heavy cancellation:
cancellation is lazy — a cancelled key stays in the heap and is skipped
when it surfaces — while the model has no heap and no laziness at all,
a sorted list of live ``(time, seq)`` keys that cancel removes on the
spot.  So the model is the oracle for what the queue must *observe* (pop
order, ``peek_time``, ``len``) however many dead keys it carries, and
for the simulator's firing order.  A few cases look at the queue's
storage directly (callbacks live in a column apart from the sort keys,
released on cancel), which a black-box model cannot see.
"""

from __future__ import annotations

import bisect
from typing import List, Optional, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.events import EventQueue, Simulator


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

    def __init__(self) -> None:
        self.queue = EventQueue()
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


def fire_all(queue: EventQueue) -> None:
    while (nxt := queue.pop_next()) is not None:
        nxt[1]()


class TestEventQueue:
    def test_pops_in_time_order(self):
        q = EventQueue()
        fired = []
        q.push(2.0, lambda: fired.append("b"))
        q.push(1.0, lambda: fired.append("a"))
        fire_all(q)
        assert fired == ["a", "b"]

    def test_ties_break_by_schedule_order(self):
        q = EventQueue()
        fired = []
        q.push(1.0, lambda: fired.append("first"))
        q.push(1.0, lambda: fired.append("second"))
        fire_all(q)
        assert fired == ["first", "second"]

    def test_cancel_skips_event(self):
        q = EventQueue()
        fired = []
        handle = q.push(1.0, lambda: fired.append("x"))
        q.push(2.0, lambda: fired.append("y"))
        q.cancel(handle)
        fire_all(q)
        assert fired == ["y"]

    def test_len_accounts_for_cancelled(self):
        q = EventQueue()
        handle = q.push(1.0, lambda: None)
        q.push(2.0, lambda: None)
        q.cancel(handle)
        assert len(q) == 1

    def test_peek_time_skips_cancelled(self):
        q = EventQueue()
        handle = q.push(1.0, lambda: None)
        q.push(2.0, lambda: None)
        q.cancel(handle)
        assert q.peek_time() == 2.0

    def test_pop_next_returns_time_and_action(self):
        q = EventQueue()
        fired = []
        q.push(2.0, lambda: fired.append("late"))
        q.push(1.0, lambda: fired.append("early"))
        time, action = q.pop_next()
        assert time == 1.0
        action()
        assert fired == ["early"]

    def test_cancel_releases_callback_immediately(self):
        q = EventQueue()
        handle = q.push(1.0, lambda: None)
        q.cancel(handle)
        assert len(q._actions) == 0

    def test_scheduling_in_the_past_rejected(self):
        q = EventQueue()
        q.push(5.0, lambda: None)
        q.pop_next()
        with pytest.raises(SimulationError):
            q.push(4.0, lambda: None)


class TestSimulator:
    def test_clock_advances_with_events(self):
        sim = Simulator()
        times = []
        sim.at(1.5, lambda: times.append(sim.now))
        sim.at(3.0, lambda: times.append(sim.now))
        final = sim.run()
        assert times == [1.5, 3.0]
        assert final == 3.0

    def test_after_schedules_relative(self):
        sim = Simulator()
        seen = []

        def first():
            sim.after(2.0, lambda: seen.append(sim.now))

        sim.at(1.0, first)
        sim.run()
        assert seen == [3.0]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.after(-1.0, lambda: None)

    def test_events_can_spawn_events(self):
        sim = Simulator()
        count = [0]

        def tick():
            count[0] += 1
            if count[0] < 5:
                sim.after(1.0, tick)

        sim.at(0.0, tick)
        sim.run()
        assert count[0] == 5
        assert sim.steps == 5

    def test_until_bound_stops_clock(self):
        sim = Simulator()
        fired = []
        sim.at(1.0, lambda: fired.append(1))
        sim.at(10.0, lambda: fired.append(10))
        sim.run(until=5.0)
        assert fired == [1]
        assert sim.now == 5.0

    def test_bounded_run_returns_until_and_resumes(self):
        sim = Simulator()
        fired = []
        sim.at(1.0, lambda: fired.append(1.0))
        sim.at(3.0, lambda: fired.append(3.0))
        assert sim.run(until=2.0) == 2.0
        assert fired == [1.0]
        assert sim.run() == 3.0
        assert fired == [1.0, 3.0]

    def test_runaway_guard(self):
        sim = Simulator()

        def forever():
            sim.after(1.0, forever)

        sim.at(0.0, forever)
        with pytest.raises(SimulationError):
            sim.run(max_steps=100)

    def test_cancel_via_simulator(self):
        sim = Simulator()
        fired = []
        handle = sim.at(1.0, lambda: fired.append(1))
        sim.cancel(handle)
        sim.run()
        assert fired == []

    def test_nested_reschedules_and_cancels_fire_in_model_order(self):
        """Actions that schedule and cancel from inside the loop: every
        fire is the model's next live key, at that key's time."""
        sim, model = Simulator(), SortedListModel()
        fired = []

        def schedule(time: float, depth):
            key = model.push(time)
            return sim.at(time, lambda: spawn(key, depth)), key

        def spawn(key, depth):
            assert model.pop() == key
            assert sim.now == key[0]
            fired.append(depth)
            if depth < 5:
                schedule(sim.now + 0.5, depth + 1)
                handle, doomed = schedule(sim.now + 0.25, "never")
                sim.cancel(handle)
                model.cancel(doomed)

        schedule(1.0, 0)
        schedule(1.0, 10)
        assert sim.run() == 3.5
        assert fired == [0, 10, 1, 2, 3, 4, 5]
        assert model.live == []


class TestCancelEdgeCases:
    def test_cancel_after_fire_is_noop(self):
        q = EventQueue()
        handle = q.push(1.0, lambda: None)
        q.push(2.0, lambda: None)
        q.pop_next()
        q.cancel(handle)  # already fired: must not corrupt the live count
        assert len(q) == 1
        assert q.pop_next() is not None
        assert len(q) == 0

    def test_cancel_after_fire_marks_nothing(self):
        q = EventQueue()
        handle = q.push(1.0, lambda: None)
        assert q.pop_next() is not None
        q.cancel(handle)
        q.cancel(handle)
        assert len(q) == 0
        assert not q._cancelled  # a fired event is never marked for skipping

    def test_a_skipped_dead_key_leaves_the_cancelled_set(self):
        # The set holds only the dead keys still in the heap, so a run's
        # cancellations do not pile up, whether a pop or a peek skips them.
        q = EventQueue()
        handles = [q.push(float(t), lambda: None) for t in range(4)]
        q.cancel(handles[0])
        q.cancel(handles[2])
        assert q.pop_next()[0] == 1.0
        assert q._cancelled == {handles[2][1]}
        assert q.peek_time() == 3.0
        assert not q._cancelled

    def test_double_cancel_counted_once(self):
        q = EventQueue()
        handle = q.push(1.0, lambda: None)
        q.cancel(handle)
        q.cancel(handle)
        assert len(q) == 0
        assert q.pop_next() is None


def test_three_quarters_cancelled():
    """Retry churn: of every eight events scheduled, six are withdrawn."""
    pair = Pair()
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


def test_cancelled_head_runs():
    """Long dead prefixes at the top of the heap, met by pops and peeks."""
    pair = Pair()
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


def test_cancel_after_fire_changes_nothing():
    pair = Pair()
    first = pair.push(1.0)
    later = [pair.push(2.0 + i) for i in range(5)]
    assert pair.pop() == (1.0, 0)
    pair.cancel(first)  # each cancel re-checks the live count
    pair.cancel(first)
    pair.cancel(later[0])
    pair.cancel(later[0])  # a double cancel counts once
    assert pair.peek() == 3.0
    assert pair.drain() == 4


def test_peek_on_all_dead_queue_and_reuse():
    pair = Pair()
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


@settings(max_examples=150, deadline=None)
@given(ops=OPS, cancel_bias=st.integers(1, 4))
def test_random_schedules_match_the_model(ops, cancel_bias):
    pair = Pair()
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
