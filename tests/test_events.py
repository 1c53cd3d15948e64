"""Tests for the discrete-event kernel: the queue's contract and the simulator.

``tests/test_events_cancellation.py`` holds the queue to a sorted-list
model under heavy cancellation; its ``SortedListModel`` is also the
oracle for the simulator's firing order here.  A few cases look at the
queue's storage directly (callbacks live in a column apart from the sort
keys, released on cancel), which a black-box model cannot see.
"""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.events import EventQueue, Simulator

from .test_events_cancellation import SortedListModel


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

    def test_double_cancel_counted_once(self):
        q = EventQueue()
        handle = q.push(1.0, lambda: None)
        q.cancel(handle)
        q.cancel(handle)
        assert len(q) == 0
        assert q.pop_next() is None
