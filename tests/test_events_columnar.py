"""Differential tests: ColumnarEventQueue vs the reference EventQueue.

The columnar queue stores sort keys and callbacks in separate columns but
promises the exact pop order of the reference queue — both order by
unique ``(time, seq)`` with sequence numbers assigned at schedule time.
These tests drive both queues through the same schedules and demand
identical observable behaviour, including under cancellation churn.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.events.columnar import ColumnarEventQueue
from repro.events.queue import EventQueue
from repro.events.sim import Simulator
from repro.kernels import use_kernels


def drain(queue):
    times = []
    while True:
        nxt = queue.pop_next()
        if nxt is None:
            return times
        times.append(nxt[0])


class TestQueueContract:
    def test_pop_next_returns_time_and_action(self):
        q = ColumnarEventQueue()
        fired = []
        q.push(2.0, lambda: fired.append("late"))
        q.push(1.0, lambda: fired.append("early"))
        time, action = q.pop_next()
        assert time == 1.0
        action()
        assert fired == ["early"]

    def test_simultaneous_events_fire_in_schedule_order(self):
        q = ColumnarEventQueue()
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
        q = ColumnarEventQueue()
        q.push(5.0, lambda: None)
        q.pop_next()
        with pytest.raises(SimulationError):
            q.push(4.0, lambda: None)

    def test_cancel_after_fire_is_noop(self):
        q = ColumnarEventQueue()
        handle = q.push(1.0, lambda: None)
        assert q.pop_next() is not None
        q.cancel(handle)
        q.cancel(handle)
        assert len(q) == 0
        assert not q._cancelled

    def test_len_counts_live_events(self):
        q = ColumnarEventQueue()
        handles = [q.push(float(i), lambda: None) for i in range(10)]
        for h in handles[::2]:
            q.cancel(h)
        assert len(q) == 5

    def test_cancel_releases_callback_immediately(self):
        q = ColumnarEventQueue()
        handle = q.push(1.0, lambda: None)
        q.cancel(handle)
        assert len(q._actions) == 0

    def test_peek_skips_cancelled_heads(self):
        q = ColumnarEventQueue()
        doomed = q.push(1.0, lambda: None)
        q.push(2.0, lambda: None)
        q.cancel(doomed)
        assert q.peek_time() == 2.0


class TestDifferentialEquivalence:
    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
                st.booleans(),
            ),
            min_size=0,
            max_size=300,
        )
    )
    def test_pop_sequence_matches_reference(self, ops):
        ref, col = EventQueue(), ColumnarEventQueue()
        for time, doomed in ops:
            hr = ref.push(time, lambda: None)
            hc = col.push(time, lambda: None)
            if doomed:
                ref.cancel(hr)
                col.cancel(hc)
        ref_times = []
        while True:
            event = ref.pop()
            if event is None:
                break
            ref_times.append(event.time)
        assert drain(col) == ref_times

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=400))
    def test_interleaved_pops_and_cancels(self, n):
        ref, col = EventQueue(), ColumnarEventQueue()
        state = 12345
        live_r, live_c = [], []
        popped_r, popped_c = [], []
        for _ in range(n):
            state = (state * 1103515245 + 12345) & (2**31 - 1)
            t = ref._last_popped + (state % 1000) / 10.0
            live_r.append(ref.push(t, lambda: None))
            live_c.append(col.push(t, lambda: None))
            if state % 3 == 0 and live_r:
                k = state % len(live_r)
                ref.cancel(live_r.pop(k))
                col.cancel(live_c.pop(k))
            if state % 7 == 0:
                er = ref.pop()
                ec = col.pop_next()
                popped_r.append(None if er is None else er.time)
                popped_c.append(None if ec is None else ec[0])
                assert ref.peek_time() == col.peek_time()
        assert popped_r == popped_c


class TestSimulatorDispatch:
    def test_mode_selects_queue_class(self):
        with use_kernels("vectorized"):
            assert isinstance(Simulator()._queue, ColumnarEventQueue)
        with use_kernels("reference"):
            assert isinstance(Simulator()._queue, EventQueue)

    def test_same_trace_under_both_queues(self):
        def run() -> list:
            sim = Simulator()
            fired = []

            def spawn(depth: int):
                fired.append((round(sim.now, 9), depth))
                if depth < 5:
                    sim.after(0.5, lambda: spawn(depth + 1))
                    doomed = sim.after(0.25, lambda: fired.append("never"))
                    sim.cancel(doomed)

            sim.at(1.0, lambda: spawn(0))
            sim.at(1.0, lambda: spawn(10))
            sim.run()
            return fired

        with use_kernels("reference"):
            ref = run()
        with use_kernels("vectorized"):
            vec = run()
        assert ref == vec
        assert "never" not in ref

    def test_bounded_run_stops_at_until(self):
        with use_kernels("vectorized"):
            sim = Simulator()
            fired = []
            sim.at(1.0, lambda: fired.append(1.0))
            sim.at(3.0, lambda: fired.append(3.0))
            assert sim.run(until=2.0) == 2.0
            assert fired == [1.0]
            assert sim.run() == 3.0
            assert fired == [1.0, 3.0]
