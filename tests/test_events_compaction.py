"""Lazy cancellation in the reference ``EventQueue``, down to the handles.

The queue never rebuilds its heap: a cancelled event stays put and is
skipped when it surfaces, so the observable contract is that pop order,
the popped handles' ``(time, seq)`` keys and ``len`` are those of the
live set alone.  ``tests/test_events_cancellation.py`` holds both queues
to a sorted-list model through ``pop_next``; these tests add what only
the reference queue exposes — the :class:`Event` handle itself.  (Class
and test names date from when the comparison was against a
heap-compacting queue; they are kept so the test ids stay stable.)
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.events.queue import EventQueue

from .test_events_cancellation import SortedListModel


def drain_keys(queue):
    keys = []
    while True:
        event = queue.pop()
        if event is None:
            return keys
        keys.append((event.time, event.seq))


class TestCompactionTrigger:
    def test_len_tracks_live_events_through_compaction(self):
        q = EventQueue()
        events = [q.push(float(i), lambda: None) for i in range(200)]
        for event in events[::2]:
            q.cancel(event)
        assert len(q) == 100

    def test_cancel_after_fire_is_noop(self):
        q = EventQueue()
        event = q.push(1.0, lambda: None)
        assert q.pop() is event
        q.cancel(event)
        q.cancel(event)
        assert q._n_cancelled_in_heap == 0


class TestCompactionEquivalence:
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
    def test_pop_sequence_identical_with_and_without_compaction(self, ops):
        q, model = EventQueue(), SortedListModel()
        for time, doomed in ops:
            event = q.push(time, lambda: None)
            key = model.push(time)
            if doomed:
                q.cancel(event)
                model.cancel(key)
        assert drain_keys(q) == model.live

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=400))
    def test_interleaved_pops_and_cancels(self, n):
        q, model = EventQueue(), SortedListModel()
        state = 12345
        live = []
        for _ in range(n):
            state = (state * 1103515245 + 12345) & (2**31 - 1)
            t = q._last_popped + (state % 1000) / 10.0
            live.append((q.push(t, lambda: None), model.push(t)))
            if state % 3 == 0 and live:
                event, key = live.pop(state % len(live))
                q.cancel(event)
                model.cancel(key)
            if state % 7 == 0:
                event = q.pop()
                popped = None if event is None else (event.time, event.seq)
                assert popped == model.pop()
        assert drain_keys(q) == model.live
