"""Independent oracles for the wormhole link reservation.

``WormholeNetwork._transmit`` has one reservation path, so there is no
second implementation to compare it with.  These tests rebuild every flit
train's hold on every link from the *deliveries alone* (arrival time, hop
count, length, the topology's own route) and check the model's defining
properties on those intervals:

- no two trains overlap on any link;
- every train starts at the earliest instant its whole route is clear of
  the trains sent before it (never earlier, never later);
- summed link-busy time equals ``hop_time * (sum(L * hops) + sum(hops))``.

Meshes of 16, 64 and 256 nodes are covered so that routes of eight and
more hops occur, with and without a duplicating fault plan (a duplicate
is a second full train behind the first).
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.events import Simulator
from repro.faults import FaultInjector, FaultPlan
from repro.netsim import (
    HOP_TIME_S,
    PROCESS_TIME_S,
    MeshTopology,
    Message,
    WormholeNetwork,
)

#: Slack for times rebuilt by subtraction: six orders of magnitude under
#: one hop (1e-7 s), six above float64 resolution at these magnitudes.
EPS = 1e-13

#: (src, dst, length_bytes, inject_time or None)
Send = Tuple[int, int, int, Optional[float]]


def run_burst(n_procs: int, sends: List[Send], plan: Optional[FaultPlan]):
    """Send the burst; per message (in send order) its trains' deliveries."""
    sim = Simulator()
    delivered = []
    faults = FaultInjector(plan) if plan is not None else None
    topology = MeshTopology(n_procs)
    net = WormholeNetwork(sim, topology, delivered.append, faults=faults)
    copies = []
    for tag, (src, dst, length, t_inject) in enumerate(sends):
        before = net.messages_injected
        net.send(Message(src, dst, length, payload=tag), inject_time=t_inject)
        copies.append(net.messages_injected - before)
    sim.run()
    by_tag: Dict[int, list] = defaultdict(list)
    for d in delivered:
        by_tag[d.message.payload].append(d)
    trains = []
    for tag, n in enumerate(copies):
        # A duplicate queues behind the original on the same links, so
        # arrival order within one message is transmission order.
        group = sorted(by_tag[tag], key=lambda d: d.arrive_time)
        assert len(group) == n
        trains.append(group)
    return net, topology, trains


def check_reservations(net, topology, sends: List[Send], trains) -> int:
    """Assert the three properties; returns the longest route seen."""
    holds: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    occupancy = 0
    longest = 0
    for (src, dst, length, t_inject), group in zip(sends, trains):
        t_inject = 0.0 if t_inject is None else t_inject
        links = topology.route(src, dst)
        for d in group:
            assert d.hops == len(links)
            if not links:
                assert d.arrive_time == pytest.approx(
                    t_inject + 2 * PROCESS_TIME_S, abs=EPS
                )
                continue
            longest = max(longest, d.hops)
            t_start = d.arrive_time - PROCESS_TIME_S - HOP_TIME_S * (d.hops + length)
            # Earliest start: the source's copy-out, or the moment the
            # last earlier train lets go of any link of this route.
            clear_at = max(
                [t_inject + PROCESS_TIME_S]
                + [end for link in links for _start, end in holds[link]]
            )
            assert t_start == pytest.approx(clear_at, abs=EPS)
            for i, link in enumerate(links):
                holds[link].append(
                    (t_start + i * HOP_TIME_S, t_start + (i + 1 + length) * HOP_TIME_S)
                )
            occupancy += length * d.hops + d.hops
    for link, intervals in holds.items():
        intervals.sort()
        for (_s0, end0), (start1, _e1) in zip(intervals, intervals[1:]):
            assert start1 >= end0 - EPS, f"trains overlap on link {link}"
        assert net._link_busy_s[link] == pytest.approx(
            sum(end - start for start, end in intervals), rel=1e-9
        )
    assert math.fsum(net._link_busy_s) == pytest.approx(
        HOP_TIME_S * occupancy, rel=1e-9
    )
    return longest


def lcg_burst(n_procs: int, n_messages: int) -> List[Send]:
    sends = []
    state = 0x9E3779B97F4A7C15
    for _ in range(n_messages):
        state = (state * 6364136223846793005 + 1) & (2**64 - 1)
        sends.append(
            (
                (state >> 40) % n_procs,
                (state >> 20) % n_procs,
                8 + (state >> 4) % 56,
                None,
            )
        )
    return sends


DUPLICATING = FaultPlan(seed=7, duplicate_prob=0.5)


@pytest.mark.parametrize("plan", [None, DUPLICATING], ids=["clean", "duplicating"])
@pytest.mark.parametrize("n_procs", [16, 64, 256])
def test_hot_burst_reserves_exactly(n_procs, plan):
    """All sends at t=0: every train queues behind the ones before it."""
    sends = lcg_burst(n_procs, 300)
    net, topology, trains = run_burst(n_procs, sends, plan)
    longest = check_reservations(net, topology, sends, trains)
    if plan is not None:
        assert any(len(group) == 2 for group in trains)
    if n_procs > 16:
        assert longest >= 8  # past the hop count the old batched path began at


@settings(max_examples=60, deadline=None)
@given(
    n_procs=st.sampled_from([16, 64, 256]),
    raw=st.lists(
        st.tuples(
            st.integers(0, 255),
            st.integers(0, 255),
            st.integers(1, 200),
            st.one_of(
                st.none(),
                st.floats(min_value=0.0, max_value=40e-6, allow_nan=False),
            ),
        ),
        min_size=1,
        max_size=60,
    ),
    duplicate=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_random_bursts_reserve_exactly(n_procs, raw, duplicate, seed):
    """Future and out-of-order injection times, self-sends included."""
    sends = [(s % n_procs, d % n_procs, length, t) for s, d, length, t in raw]
    plan = FaultPlan(seed=seed, duplicate_prob=0.5) if duplicate else None
    net, topology, trains = run_burst(n_procs, sends, plan)
    check_reservations(net, topology, sends, trains)
    assert net.in_flight == 0
    assert net.messages_delivered == sum(len(group) for group in trains)
