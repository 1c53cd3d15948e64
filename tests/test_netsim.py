"""Tests for the CBS-style network simulator."""

from __future__ import annotations

import math
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import NetworkError
from repro.events import Simulator
from repro.netsim import (
    HOP_TIME_S,
    PROCESS_TIME_S,
    Delivery,
    MeshTopology,
    Message,
    WormholeNetwork,
)


class TestTopology:
    def test_coords_round_trip(self):
        topo = MeshTopology(16)
        for node in range(16):
            r, c = topo.coords(node)
            assert topo.node_at(r, c) == node

    def test_hop_distance_unidirectional_wrap(self):
        topo = MeshTopology(16)  # 4x4
        assert topo.hop_distance(0, 1) == 1
        # unidirectional: going "back" wraps around (3 hops on a 4-ring)
        assert topo.hop_distance(1, 0) == 3
        assert topo.hop_distance(0, 5) == 2

    def test_route_length_matches_distance(self):
        topo = MeshTopology(16)
        for src in range(16):
            for dst in range(16):
                assert len(topo.route(src, dst)) == topo.hop_distance(src, dst)

    def test_route_is_x_then_y(self):
        topo = MeshTopology(16)
        links = topo.route(0, 5)  # (0,0) -> (1,1)
        # first link is node 0's X link, second is node 1's Y link
        assert links[0] == 0 * 2 + MeshTopology.X_DIM
        assert links[1] == 1 * 2 + MeshTopology.Y_DIM

    def test_two_node_machine(self):
        topo = MeshTopology(2)
        assert topo.hop_distance(0, 1) == 1
        assert topo.hop_distance(1, 0) == 1  # wraps on the 2-ring

    def test_bad_shape_rejected(self):
        with pytest.raises(NetworkError):
            MeshTopology(6, shape=(2, 2))

    def test_bad_node_rejected(self):
        topo = MeshTopology(4)
        with pytest.raises(NetworkError):
            topo.coords(4)

    @given(st.integers(0, 15), st.integers(0, 15))
    def test_hop_distance_bounded(self, src, dst):
        topo = MeshTopology(16)
        d = topo.hop_distance(src, dst)
        assert 0 <= d <= 6  # (k-1) per dimension on a unidirectional 4x4


class TestMessage:
    def test_zero_length_rejected(self):
        with pytest.raises(NetworkError):
            Message(0, 1, 0, None)

    def test_negative_length_rejected(self):
        with pytest.raises(NetworkError):
            Message(0, 1, -4, None)

    def test_self_addressed_message_legal(self):
        msg = Message(1, 1, 10, None)
        assert msg.src == msg.dst == 1

    def test_message_and_delivery_pickle_round_trip(self):
        delivery = Delivery(Message(2, 7, 36, ("payload", 1)), 1.5e-3, 1.75e-3, 3)
        back = pickle.loads(pickle.dumps(delivery))
        assert (back.inject_time, back.arrive_time, back.hops) == (1.5e-3, 1.75e-3, 3)
        assert back.latency == delivery.latency
        message = back.message
        assert (message.src, message.dst, message.length_bytes) == (2, 7, 36)
        assert message.payload == ("payload", 1)


def make_network(n=16):
    sim = Simulator()
    deliveries = []
    net = WormholeNetwork(sim, MeshTopology(n), deliveries.append)
    return sim, net, deliveries


class TestTimingValidation:
    def test_zero_process_time_is_ideal_network_ablation(self):
        """process_time_s=0 (free node/network copies) must be accepted."""
        sim = Simulator()
        net = WormholeNetwork(
            sim, MeshTopology(4), lambda d: None, process_time_s=0.0
        )
        # latency collapses to the pure wire term: HopTime * (D + L)
        assert net.uncontended_latency(0, 1, 100) == pytest.approx(
            HOP_TIME_S * (1 + 100)
        )

    def test_zero_hop_time_rejected(self):
        with pytest.raises(NetworkError, match="hop_time_s"):
            WormholeNetwork(
                Simulator(), MeshTopology(4), lambda d: None, hop_time_s=0.0
            )

    def test_negative_hop_time_rejected(self):
        with pytest.raises(NetworkError, match="hop_time_s"):
            WormholeNetwork(
                Simulator(), MeshTopology(4), lambda d: None, hop_time_s=-1e-9
            )

    def test_negative_process_time_rejected(self):
        with pytest.raises(NetworkError, match="process_time_s"):
            WormholeNetwork(
                Simulator(),
                MeshTopology(4),
                lambda d: None,
                process_time_s=-1e-9,
            )

    def test_messages_flow_with_zero_process_time(self):
        sim = Simulator()
        deliveries = []
        net = WormholeNetwork(
            sim, MeshTopology(4), deliveries.append, process_time_s=0.0
        )
        net.send(Message(0, 1, 50, "payload"))
        sim.run()
        assert len(deliveries) == 1


class TestLatencyFormula:
    def test_uncontended_latency_matches_paper(self):
        _, net, _ = make_network()
        # 2*ProcessTime + HopTime*(D+L), D=1, L=100
        expected = 2 * PROCESS_TIME_S + HOP_TIME_S * (1 + 100)
        assert net.uncontended_latency(0, 1, 100) == pytest.approx(expected)

    def test_single_message_arrives_at_formula_time(self):
        sim, net, deliveries = make_network()
        msg = Message(0, 1, 50, "payload")
        net.send(msg)
        sim.run()
        assert len(deliveries) == 1
        d = deliveries[0]
        assert d.arrive_time == pytest.approx(net.uncontended_latency(0, 1, 50))
        assert d.latency == d.arrive_time - d.inject_time

    def test_longer_messages_take_longer(self):
        _, net, _ = make_network()
        assert net.uncontended_latency(0, 1, 200) > net.uncontended_latency(0, 1, 50)

    def test_farther_destinations_take_longer(self):
        _, net, _ = make_network()
        assert net.uncontended_latency(0, 15, 50) > net.uncontended_latency(0, 1, 50)


class TestContention:
    def test_sequential_messages_on_same_link_queue(self):
        sim, net, deliveries = make_network()
        d1 = net.send(Message(0, 1, 100, "a"))
        d2 = net.send(Message(0, 1, 100, "b"))
        sim.run()
        assert d2.arrive_time > d1.arrive_time
        # the second message waited for the first train to clear the link
        assert d2.latency > net.uncontended_latency(0, 1, 100)

    def test_disjoint_routes_do_not_interfere(self):
        sim, net, _ = make_network()
        d1 = net.send(Message(0, 1, 100, "a"))
        d2 = net.send(Message(10, 11, 100, "b"))
        sim.run()
        assert d1.latency == pytest.approx(d2.latency)

    def test_inject_time_in_past_rejected(self):
        sim, net, _ = make_network()
        sim.at(1.0, lambda: None)
        sim.run()
        with pytest.raises(NetworkError):
            net.send(Message(0, 1, 10, "x"), inject_time=0.5)

    def test_self_delivery_loops_back_locally(self):
        """src == dst delivers after 2*ProcessTime with no link occupancy."""
        sim, net, deliveries = make_network()
        d = net.send(Message(0, 0, 10, "x"))
        sim.run()
        assert deliveries == [d]
        assert d.hops == 0
        assert d.latency == pytest.approx(2 * PROCESS_TIME_S)
        assert net.uncontended_latency(0, 0, 10) == pytest.approx(
            2 * PROCESS_TIME_S
        )
        # the loop-back never touched the network fabric
        assert math.fsum(net._link_busy_s) == 0.0

    def test_self_delivery_does_not_queue_behind_links(self):
        """A busy mesh cannot delay a local loop-back."""
        sim, net, _ = make_network()
        net.send(Message(0, 1, 5000, "big"))  # saturate node 0's X link
        d = net.send(Message(0, 0, 10, "x"))
        sim.run()
        assert d.latency == pytest.approx(2 * PROCESS_TIME_S)


class TestStats:
    def test_byte_accounting(self):
        sim, net, _ = make_network()
        net.send(Message(0, 1, 100, "a"))
        net.send(Message(0, 5, 50, "b"))
        sim.run()
        assert net.stats.n_messages == 2
        assert net.stats.total_bytes == 150
        assert net.stats.mbytes == pytest.approx(150 / 1e6)
        assert net.stats.total_hop_bytes == 100 * 1 + 50 * 2

    def test_kind_breakdown_uses_payload_kind(self):
        class P:
            def __init__(self, kind):
                self.kind = kind

        sim, net, _ = make_network()
        net.send(Message(0, 1, 100, P("alpha")))
        net.send(Message(0, 1, 30, P("alpha")))
        net.send(Message(0, 1, 9, P("beta")))
        sim.run()
        assert net.stats.bytes_by_kind == {"alpha": 130, "beta": 9}
        assert net.stats.messages_by_kind == {"alpha": 2, "beta": 1}

    def test_mean_latency(self):
        sim, net, _ = make_network()
        net.send(Message(0, 1, 100, "a"))
        sim.run()
        assert net.stats.mean_latency_s > 0
        assert net.stats.max_latency_s >= net.stats.mean_latency_s

    def test_rates_over_elapsed_time(self):
        sim, net, _ = make_network()
        net.send(Message(0, 1, 100, "a"))
        net.send(Message(0, 2, 50, "b"))
        sim.run()
        rates = net.stats.rates(2.0)
        assert rates["messages_per_s"] == pytest.approx(1.0)
        assert rates["bytes_per_s"] == pytest.approx(net.stats.total_bytes / 2.0)

    def test_rates_rejects_non_positive_elapsed(self):
        _, net, _ = make_network()
        with pytest.raises(ValueError):
            net.stats.rates(0.0)


class TestLinkUtilization:
    def test_busy_fraction_bounded(self):
        sim = Simulator()
        net = WormholeNetwork(sim, MeshTopology(4), lambda d: None)
        net.send(Message(0, 1, 100, None))
        end = sim.run()
        util = net.link_utilization(end)
        assert util.shape == (8,)
        assert 0.0 <= util.max() <= 1.0
        assert util.sum() > 0

    def test_requires_positive_elapsed(self):
        sim = Simulator()
        net = WormholeNetwork(sim, MeshTopology(4), lambda d: None)
        with pytest.raises(NetworkError):
            net.link_utilization(0.0)

    def test_hot_link_shows_up(self):
        sim = Simulator()
        net = WormholeNetwork(sim, MeshTopology(4), lambda d: None)
        for _ in range(10):
            net.send(Message(0, 1, 200, None))
        end = sim.run()
        util = net.link_utilization(end)
        hot = net.topology.link_id(0, MeshTopology.X_DIM)
        assert util[hot] == util.max()
        assert util[hot] > 0.5
