"""Unit tests for the discrete-event network substrate."""

import numpy as np
import pytest

from repro.exceptions import ProtocolError, SimulationError
from repro.net.cluster import Cluster
from repro.net.events import EventEngine
from repro.net.links import ConstantLatency, Link, LogNormalLatency, UniformLatency
from repro.net.message import Message, scalar_payload_size
from repro.net.node import Node


class TestEventEngine:
    def test_fifo_at_same_time(self):
        engine = EventEngine()
        order = []
        engine.schedule(0.0, lambda: order.append("a"))
        engine.schedule(0.0, lambda: order.append("b"))
        engine.run()
        assert order == ["a", "b"]

    def test_time_ordering(self):
        engine = EventEngine()
        order = []
        engine.schedule(2.0, lambda: order.append("late"))
        engine.schedule(1.0, lambda: order.append("early"))
        engine.run()
        assert order == ["early", "late"]
        assert engine.now == 2.0

    def test_nested_scheduling(self):
        engine = EventEngine()
        seen = []
        engine.schedule(1.0, lambda: engine.schedule(1.0, lambda: seen.append(engine.now)))
        engine.run()
        assert seen == [2.0]

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            EventEngine().schedule(-1.0, lambda: None)

    def test_event_budget(self):
        engine = EventEngine()

        def loop():
            engine.schedule(1.0, loop)

        engine.schedule(0.0, loop)
        with pytest.raises(SimulationError):
            engine.run(max_events=10)

    def test_reset(self):
        engine = EventEngine()
        engine.schedule(5.0, lambda: None)
        engine.reset()
        assert engine.run() == 0
        assert engine.now == 0.0


class TestLinks:
    def test_constant(self):
        assert ConstantLatency(0.5).sample() == 0.5

    def test_uniform_in_range(self):
        model = UniformLatency(0.1, 0.2, np.random.default_rng(0))
        for _ in range(100):
            assert 0.1 <= model.sample() <= 0.2

    def test_lognormal_positive(self):
        model = LogNormalLatency(0.01, 0.5, np.random.default_rng(0))
        assert all(model.sample() > 0 for _ in range(100))

    def test_bandwidth_adds_transmit_time(self):
        link = Link(ConstantLatency(0.1), bandwidth_bps=8000.0)
        assert link.delay(1000) == pytest.approx(0.1 + 1.0)

    def test_default_zero_delay(self):
        assert Link().delay(10**6) == 0.0

    def test_invalid_parameters(self):
        with pytest.raises(SimulationError):
            ConstantLatency(-1.0)
        with pytest.raises(SimulationError):
            Link(bandwidth_bps=0.0)

    def test_upper_bounds(self):
        assert ConstantLatency(0.5).upper_bound == 0.5
        assert UniformLatency(0.1, 0.2, np.random.default_rng(0)).upper_bound == 0.2
        lognormal = LogNormalLatency(0.01, 0.5, np.random.default_rng(0))
        assert lognormal.upper_bound == float("inf")

    def test_max_delay_bounds_every_draw_and_adds_transmit_time(self):
        link = Link(
            UniformLatency(0.1, 0.2, np.random.default_rng(0)),
            bandwidth_bps=8000.0,
        )
        assert link.max_delay(1000) == 0.2 + 1.0
        assert all(link.delay(1000) <= link.max_delay(1000) for _ in range(200))
        assert Link().max_delay(10**6) == 0.0


class TestMessage:
    def test_payload_size_per_scalar(self):
        assert scalar_payload_size({"a": 1.0, "b": 2}) == 16

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            Message(0, 1, "t", {}, size_bytes=-1, send_time=0.0)


class TestClusterRouting:
    def _cluster(self, link=None):
        a, b = Node(0), Node(1)
        cluster = Cluster([a, b], default_link=link)
        return cluster, a, b

    def test_message_delivered_to_handler(self):
        cluster, a, b = self._cluster()
        seen = []
        b.on("ping", lambda m: seen.append(m.payload["v"]))
        a.send(1, "ping", {"v": 42.0})
        cluster.run()
        assert seen == [42.0]
        assert b.received_count == 1

    def test_unhandled_tag_raises(self):
        cluster, a, b = self._cluster()
        a.send(1, "mystery", {})
        with pytest.raises(ProtocolError):
            cluster.run()

    def test_self_message_rejected(self):
        cluster, a, _ = self._cluster()
        with pytest.raises(ProtocolError):
            a.send(0, "ping", {})

    def test_broadcast_reaches_everyone_else(self):
        nodes = [Node(i) for i in range(4)]
        cluster = Cluster(nodes)
        seen = []
        for node in nodes:
            node.on("hello", lambda m, nid=node.node_id: seen.append(nid))
        nodes[0].broadcast("hello", {})
        cluster.run()
        assert sorted(seen) == [1, 2, 3]

    def test_metrics_count_messages_and_bytes(self):
        cluster, a, b = self._cluster()
        b.on("ping", lambda m: None)
        a.send(1, "ping", {"v": 1.0}, round_index=7)
        a.send(1, "ping2", {"v": 1.0, "w": 2.0}, round_index=7)
        b.on("ping2", lambda m: None)
        cluster.run()
        assert cluster.metrics.messages_total == 2
        assert cluster.metrics.bytes_total == 24
        assert cluster.metrics.messages_in_round(7) == 2
        assert cluster.metrics.per_pair_messages[(0, 1)] == 2

    def test_link_latency_orders_delivery(self):
        nodes = [Node(0), Node(1), Node(2)]
        cluster = Cluster(nodes)
        cluster.set_link(0, 1, Link(ConstantLatency(1.0)))
        cluster.set_link(0, 2, Link(ConstantLatency(0.1)))
        arrivals = []
        nodes[1].on("m", lambda m: arrivals.append(1))
        nodes[2].on("m", lambda m: arrivals.append(2))
        nodes[0].send(1, "m", {})
        nodes[0].send(2, "m", {})
        cluster.run()
        assert arrivals == [2, 1]

    def test_duplicate_node_ids_rejected(self):
        with pytest.raises(SimulationError):
            Cluster([Node(0), Node(0)])

    def test_duplicate_handler_rejected(self):
        node = Node(0)
        node.on("x", lambda m: None)
        with pytest.raises(ProtocolError):
            node.on("x", lambda m: None)

    def test_unknown_destination(self):
        cluster, a, _ = self._cluster()
        with pytest.raises(ProtocolError):
            a.send(9, "ping", {})

    def test_unattached_node_cannot_send(self):
        with pytest.raises(ProtocolError):
            Node(7).send(0, "x", {})


class TestColocation:
    def test_colocated_messages_bypass_metrics(self):
        a, b = Node(0), Node(1)
        cluster = Cluster([a, b])
        cluster.colocate(0, 1)
        b.on("x", lambda m: None)
        a.send(1, "x", {"v": 1.0})
        cluster.run()
        assert cluster.metrics.messages_total == 0
        assert b.received_count == 1

    def test_colocation_is_symmetric(self):
        a, b = Node(0), Node(1)
        cluster = Cluster([a, b])
        cluster.colocate(1, 0)
        assert cluster.is_colocated(0, 1)

    def test_colocated_delivery_ignores_lossy_default_link(self):
        class AlwaysDrop:
            def random(self):
                return 0.0

        link = Link(loss_probability=0.5, loss_rng=AlwaysDrop())
        a, b = Node(0), Node(1)
        cluster = Cluster([a, b], default_link=link, max_retransmits=1)
        cluster.colocate(0, 1)
        seen = []
        b.on("x", lambda m: seen.append(1))
        a.send(1, "x", {})
        cluster.run()
        assert seen == [1]

    def test_self_colocation_rejected(self):
        cluster = Cluster([Node(0), Node(1)])
        with pytest.raises(ProtocolError):
            cluster.colocate(0, 0)
