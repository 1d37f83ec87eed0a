"""Unit tests for the network and node layers (repro.distsim)."""

from __future__ import annotations

import pytest

from repro.distsim.messages import (
    DataTransfer,
    Invalidate,
    MessageClass,
    ReadRequest,
)
from repro.distsim.network import Network
from repro.distsim.simulator import Simulator
from repro.distsim.statistics import SimulationStats
from repro.exceptions import ConfigurationError, ProtocolError
from repro.model.accounting import CostBreakdown
from repro.model.cost_model import mobile, stationary
from repro.storage.versions import ObjectVersion


class Recorder:
    """Message handler that records deliveries."""

    def __init__(self):
        self.received = []

    def on_message(self, node, message):
        self.received.append((node.node_id, message))


def make_network():
    network = Network(Simulator(), control_latency=1.0, data_latency=3.0)
    nodes = network.add_nodes([1, 2, 3])
    recorder = Recorder()
    for node in nodes:
        node.attach_handler(recorder)
    return network, recorder


class TestTopology:
    def test_duplicate_node_rejected(self):
        network, _ = make_network()
        with pytest.raises(ConfigurationError):
            network.add_node(1)

    def test_unknown_node_rejected(self):
        network, _ = make_network()
        with pytest.raises(ConfigurationError):
            network.node(99)

    def test_live_nodes_excludes_crashed(self):
        network, _ = make_network()
        network.node(2).crash()
        assert [n.node_id for n in network.live_nodes()] == [1, 3]

    def test_negative_latency_rejected(self):
        with pytest.raises(ConfigurationError):
            Network(Simulator(), control_latency=-1.0)


class TestTransmission:
    def test_control_messages_counted_and_delivered(self):
        network, recorder = make_network()
        network.send(ReadRequest(1, 2, request_id=7))
        network.simulator.run()
        assert network.stats.control_messages == 1
        assert network.stats.data_messages == 0
        assert recorder.received[0][0] == 2

    def test_data_messages_counted_separately(self):
        network, _ = make_network()
        network.send(DataTransfer(1, 2, version=ObjectVersion(0, 1)))
        network.simulator.run()
        assert network.stats.data_messages == 1
        assert network.stats.control_messages == 0

    def test_message_classes(self):
        assert ReadRequest(1, 2).message_class is MessageClass.CONTROL
        assert Invalidate(1, 2).message_class is MessageClass.CONTROL
        assert DataTransfer(1, 2).message_class is MessageClass.DATA

    def test_latency_by_class(self):
        network, _ = make_network()
        network.send(ReadRequest(1, 2))
        network.simulator.run()
        assert network.simulator.now == 1.0
        network.send(DataTransfer(2, 1))
        network.simulator.run()
        assert network.simulator.now == 4.0

    def test_self_messages_rejected(self):
        network, _ = make_network()
        with pytest.raises(ProtocolError):
            network.send(ReadRequest(1, 1))

    def test_unknown_endpoints_rejected(self):
        network, _ = make_network()
        with pytest.raises(ProtocolError):
            network.send(ReadRequest(1, 99))
        with pytest.raises(ProtocolError):
            network.send(ReadRequest(99, 1))

    def test_messages_to_crashed_nodes_dropped_but_charged(self):
        network, recorder = make_network()
        network.node(2).crash()
        network.send(ReadRequest(1, 2))
        network.simulator.run()
        assert network.stats.control_messages == 1  # the sender transmitted
        assert network.stats.dropped_messages == 1
        assert recorder.received == []

    def test_drop_listener_notified(self):
        network, _ = make_network()
        drops = []

        class Listener:
            def on_dropped(self, message):
                drops.append(message)

        network.drop_listener = Listener()
        network.node(2).crash()
        network.send(ReadRequest(1, 2, request_id=9))
        network.simulator.run()
        assert len(drops) == 1
        assert drops[0].request_id == 9

    def test_on_delivered_hook(self):
        network, _ = make_network()
        delivered = []
        network.send(ReadRequest(1, 2), on_delivered=lambda: delivered.append(1))
        network.simulator.run()
        assert delivered == [1]

    def test_reset_stats(self):
        network, _ = make_network()
        network.send(ReadRequest(1, 2))
        network.simulator.run()
        network.reset_stats()
        assert network.stats.control_messages == 0


class TestNode:
    def test_io_counts_into_network_stats(self):
        network, _ = make_network()
        node = network.node(1)
        node.output_object(ObjectVersion(1, writer=1))
        node.input_object()
        assert network.stats.io_writes == 1
        assert network.stats.io_reads == 1

    def test_input_any_object_reads_an_invalid_copy_charged(self):
        network, _ = make_network()
        node = network.node(1)
        node.output_object(ObjectVersion(1, writer=1))
        node.invalidate_copy()
        assert node.input_any_object() == ObjectVersion(1, writer=1)
        assert network.stats.io_reads == 1

    def test_seed_copy_uncharged(self):
        network, _ = make_network()
        network.node(1).seed_copy(ObjectVersion(0, writer=1))
        assert network.stats.io_writes == 0
        assert network.node(1).holds_valid_copy

    def test_crash_wipes_volatile_state(self):
        network, _ = make_network()
        node = network.node(1)
        node.volatile["join_list"] = {5}
        node.crash()
        assert node.volatile == {}
        assert not node.alive

    def test_delivery_to_crashed_node_is_a_bug(self):
        network, _ = make_network()
        node = network.node(1)
        node.crash()
        with pytest.raises(ProtocolError):
            node.deliver(ReadRequest(2, 1))

    def test_delivery_without_handler_is_a_bug(self):
        network = Network(Simulator())
        node = network.add_node(1)
        with pytest.raises(ProtocolError):
            node.deliver(ReadRequest(2, 1))


class TestStatistics:
    def test_breakdown_bridges_to_model_layer(self):
        stats = SimulationStats(
            control_messages=2, data_messages=3, io_reads=4, io_writes=1
        )
        assert stats.breakdown() == CostBreakdown(
            io_ops=5, control_messages=2, data_messages=3
        )

    def test_cost_under_both_models(self):
        stats = SimulationStats(
            control_messages=2, data_messages=3, io_reads=4, io_writes=1
        )
        assert stats.cost(stationary(0.5, 2.0)) == pytest.approx(5 + 1 + 6)
        assert stats.cost(mobile(0.5, 2.0)) == pytest.approx(1 + 6)

    def test_delta(self):
        stats = SimulationStats(control_messages=1, io_reads=1)
        later = stats.snapshot()
        later.control_messages += 2
        later.io_writes += 1
        assert later.delta(stats) == CostBreakdown(
            io_ops=1, control_messages=2, data_messages=0
        )

    def test_latency_summaries(self):
        stats = SimulationStats(latencies=[1.0, 3.0])
        assert stats.mean_latency == 2.0
        assert stats.max_latency == 3.0
        assert SimulationStats().mean_latency is None
