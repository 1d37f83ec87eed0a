"""Unit: retry policy backoff, read failover order, dedup cache, and
injector shutdown."""

from __future__ import annotations

import random

import pytest

from repro.cluster.node import NodeConfig, NodeServer
from repro.cluster.resilience import DedupCache, RetryPolicy
from repro.cluster.transport import FaultPlan
from repro.distsim.failures import FailureInjector
from repro.distsim.network import Network
from repro.distsim.simulator import Simulator
from repro.exceptions import ClusterError


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ClusterError):
            RetryPolicy(attempts=0)
        with pytest.raises(ClusterError):
            RetryPolicy(base_delay=-0.1)
        with pytest.raises(ClusterError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ClusterError):
            RetryPolicy(jitter=1.5)

    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(
            base_delay=0.1, multiplier=2.0, max_delay=0.5, jitter=0.0
        )
        rng = random.Random(0)
        delays = [policy.backoff(k, rng) for k in range(5)]
        assert delays[:3] == [0.1, 0.2, 0.4]
        assert delays[3] == delays[4] == 0.5  # capped

    def test_jitter_only_shrinks_and_is_deterministic(self):
        policy = RetryPolicy(base_delay=0.1, multiplier=1.0, jitter=0.5)

        def draw():
            rng = random.Random(42)
            return [policy.backoff(k, rng) for k in range(16)]

        first, second = draw(), draw()
        assert first == second
        assert all(0.05 <= delay <= 0.1 for delay in first)
        assert len(set(first)) > 1  # jitter actually varies

    def test_rng_for_streams_are_disjoint(self):
        policy = RetryPolicy(seed=3)
        a = [policy.rng_for(1).random() for _ in range(4)]
        b = [policy.rng_for(2).random() for _ in range(4)]
        assert a != b
        # ... but stable per node:
        assert a == [policy.rng_for(1).random() for _ in range(4)]

    def test_wire_round_trip(self):
        policy = RetryPolicy(
            attempts=6,
            base_delay=0.01,
            multiplier=3.0,
            max_delay=0.2,
            jitter=0.25,
            seed=11,
        )
        assert RetryPolicy.from_wire(policy.to_wire()) == policy
        # Absent fields keep their defaults ("no retries" ships as one).
        assert RetryPolicy.from_wire({"attempts": 1}) == RetryPolicy(attempts=1)


class TestReadFailoverOrder:
    """A remote read walks exactly ``probe_candidates()``, in order."""

    @staticmethod
    def _walk(protocol, node_id):
        node = NodeServer(
            NodeConfig(
                node_id=node_id,
                scheme={1, 2, 3},
                protocol=protocol,
                resilience=RetryPolicy(attempts=1),
            )
        )
        node.database.invalidate()  # no local copy: the read goes remote
        # An island: every request is lost, so the read fails over
        # through the real loss path until no candidate is left.
        node.transport.fault_plan = FaultPlan(
            partitions=(frozenset({node_id}),)
        )
        asked = []
        send = node.transport.send_protocol

        def recorded(message):
            asked.append(message.receiver)
            send(message)

        node.transport.send_protocol = recorded
        # Every loss settles at once, so the read fails before it returns.
        outcomes = []
        node.protocol.client_read(1, lambda *outcome: outcomes.append(outcome))
        ((version, error),) = outcomes
        assert version is None and isinstance(error, ClusterError)
        assert "no reachable copy" in str(error)
        assert node._pending == {}
        return asked, node.protocol.probe_candidates()

    @pytest.mark.parametrize(
        "protocol, node_id, expected",
        [
            ("SA", 4, [1, 2, 3]),  # outsider
            ("SA", 2, [1, 3]),  # member whose copy is invalid
            ("DA", 4, [1, 2, 3]),  # outsider: F ascending, then primary 3
            ("DA", 1, [2, 3]),  # core member without a copy
            ("DA", 3, [1, 2]),  # the primary without a copy
        ],
    )
    def test_client_read_walks_probe_candidates(self, protocol, node_id, expected):
        asked, candidates = self._walk(protocol, node_id)
        assert asked == candidates == expected


class TestDedupCache:
    def test_store_and_lookup(self):
        cache = DedupCache(capacity=4)
        cache.store(7, {"ok": True})
        assert 7 in cache
        assert cache.lookup(7) == {"ok": True}
        assert cache.lookup(8) is None

    def test_capacity_evicts_oldest(self):
        cache = DedupCache(capacity=2)
        cache.store(1, "a")
        cache.store(2, "b")
        cache.store(3, "c")
        assert 1 not in cache
        assert cache.lookup(2) == "b"
        assert cache.lookup(3) == "c"
        assert len(cache) == 2

    def test_overwrite_does_not_evict(self):
        cache = DedupCache(capacity=2)
        cache.store(1, "a")
        cache.store(2, "b")
        cache.store(1, "a2")  # refresh, not insert
        assert cache.lookup(1) == "a2"
        assert cache.lookup(2) == "b"

    def test_capacity_validated(self):
        with pytest.raises(ClusterError):
            DedupCache(capacity=0)


class TestFailureInjectorShutdown:
    def _network(self):
        simulator = Simulator()
        network = Network(simulator)
        network.add_nodes([1, 2, 3])
        return simulator, network

    def test_shutdown_cancels_pending_timers(self):
        simulator, network = self._network()
        injector = FailureInjector(network)
        injector.schedule_crash(1, delay=5.0)
        injector.schedule_crash(2, delay=6.0)
        injector.schedule_recovery(1, delay=9.0)
        assert injector.shutdown() == 3
        simulator.run()
        assert injector.crash_count == 0
        assert network.node(1).alive and network.node(2).alive

    def test_fired_timers_remove_themselves(self):
        simulator, network = self._network()
        injector = FailureInjector(network)
        injector.schedule_crash(1, delay=1.0)
        injector.schedule_recovery(1, delay=2.0)
        simulator.run()
        assert injector.crash_count == 1
        assert injector.recovery_count == 1
        assert injector.shutdown() == 0  # nothing left to cancel

    def test_shutdown_is_idempotent(self):
        simulator, network = self._network()
        injector = FailureInjector(network)
        injector.schedule_crash(3, delay=4.0)
        assert injector.shutdown() == 1
        assert injector.shutdown() == 0
