"""Unit: fault plans, per-node metrics and their aggregation."""

from __future__ import annotations

import json
from dataclasses import fields

import pytest

from repro.cluster.metrics import (
    NodeMetrics,
    aggregate,
    durability_totals,
    latency_histogram,
    percentile,
    resilience_totals,
)
from repro.cluster.transport import FaultPlan
from repro.distsim.messages import DataTransfer, Invalidate, ReadRequest
from repro.exceptions import ClusterError
from repro.storage.versions import ObjectVersion


class TestFaultPlan:
    def test_defaults_do_nothing(self):
        plan = FaultPlan()
        assert plan.delay_for(1, 2) == 0.0
        assert not plan.should_drop(1, 2)

    def test_link_delay_overrides_default(self):
        plan = FaultPlan(default_delay=0.5, link_delays={(1, 2): 0.1})
        assert plan.delay_for(1, 2) == 0.1
        assert plan.delay_for(2, 1) == 0.5

    def test_negative_delay_rejected(self):
        with pytest.raises(ClusterError):
            FaultPlan(default_delay=-1.0)
        with pytest.raises(ClusterError):
            FaultPlan(link_delays={(1, 2): -0.1})

    @pytest.mark.parametrize("delay", ["nan", "inf", "-inf"])
    def test_non_finite_delay_rejected_from_the_wire(self, delay):
        with pytest.raises(ClusterError):
            FaultPlan.from_wire({"default_delay": delay})
        with pytest.raises(ClusterError):
            FaultPlan.from_wire({"link_delays": [[1, 2, delay]]})

    def test_drop_next_consumes_budget(self):
        plan = FaultPlan(drop_next={(1, 2): 2})
        assert plan.should_drop(1, 2)
        assert plan.should_drop(1, 2)
        assert not plan.should_drop(1, 2)  # budget spent
        assert not plan.should_drop(2, 1)  # other direction untouched

    def test_blocked_link_is_directional(self):
        plan = FaultPlan(blocked_links=frozenset({(1, 2)}))
        assert plan.should_drop(1, 2)
        assert not plan.should_drop(2, 1)

    def test_partition_drops_across_groups_only(self):
        plan = FaultPlan(
            partitions=(frozenset({1, 2}), frozenset({3}))
        )
        assert not plan.crosses_partition(1, 2)
        assert plan.crosses_partition(1, 3)
        assert plan.should_drop(2, 3)
        assert not plan.should_drop(2, 1)

    def test_unlisted_nodes_are_islands(self):
        plan = FaultPlan(partitions=(frozenset({1, 2}),))
        assert plan.crosses_partition(1, 4)
        assert plan.crosses_partition(4, 5)  # two islands differ too

    def test_probabilistic_drop_is_seed_deterministic(self):
        def draw(seed):
            plan = FaultPlan(drop_probability=0.5, seed=seed)
            return tuple(plan.should_drop(1, 2) for _ in range(32))

        decisions = [draw(7), draw(7)]
        assert decisions[0] == decisions[1]
        assert any(decisions[0]) and not all(decisions[0])

    def test_probability_bounds_enforced(self):
        with pytest.raises(ClusterError):
            FaultPlan(drop_probability=1.5)

    def test_wire_round_trip(self):
        plan = FaultPlan(
            default_delay=0.01,
            link_delays={(1, 2): 0.2},
            blocked_links=frozenset({(2, 3)}),
            drop_next={(3, 1): 4},
            drop_probability=0.25,
            seed=9,
            partitions=(frozenset({1}), frozenset({2, 3})),
        )
        clone = FaultPlan.from_wire(plan.to_wire())
        assert clone.default_delay == plan.default_delay
        assert clone.link_delays == plan.link_delays
        assert clone.blocked_links == plan.blocked_links
        assert clone.drop_next == plan.drop_next
        assert clone.drop_probability == plan.drop_probability
        assert clone.seed == plan.seed
        assert clone.partitions == plan.partitions

    def test_wire_form_is_json_clean(self):
        import json

        plan = FaultPlan(
            link_delays={(1, 2): 0.2}, partitions=(frozenset({1, 2}),)
        )
        json.dumps(plan.to_wire())

    def test_partially_consumed_budget_survives_wire_round_trip(self):
        # A retrying sender re-installs plans mid-run: the decremented
        # drop_next budgets must serialize as-is, not reset.
        plan = FaultPlan(drop_next={(1, 2): 3, (2, 1): 1})
        assert plan.should_drop(1, 2)
        assert plan.should_drop(2, 1)
        clone = FaultPlan.from_wire(plan.to_wire())
        assert clone.drop_next == {(1, 2): 2, (2, 1): 0}

    def test_budget_exhaustion_after_round_trip(self):
        plan = FaultPlan(drop_next={(1, 2): 2})
        assert plan.should_drop(1, 2)
        clone = FaultPlan.from_wire(plan.to_wire())
        assert clone.should_drop(1, 2)  # one unit of budget left
        assert not clone.should_drop(1, 2)  # now spent
        assert not clone.should_drop(1, 2)  # and stays spent


class TestNodeMetrics:
    def test_charges_by_message_class(self):
        metrics = NodeMetrics(node_id=1)
        metrics.charge_message(ReadRequest(1, 2, request_id=1))
        metrics.charge_message(Invalidate(1, 3, request_id=1))
        metrics.charge_message(
            DataTransfer(1, 2, version=ObjectVersion(1, 1), request_id=2)
        )
        assert metrics.control_sent == 2
        assert metrics.data_sent == 1

    def test_wire_round_trip(self):
        metrics = NodeMetrics(
            node_id=4,
            control_sent=3,
            data_sent=2,
            io_reads=5,
            io_writes=6,
            dropped_messages=1,
            requests_completed=7,
            request_errors=1,
        )
        assert NodeMetrics.from_wire(metrics.to_wire()) == metrics

    def test_wire_round_trip_covers_every_field(self):
        # Distinct values per field, generated from the declaration, so a
        # newly added counter is exercised without touching this test.
        values = {
            f.name: index + 1 for index, f in enumerate(fields(NodeMetrics))
        }
        metrics = NodeMetrics(**values)
        wire = json.loads(json.dumps(metrics.to_wire()))
        assert set(wire) == {f.name for f in fields(NodeMetrics)}
        assert all(type(value) is int for value in wire.values())
        assert NodeMetrics.from_wire(wire) == metrics

    @pytest.mark.parametrize(
        "name", [f.name for f in fields(NodeMetrics)]
    )
    def test_from_wire_rejects_a_missing_field(self, name):
        wire = NodeMetrics(node_id=1).to_wire()
        del wire[name]
        with pytest.raises(ClusterError, match=name):
            NodeMetrics.from_wire(wire)

    def test_totals_groups_hold_exactly_their_tagged_counters(self):
        def tagged(group):
            return {
                f.name for f in fields(NodeMetrics)
                if f.metadata.get("group") == group
            }

        one = NodeMetrics(1, **{name: 1 for name in tagged("resilience")})
        two = NodeMetrics(2, **{name: 2 for name in tagged("durability")})
        resilience = resilience_totals([one, two])
        durability = durability_totals([one, two])
        assert set(resilience) == tagged("resilience") == {
            "retries_sent", "repairs_sent", "repairs_received",
            "dedup_hits", "degraded_rejections",
        }
        assert set(durability) == tagged("durability") == {
            "wal_appends", "wal_replayed", "wal_truncations",
            "snapshots_written", "fresh_rejoins",
        }
        assert set(resilience.values()) == {1}
        assert set(durability.values()) == {2}

    def test_aggregate_sums_counters_in_node_order(self):
        one = NodeMetrics(1, control_sent=1, data_sent=2, io_reads=3,
                          io_writes=4, requests_completed=5)
        two = NodeMetrics(2, control_sent=10, data_sent=20, io_reads=30,
                          io_writes=40, dropped_messages=2,
                          requests_completed=50)
        stats = aggregate([two, one])  # order-insensitive input
        assert stats.control_messages == 11
        assert stats.data_messages == 22
        assert stats.io_reads == 33
        assert stats.io_writes == 44
        assert stats.dropped_messages == 2
        assert stats.requests_completed == 55
        assert stats.latencies == []  # the client times requests

    def test_aggregate_breakdown_bridges_to_model_types(self):
        stats = aggregate([NodeMetrics(1, control_sent=2, data_sent=1,
                                       io_reads=3, io_writes=1)])
        breakdown = stats.breakdown()
        assert breakdown.io_ops == 4
        assert breakdown.control_messages == 2
        assert breakdown.data_messages == 1


class TestLatencyStatistics:
    def test_empty_series_yields_no_buckets(self):
        assert latency_histogram([]) == []

    def test_constant_series_collapses_to_one_bucket(self):
        assert latency_histogram([0.5, 0.5, 0.5]) == [(0.5, 3)]

    def test_counts_partition_the_series(self):
        values = [i / 10 for i in range(20)]
        histogram = latency_histogram(values, buckets=4)
        assert len(histogram) == 4
        assert sum(count for _, count in histogram) == len(values)
        uppers = [upper for upper, _ in histogram]
        assert uppers == sorted(uppers)

    def test_bucket_count_validated(self):
        with pytest.raises(ValueError):
            latency_histogram([1.0], buckets=0)

    def test_percentiles(self):
        values = [float(i) for i in range(1, 101)]
        assert percentile(values, 0.5) == 50.0
        assert percentile(values, 0.95) == 95.0
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 1.0) == 100.0

    def test_percentile_validates(self):
        with pytest.raises(ValueError):
            percentile([], 0.5)
        with pytest.raises(ValueError):
            percentile([1.0], 1.5)
