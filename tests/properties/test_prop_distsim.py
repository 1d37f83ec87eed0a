"""Property-based tests: the simulator agrees with the model everywhere.

For arbitrary schedules, the discrete-event SA and DA protocols must
produce per-request (I/O, control, data) counts identical to the
analytic model's breakdowns.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.core.dynamic_allocation import DynamicAllocation
from repro.core.static_allocation import StaticAllocation
from repro.distsim.protocols.da_protocol import DynamicAllocationProtocol
from repro.distsim.protocols.sa_protocol import StaticAllocationProtocol
from repro.distsim.runner import build_network, compare_with_model, mismatches
from repro.model.cost_model import mobile, stationary
from tests.properties.strategies import schedules

SCHEME = frozenset({1, 2})
ALL_NODES = frozenset(range(1, 7))


@given(schedule=schedules())
@settings(max_examples=40, deadline=None)
def test_sa_protocol_matches_model_per_request(schedule):
    network = build_network(ALL_NODES)
    protocol = StaticAllocationProtocol(network, SCHEME)
    comparisons = compare_with_model(
        protocol, StaticAllocation(SCHEME), schedule
    )
    assert mismatches(comparisons) == []


@given(schedule=schedules())
@settings(max_examples=40, deadline=None)
def test_da_protocol_matches_model_per_request(schedule):
    network = build_network(ALL_NODES)
    protocol = DynamicAllocationProtocol(network, SCHEME, primary=2)
    comparisons = compare_with_model(
        protocol, DynamicAllocation(SCHEME, primary=2), schedule
    )
    assert mismatches(comparisons) == []


@given(schedule=schedules())
@settings(max_examples=30, deadline=None)
def test_da_protocol_scheme_tracks_model_scheme(schedule):
    network = build_network(ALL_NODES)
    protocol = DynamicAllocationProtocol(network, SCHEME, primary=2)
    algorithm = DynamicAllocation(SCHEME, primary=2)
    algorithm.reset()
    for request in schedule:
        protocol.execute_request(request)
        algorithm.online_step(request)
        assert protocol.current_scheme() == algorithm.current_scheme
        # The nodes holding valid copies are exactly the scheme.
        holders = {
            node_id
            for node_id in ALL_NODES
            if network.node(node_id).holds_valid_copy
        }
        assert holders == algorithm.current_scheme


@pytest.mark.parametrize("t", [2, 3, 4])
@given(schedule=schedules())
@settings(max_examples=25, deadline=None)
def test_da_final_scheme_matches_model_for_every_t(t, schedule):
    """The protocol's final allocation scheme equals the stepped core
    algorithm's for any window size t, and the agreement prices out
    identically under both the stationary (SC) and mobile (MC) models."""
    scheme = frozenset(range(1, t + 1))
    network = build_network(ALL_NODES)
    protocol = DynamicAllocationProtocol(network, scheme, primary=t)
    algorithm = DynamicAllocation(scheme, primary=t)
    protocol.execute(schedule)
    result = algorithm.run(schedule)

    assert protocol.current_scheme() == algorithm.current_scheme

    live = network.stats.breakdown()
    stepped = result.total_breakdown()
    for model in (stationary(0.25, 1.0), mobile(0.5, 2.0)):
        assert model.price(live) == pytest.approx(model.price(stepped))
