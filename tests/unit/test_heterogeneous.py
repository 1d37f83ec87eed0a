"""Unit tests for the heterogeneous-cost extension (paper §6).

The load-bearing property: with constant prices, every heterogeneous
component (cost model, nearest-server algorithms, offline optimum)
reproduces its homogeneous counterpart exactly.  Then genuinely
heterogeneous scenarios check that prices actually steer decisions.
"""

from __future__ import annotations

import pytest

from repro.core.dynamic_allocation import DynamicAllocation
from repro.core.nearest import NearestServerDynamic, NearestServerStatic
from repro.core.offline_optimal import OfflineOptimal
from repro.core.static_allocation import StaticAllocation
from repro.exceptions import ConfigurationError
from repro.model.cost_model import stationary
from repro.model.heterogeneous import HeterogeneousCostModel, homogeneous
from repro.model.request import ExecutedRequest, read, write
from repro.model.schedule import Schedule
from repro.workloads.uniform import UniformWorkload

SCHEME = frozenset({1, 2})
HOMOGENEOUS = homogeneous(1.0, 0.2, 1.5)
REFERENCE = stationary(0.2, 1.5)


class TestValidation:
    def test_negative_prices_rejected(self):
        with pytest.raises(ConfigurationError):
            HeterogeneousCostModel(default_io=-1.0)
        with pytest.raises(ConfigurationError):
            HeterogeneousCostModel(io_costs={1: -0.5})

    def test_default_control_above_data_rejected(self):
        with pytest.raises(ConfigurationError):
            HeterogeneousCostModel(default_c_c=2.0, default_c_d=1.0)

    def test_per_link_control_above_data_rejected(self):
        with pytest.raises(ConfigurationError):
            HeterogeneousCostModel(
                default_c_d=1.0, control_costs={(1, 2): 5.0}
            )

    def test_per_link_data_below_default_control_rejected(self):
        # Only the data price of the link is overridden: its resolved
        # control price (the default) still exceeds it.
        with pytest.raises(ConfigurationError):
            HeterogeneousCostModel(
                default_c_c=0.2, default_c_d=1.0, data_costs={(1, 5): 0.1}
            )

    def test_nearest_server_needs_candidates(self):
        with pytest.raises(ConfigurationError):
            HOMOGENEOUS.nearest_server(1, [])


class TestHomogeneousEquivalence:
    @pytest.mark.parametrize(
        "executed,scheme",
        [
            (ExecutedRequest(read(1), {1}), frozenset({1, 2})),
            (ExecutedRequest(read(5), {1}), frozenset({1, 2})),
            (ExecutedRequest(read(5), {1}, saving=True), frozenset({1, 2})),
            (ExecutedRequest(read(5), {1, 2}), frozenset({1, 2})),
            (ExecutedRequest(write(1), {1, 2}), frozenset({1, 2, 3})),
            (ExecutedRequest(write(9), {1, 2}), frozenset({1, 2, 3})),
        ],
    )
    def test_request_costs_match_homogeneous_model(self, executed, scheme):
        assert HOMOGENEOUS.request_cost(executed, scheme) == pytest.approx(
            REFERENCE.request_cost(executed, scheme)
        )

    def test_schedule_cost_matches(self):
        schedule = UniformWorkload(range(1, 6), 40, 0.3).generate(2)
        allocation = DynamicAllocation(SCHEME, primary=2).run(schedule)
        assert HOMOGENEOUS.schedule_cost(allocation) == pytest.approx(
            REFERENCE.schedule_cost(allocation)
        )

    def test_nearest_variants_match_originals(self):
        schedule = UniformWorkload(range(1, 6), 40, 0.3).generate(4)
        plain_sa = StaticAllocation(SCHEME).run(schedule)
        near_sa = NearestServerStatic(SCHEME, HOMOGENEOUS).run(schedule)
        assert REFERENCE.schedule_cost(plain_sa) == pytest.approx(
            HOMOGENEOUS.schedule_cost(near_sa)
        )
        plain_da = DynamicAllocation(SCHEME, primary=2).run(schedule)
        near_da = NearestServerDynamic(SCHEME, HOMOGENEOUS, primary=2).run(
            schedule
        )
        assert REFERENCE.schedule_cost(plain_da) == pytest.approx(
            HOMOGENEOUS.schedule_cost(near_da)
        )

    @pytest.mark.parametrize(
        "text",
        ["r5 r5 w1 r5", "w3 r4 r4 w4 r3", "r5 r6 w1 r5 r6"],
    )
    def test_optimum_matches_homogeneous_solver(self, text):
        schedule = Schedule.parse(text)
        hetero = OfflineOptimal(HOMOGENEOUS).optimal_cost(schedule, SCHEME)
        homo = OfflineOptimal(REFERENCE).optimal_cost(schedule, SCHEME)
        assert hetero == pytest.approx(homo)


class TestHeterogeneousBehaviour:
    def wireless_model(self):
        """Node 9 sits behind an expensive wireless link."""
        expensive = {(9, s): 2.0 for s in (1, 2, 3)}
        expensive.update({(s, 9): 2.0 for s in (1, 2, 3)})
        data = {(9, s): 8.0 for s in (1, 2, 3)}
        data.update({(s, 9): 8.0 for s in (1, 2, 3)})
        return HeterogeneousCostModel(
            default_io=1.0,
            default_c_c=0.2,
            default_c_d=1.0,
            control_costs=expensive,
            data_costs=data,
        )

    def test_nearest_server_prefers_cheap_links(self):
        costs = HeterogeneousCostModel(
            default_c_c=0.2,
            default_c_d=1.0,
            data_costs={(2, 5): 0.1, (5, 2): 0.1},
            control_costs={(2, 5): 0.1, (5, 2): 0.1},
        )
        # Reading from 2 is far cheaper for 5 than reading from 1.
        assert costs.nearest_server(5, [1, 2]) == 2

    def test_nearest_sa_beats_naive_sa_under_skewed_prices(self):
        costs = HeterogeneousCostModel(
            default_c_c=0.2,
            default_c_d=1.0,
            data_costs={(1, 5): 9.0},  # server 1 is terrible for reader 5
        )
        schedule = Schedule.parse("r5 r5 r5 r5")
        naive = StaticAllocation(SCHEME).run(schedule)  # always uses min(Q)=1
        nearest = NearestServerStatic(SCHEME, costs).run(schedule)
        assert costs.schedule_cost(nearest) < costs.schedule_cost(naive)

    def test_optimum_avoids_replicating_over_wireless(self):
        costs = self.wireless_model()
        # Writer 3 writes; 9 never reads: the optimum should never pay
        # the wireless data price by putting 9 in an execution set.
        schedule = Schedule.parse("w3 r4 r4 w3 r4")
        result = OfflineOptimal(costs).solve(schedule, frozenset({1, 2}))
        for step in result.allocation:
            assert 9 not in step.execution_set

    def test_wireless_reader_still_served_correctly(self):
        costs = self.wireless_model()
        schedule = Schedule.parse("r9 r9 r9")
        result = OfflineOptimal(costs).solve(schedule, frozenset({1, 2}))
        result.allocation.check_legal()
        # Three wireless fetches cost more than save-once-then-local:
        # the optimum saves at 9 despite the expensive first transfer.
        assert 9 in result.allocation.final_scheme

    def test_asymmetric_links_respected(self):
        costs = HeterogeneousCostModel(
            default_c_c=0.1,
            default_c_d=1.0,
            data_costs={(1, 5): 0.2},  # downlink cheap, uplink default
        )
        assert costs.data(1, 5) == 0.2
        assert costs.data(5, 1) == 1.0

    def test_per_node_io_prices(self):
        costs = HeterogeneousCostModel(default_io=1.0, io_costs={7: 5.0})
        local_read = ExecutedRequest(read(7), {7})
        assert costs.request_cost(local_read, frozenset({7, 1})) == 5.0
