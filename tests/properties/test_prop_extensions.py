"""Property-based tests for the extension modules.

* Heterogeneous model with constant prices ≡ homogeneous model, on
  arbitrary executed requests and whole allocation schedules.
* The offline optimum under arbitrary per-node and per-link prices is
  legal, t-available, prices to its reported cost and is no dearer
  than SA, DA or their nearest-server variants.
* Linearization invariance (§3.1's "almost verbatim" claim) on
  arbitrary schedules for SA, DA and the offline optimum.
* The multi-object directory composes: total cost equals the sum of
  standalone single-object runs, for arbitrary per-object schedules.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dynamic_allocation import DynamicAllocation
from repro.core.multi import ObjectDirectory, ObjectRequest, interleave
from repro.core.nearest import NearestServerDynamic, NearestServerStatic
from repro.core.offline_optimal import OfflineOptimal
from repro.core.static_allocation import StaticAllocation
from repro.model.cost_model import stationary
from repro.model.heterogeneous import homogeneous
from repro.model.partial_order import PartialSchedule
from tests.properties.strategies import (
    feasible_prices,
    heterogeneous_models,
    schedules,
)

SCHEME = frozenset({1, 2})


@given(schedule=schedules(), prices=feasible_prices())
@settings(max_examples=40, deadline=None)
def test_heterogeneous_equals_homogeneous_for_constant_prices(
    schedule, prices
):
    c_c, c_d = prices
    hetero = homogeneous(1.0, c_c, c_d)
    homo = stationary(c_c, c_d)
    for algorithm in (
        StaticAllocation(SCHEME),
        DynamicAllocation(SCHEME, primary=2),
    ):
        allocation = algorithm.run(schedule)
        assert hetero.schedule_cost(allocation) == pytest.approx(
            homo.schedule_cost(allocation)
        )


@given(schedule=schedules(max_length=8), prices=feasible_prices())
@settings(max_examples=25, deadline=None)
def test_heterogeneous_optimum_equals_homogeneous_for_constant_prices(
    schedule, prices
):
    c_c, c_d = prices
    hetero_cost = OfflineOptimal(homogeneous(1.0, c_c, c_d)).optimal_cost(
        schedule, SCHEME
    )
    homo_cost = OfflineOptimal(stationary(c_c, c_d)).optimal_cost(
        schedule, SCHEME
    )
    assert hetero_cost == pytest.approx(homo_cost)


@given(schedule=schedules(max_length=10), costs=heterogeneous_models())
@settings(max_examples=40, deadline=None)
def test_heterogeneous_optimum_is_a_priced_lower_bound(schedule, costs):
    result = OfflineOptimal(costs).solve(schedule, SCHEME)
    result.allocation.check_legal()
    result.allocation.check_t_available(2)
    assert result.allocation.corresponds_to(schedule)
    assert costs.schedule_cost(result.allocation) == pytest.approx(result.cost)
    for algorithm in (
        StaticAllocation(SCHEME),
        DynamicAllocation(SCHEME, primary=2),
        NearestServerStatic(SCHEME, costs),
        NearestServerDynamic(SCHEME, costs, primary=2),
    ):
        online = costs.schedule_cost(algorithm.run(schedule))
        assert result.cost <= online + 1e-9


@given(schedule=schedules(), prices=feasible_prices(), seed=st.integers(0, 1000))
@settings(max_examples=40, deadline=None)
def test_linearization_invariance_for_online_algorithms(
    schedule, prices, seed
):
    """§3.1: reordering concurrent reads never changes SA's or DA's cost."""
    c_c, c_d = prices
    model = stationary(c_c, c_d)
    partial = PartialSchedule.from_schedule(schedule)
    linearization = partial.sample_linearization(seed)
    for make in (
        lambda: StaticAllocation(SCHEME),
        lambda: DynamicAllocation(SCHEME, primary=2),
    ):
        canonical_cost = model.schedule_cost(
            make().run(partial.canonical_linearization())
        )
        sampled_cost = model.schedule_cost(make().run(linearization))
        assert sampled_cost == pytest.approx(canonical_cost)


@given(schedule=schedules(max_length=8), prices=feasible_prices(), seed=st.integers(0, 1000))
@settings(max_examples=20, deadline=None)
def test_linearization_invariance_for_the_optimum(schedule, prices, seed):
    c_c, c_d = prices
    model = stationary(c_c, c_d)
    solver = OfflineOptimal(model)
    partial = PartialSchedule.from_schedule(schedule)
    canonical = solver.optimal_cost(
        partial.canonical_linearization(), SCHEME
    )
    sampled = solver.optimal_cost(partial.sample_linearization(seed), SCHEME)
    assert sampled == pytest.approx(canonical)


@given(
    first=schedules(max_length=8),
    second=schedules(max_length=8),
    prices=feasible_prices(),
)
@settings(max_examples=30, deadline=None)
def test_directory_composes_arbitrary_streams(first, second, prices):
    c_c, c_d = prices
    model = stationary(c_c, c_d)
    directory = ObjectDirectory(
        lambda object_id: DynamicAllocation(SCHEME, primary=2)
    )
    directory.run(interleave({"a": list(first), "b": list(second)}))
    expected = sum(
        model.schedule_cost(
            DynamicAllocation(SCHEME, primary=2).run(schedule)
        )
        for schedule in (first, second)
    )
    assert directory.cost(model) == pytest.approx(expected)
