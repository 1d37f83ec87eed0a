"""Unit tests for the competitiveness harness (repro.core.competitive)."""

from __future__ import annotations

import math

import pytest

from repro.core.competitive import (
    CompetitivenessHarness,
    RatioObservation,
    RatioReport,
    compare_algorithms,
    cost_of,
    costs_of,
    measure_ratios,
)
from repro.core.dynamic_allocation import DynamicAllocation
from repro.core.static_allocation import StaticAllocation
from repro.exceptions import ConfigurationError
from repro.model.cost_model import mobile, stationary
from repro.model.heterogeneous import HeterogeneousCostModel
from repro.model.schedule import Schedule


class TestObservations:
    def test_ratio(self):
        obs = RatioObservation(Schedule.parse("r1"), 3.0, 2.0, True)
        assert obs.ratio == pytest.approx(1.5)

    def test_zero_reference_with_positive_cost_is_infinite(self):
        # The mobile-model signature of a non-competitive algorithm.
        obs = RatioObservation(Schedule.parse("r1"), 1.0, 0.0, True)
        assert math.isinf(obs.ratio)

    def test_zero_over_zero_is_one(self):
        obs = RatioObservation(Schedule.parse("r1"), 0.0, 0.0, True)
        assert obs.ratio == 1.0


class TestReports:
    def _report(self):
        observations = (
            RatioObservation(Schedule.parse("r1"), 2.0, 2.0, True),
            RatioObservation(Schedule.parse("r2"), 3.0, 2.0, True),
        )
        return RatioReport("SA", observations)

    def test_max_and_mean(self):
        report = self._report()
        assert report.max_ratio == pytest.approx(1.5)
        assert report.mean_ratio == pytest.approx(1.25)

    def test_worst_observation(self):
        assert self._report().worst.algorithm_cost == 3.0

    def test_within_bound(self):
        report = self._report()
        assert report.within(1.5)
        assert not report.within(1.4)

    def test_empty_report_rejected(self):
        with pytest.raises(ConfigurationError):
            RatioReport("SA", ())


class TestHarness:
    def test_cost_of_runs_fresh(self, sc_model):
        sa = StaticAllocation({1, 2})
        schedule = Schedule.parse("r5 r5")
        assert cost_of(sa, schedule, sc_model) == pytest.approx(
            2 * (1 + sc_model.c_c + sc_model.c_d)
        )

    def test_costs_of_steps_sa_under_heterogeneous_prices(self):
        # The kernel prices homogeneously only; per-link prices take
        # the stepped path, for a whole suite and for one schedule.
        prices = HeterogeneousCostModel(data_costs={(1, 5): 9.0})
        schedules = [Schedule.parse("r5 w1 r5"), Schedule.parse("w5 r2")]

        def make():
            return StaticAllocation({1, 2})

        expected = [prices.schedule_cost(make().run(s)) for s in schedules]
        assert costs_of(make, schedules, prices) == expected
        assert cost_of(make(), schedules[0], prices) == expected[0]

    def test_exact_reference_small_instances(self, sc_model):
        harness = CompetitivenessHarness(sc_model)
        cost, exact = harness.reference_cost(
            Schedule.parse("r5"), frozenset({1, 2})
        )
        assert exact
        assert cost == pytest.approx(1 + sc_model.c_c + sc_model.c_d)

    def test_falls_back_to_bound_for_large_universes(self, sc_model):
        harness = CompetitivenessHarness(sc_model, exact_limit=3)
        schedule = Schedule.parse("r3 r4 r5 r6")
        cost, exact = harness.reference_cost(schedule, frozenset({1, 2}))
        assert not exact
        assert cost > 0

    def test_measure_ratios_at_least_one(self, sc_model):
        report = measure_ratios(
            lambda: StaticAllocation({1, 2}),
            [Schedule.parse("r5 r5 r5")],
            sc_model,
        )
        assert report.max_ratio >= 1.0 - 1e-9
        assert report.algorithm_name == "SA"

    def test_measure_rejects_empty_suite(self, sc_model):
        with pytest.raises(ConfigurationError):
            measure_ratios(lambda: StaticAllocation({1, 2}), [], sc_model)

    def test_compare_algorithms(self, sc_model):
        suite = [Schedule.parse("r5 r5 r5 r5")]
        reports = compare_algorithms(
            {
                "SA": lambda: StaticAllocation({1, 2}),
                "DA": lambda: DynamicAllocation({1, 2}, primary=2),
            },
            suite,
            sc_model,
        )
        assert set(reports) == {"SA", "DA"}
        # Repeated foreign reads: DA saves once, SA refetches — with
        # c_d = 1.5 the DA route is cheaper.
        assert reports["DA"].max_ratio < reports["SA"].max_ratio

    def test_sa_unbounded_in_mobile_model(self):
        model = mobile(0.5, 2.0)
        harness = CompetitivenessHarness(model)
        long_reads = Schedule.parse("r5") * 20
        report = harness.measure(lambda: StaticAllocation({1, 2}), [long_reads])
        # OPT saves once (cost c_c + c_d) and reads free afterwards;
        # SA pays every time: ratio 20.
        assert report.max_ratio == pytest.approx(20.0)

    def test_ratios_are_exact_against_witnessed_opt(self):
        model = stationary(0.3, 1.2)
        harness = CompetitivenessHarness(model)
        schedule = Schedule.parse("r4 w1 r4 r4 w2 r4")
        obs = harness.observe(DynamicAllocation({1, 2}, primary=2), schedule)
        assert obs.exact_reference
        assert obs.algorithm_cost >= obs.reference_cost - 1e-9
