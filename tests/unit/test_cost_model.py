"""Unit tests for repro.model.cost_model and accounting."""

from __future__ import annotations

import pytest

from repro.exceptions import ConfigurationError
from repro.model.accounting import ZERO, CostBreakdown, total
from repro.model.allocation import AllocationSchedule
from repro.model.cost_model import CostModel, mobile, stationary
from repro.model.request import ExecutedRequest, read, write


class TestConstruction:
    def test_stationary_normalizes_io_to_one(self):
        model = stationary(0.5, 1.0)
        assert model.c_io == 1.0
        assert model.is_stationary
        assert not model.is_mobile

    def test_mobile_has_zero_io(self):
        model = mobile(0.5, 1.0)
        assert model.c_io == 0.0
        assert model.is_mobile

    def test_rejects_control_dearer_than_data(self):
        # Figure 1's "Cannot be true" region.
        with pytest.raises(ConfigurationError):
            stationary(2.0, 1.0)

    def test_rejects_negative_costs(self):
        with pytest.raises(ConfigurationError):
            CostModel(1.0, -0.1, 1.0)

    def test_rejects_non_finite_costs(self):
        with pytest.raises(ConfigurationError):
            CostModel(1.0, float("nan"), 1.0)

    def test_normalized_rescaling(self):
        model = CostModel(2.0, 1.0, 3.0)
        normalized = model.normalized()
        assert normalized.c_io == 1.0
        assert normalized.c_c == pytest.approx(0.5)
        assert normalized.c_d == pytest.approx(1.5)

    def test_mobile_cannot_be_normalized(self):
        with pytest.raises(ConfigurationError):
            mobile(0.5, 1.0).normalized()

    def test_str_includes_flavor(self):
        assert str(stationary(0.1, 0.2)).startswith("SC")
        assert str(mobile(0.1, 0.2)).startswith("MC")


class TestPricing:
    def test_price_combines_components(self):
        model = stationary(0.25, 2.0)
        breakdown = CostBreakdown(io_ops=3, control_messages=2, data_messages=1)
        assert model.price(breakdown) == pytest.approx(3 + 0.5 + 2.0)

    def test_mobile_ignores_io(self):
        model = mobile(0.25, 2.0)
        breakdown = CostBreakdown(io_ops=100, control_messages=1, data_messages=1)
        assert model.price(breakdown) == pytest.approx(2.25)

    def test_request_cost_remote_read(self):
        # Paper §1.2: remote read costs c_c + c_io + c_d.
        model = stationary(0.3, 1.7)
        executed = ExecutedRequest(read(5), {1})
        assert model.request_cost(executed, frozenset({1, 2})) == pytest.approx(
            0.3 + 1.0 + 1.7
        )

    def test_schedule_cost_equals_sum_of_request_costs(self):
        model = stationary(0.2, 1.5)
        allocation = AllocationSchedule(
            frozenset({1, 2}),
            (
                ExecutedRequest(read(3), {1}, saving=True),
                ExecutedRequest(write(2), {1, 2}),
                ExecutedRequest(read(2), {2}),
            ),
        )
        per_request = model.request_costs(allocation)
        assert model.schedule_cost(allocation) == pytest.approx(sum(per_request))
        assert len(per_request) == 3

    def test_saving_read_free_in_mobile_model(self):
        # Paper §3.3: "the cost of a saving-read does not differ from
        # that of a non-saving read" when c_io = 0.
        model = mobile(0.5, 2.0)
        scheme = frozenset({1, 2})
        plain = ExecutedRequest(read(5), {1})
        saving = ExecutedRequest(read(5), {1}, saving=True)
        assert model.request_cost(plain, scheme) == pytest.approx(
            model.request_cost(saving, scheme)
        )

    def test_local_read_free_in_mobile_model(self):
        # Paper §3.3: "the cost of a read request executed only locally
        # is zero".
        model = mobile(0.5, 2.0)
        executed = ExecutedRequest(read(1), {1})
        assert model.request_cost(executed, frozenset({1, 2})) == 0.0


class TestBreakdownAlgebra:
    def test_addition(self):
        left = CostBreakdown(1, 2, 3)
        right = CostBreakdown(10, 20, 30)
        assert left + right == CostBreakdown(11, 22, 33)

    def test_scaling(self):
        assert CostBreakdown(1, 2, 3) * 3 == CostBreakdown(3, 6, 9)
        assert 2 * CostBreakdown(1, 1, 1) == CostBreakdown(2, 2, 2)

    def test_zero_identity(self):
        breakdown = CostBreakdown(4, 5, 6)
        assert breakdown + ZERO == breakdown

    def test_total_helper(self):
        assert total(
            [CostBreakdown(1, 0, 0), CostBreakdown(0, 1, 0), CostBreakdown(0, 0, 1)]
        ) == CostBreakdown(1, 1, 1)

    def test_total_messages(self):
        assert CostBreakdown(5, 2, 3).total_messages == 5

    def test_str(self):
        assert str(CostBreakdown(1, 2, 3)) == "1 io + 2 ctrl + 3 data"
