"""Cost models: the stationary-computing and mobile-computing pricings.

Paper §1.2: *"We distinguish between the stationary-computing (SC) cost
model, in which c_io > 0, and the mobile-computing (MC) cost model, in
which c_io = 0."*  In the SC model the I/O cost is normalized to one
unit (§3.2); in the MC model it is zero because a mobile user is billed
per wireless message while local I/O carries no out-of-pocket expense
(§3.3).

A cost model prices the :class:`~repro.model.accounting.CostBreakdown`
of each request.  Validation enforces the feasibility constraint of
Figure 1: a data message cannot be cheaper than a control message
(``c_c <= c_d``), because the data message carries the object content in
addition to every field of the control message.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.exceptions import ConfigurationError
from repro.model.accounting import CostBreakdown
from repro.model.allocation import AllocationSchedule
from repro.model.costs import request_breakdown
from repro.model.request import ExecutedRequest
from repro.types import ProcessorSet


@dataclass(frozen=True, slots=True)
class CostModel:
    """Unit prices for I/O, control messages and data messages."""

    c_io: float
    c_c: float
    c_d: float

    def __post_init__(self) -> None:
        for name in ("c_io", "c_c", "c_d"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0:
                raise ConfigurationError(
                    f"{name} must be a finite non-negative number, got {value}"
                )
        if self.c_c > self.c_d:
            raise ConfigurationError(
                f"c_c={self.c_c} > c_d={self.c_d}: a data message cannot be "
                "cheaper than a control message (Figure 1, 'Cannot be true')"
            )

    # -- pricing ---------------------------------------------------------

    def price(self, breakdown: CostBreakdown) -> float:
        """Price a cost breakdown under this model."""
        return breakdown.priced(self.c_io, self.c_c, self.c_d)

    def request_cost(
        self, executed: ExecutedRequest, scheme: ProcessorSet
    ) -> float:
        """COST(q) of paper §3.2/§3.3 for one executed request."""
        return self.price(request_breakdown(executed, scheme))

    def schedule_cost(self, allocation: AllocationSchedule) -> float:
        """COST(I, tau): the sum of the request costs along ``allocation``,
        which is their summed counts priced once (cost is linear in them)."""
        return self.price(allocation.total_breakdown())

    def request_costs(self, allocation: AllocationSchedule) -> list[float]:
        """Per-request costs in schedule order."""
        return [
            self.price(request_breakdown(step, scheme))
            for scheme, step in allocation.schemes()
        ]

    # -- classification -----------------------------------------------------

    @property
    def is_mobile(self) -> bool:
        """True iff this is a mobile-computing pricing (``c_io == 0``)."""
        return self.c_io == 0

    @property
    def is_stationary(self) -> bool:
        return self.c_io > 0

    def normalized(self) -> "CostModel":
        """Rescale so that ``c_io == 1`` (only valid for SC models).

        The paper normalizes the SC model by taking ``c_io = 1``;
        competitiveness is invariant under this rescaling because every
        request cost is scaled by the same factor.
        """
        if self.c_io == 0:
            raise ConfigurationError("a mobile model cannot be normalized")
        return CostModel(1.0, self.c_c / self.c_io, self.c_d / self.c_io)

    def __str__(self) -> str:
        flavor = "MC" if self.is_mobile else "SC"
        return f"{flavor}(c_io={self.c_io}, c_c={self.c_c}, c_d={self.c_d})"


def stationary(c_c: float, c_d: float) -> CostModel:
    """The stationary-computing model with ``c_io`` normalized to 1."""
    return CostModel(1.0, c_c, c_d)


def mobile(c_c: float, c_d: float) -> CostModel:
    """The mobile-computing model (``c_io = 0``)."""
    return CostModel(0.0, c_c, c_d)
