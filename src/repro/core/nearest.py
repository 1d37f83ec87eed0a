"""SA and DA variants for heterogeneous networks (paper §6 extension).

In a homogeneous system, *which* member of the scheme serves a foreign
read is irrelevant; with per-link prices it matters.  These variants
keep the paper's policies but make every server choice price-aware:

* :class:`NearestServerStatic` — read-one-write-all where each reader
  fetches from its cheapest member of ``Q``;
* :class:`NearestServerDynamic` — DA where each foreign reader is
  served (and recorded) by its cheapest member of ``F``.

Both degenerate to the originals under constant prices (tested), so the
competitive guarantees carry over to that special case; under genuinely
heterogeneous prices they are natural heuristics whose cost the
offline optimum (:class:`~repro.core.offline_optimal.OfflineOptimal`,
given the same :class:`HeterogeneousCostModel`) can audit.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.core.dynamic_allocation import DynamicAllocation
from repro.core.static_allocation import StaticAllocation
from repro.model.heterogeneous import HeterogeneousCostModel
from repro.model.request import ExecutedRequest, Request
from repro.types import ProcessorId


class NearestServerStatic(StaticAllocation):
    """SA with price-aware server selection."""

    name = "SA-nearest"

    def __init__(
        self,
        initial_scheme: Iterable[ProcessorId],
        costs: HeterogeneousCostModel,
        threshold: Optional[int] = None,
    ) -> None:
        super().__init__(initial_scheme, threshold)
        self.costs = costs

    def decide(self, request: Request) -> ExecutedRequest:
        if request.is_read and request.processor not in self.initial_scheme:
            server = self.costs.nearest_server(
                request.processor, self.initial_scheme
            )
            return ExecutedRequest(request, frozenset({server}))
        return super().decide(request)


class NearestServerDynamic(DynamicAllocation):
    """DA with price-aware core-server selection for saving-reads."""

    name = "DA-nearest"

    def __init__(
        self,
        initial_scheme: Iterable[ProcessorId],
        costs: HeterogeneousCostModel,
        primary: Optional[ProcessorId] = None,
        threshold: Optional[int] = None,
    ) -> None:
        super().__init__(initial_scheme, primary, threshold)
        self.costs = costs

    def decide(self, request: Request) -> ExecutedRequest:
        if request.is_read and request.processor not in self.current_scheme:
            server = self.costs.nearest_server(request.processor, self.core)
            return ExecutedRequest(
                request, frozenset({server}), saving=True
            )
        return super().decide(request)
