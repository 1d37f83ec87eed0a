"""Heterogeneous cost models: per-node I/O and per-link message prices.

Paper §3.2 assumes a homogeneous system (*"the data-message between
every pair of processors costs c_d ... the I/O cost is identical at all
the processors"*) and §6 closes by discussing extensions *"to other
models"*.  This module provides the natural one: every processor has
its own I/O price and every ordered link its own control/data price —
think a wired backbone with a few expensive wireless links, the exact
setting the mobile scenario motivates.

The §3.2/§3.3 cost formulas generalize by replacing counts with sums:

* non-saving read ``r_i`` with execution set ``X``::

      sum_{x in X} io(x)
      + sum_{x in X, x != i} [ c_c(i, x) + c_d(x, i) ]

  (every member besides the reader itself gets a request message and
  returns a data message);

* a saving-read additionally pays ``io(i)``;

* write ``w_i`` with execution set ``X`` and scheme ``Y``::

      sum_{x in X} io(x) + sum_{x in X, x != i} c_d(i, x)
      + sum_{y in Y \\ X \\ {i}} c_c(i, y)

  (the writer ships the object and sends the invalidations; with
  homogeneous prices this is exactly the paper's formula).

With constant prices, every cost equals the homogeneous
:class:`~repro.model.cost_model.CostModel`'s — asserted by the tests.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional, Tuple

from repro.exceptions import ConfigurationError
from repro.model.allocation import AllocationSchedule
from repro.model.request import ExecutedRequest
from repro.types import ProcessorId, ProcessorSet

Link = Tuple[ProcessorId, ProcessorId]


class HeterogeneousCostModel:
    """Per-node I/O prices and per-link message prices.

    Parameters
    ----------
    default_io, default_c_c, default_c_d:
        Prices used where no override is given.
    io_costs:
        Per-node I/O overrides.
    control_costs / data_costs:
        Per-ordered-link overrides.  Provide both directions explicitly
        if a link is asymmetric; a single ``(a, b)`` entry applies to
        ``a -> b`` only.
    """

    def __init__(
        self,
        default_io: float = 1.0,
        default_c_c: float = 0.2,
        default_c_d: float = 1.0,
        io_costs: Optional[Mapping[ProcessorId, float]] = None,
        control_costs: Optional[Mapping[Link, float]] = None,
        data_costs: Optional[Mapping[Link, float]] = None,
    ) -> None:
        for name, value in (
            ("default_io", default_io),
            ("default_c_c", default_c_c),
            ("default_c_d", default_c_d),
        ):
            if value < 0:
                raise ConfigurationError(f"{name} must be non-negative")
        if default_c_c > default_c_d:
            raise ConfigurationError(
                "a data message cannot be cheaper than a control message"
            )
        self.default_io = default_io
        self.default_c_c = default_c_c
        self.default_c_d = default_c_d
        self._io: Dict[ProcessorId, float] = dict(io_costs or {})
        self._control: Dict[Link, float] = dict(control_costs or {})
        self._data: Dict[Link, float] = dict(data_costs or {})
        for node, value in self._io.items():
            if value < 0:
                raise ConfigurationError(f"io({node}) must be non-negative")
        for mapping, kind in ((self._control, "c_c"), (self._data, "c_d")):
            for link, value in mapping.items():
                if value < 0:
                    raise ConfigurationError(
                        f"{kind}{link} must be non-negative"
                    )
        for link in sorted(self._control.keys() | self._data.keys()):
            control, data = self.control(*link), self.data(*link)
            if control > data:
                raise ConfigurationError(
                    f"c_c{link}={control} exceeds c_d{link}={data}: a data "
                    "message carries strictly more"
                )

    # -- price lookups ------------------------------------------------------

    def io(self, node: ProcessorId) -> float:
        return self._io.get(node, self.default_io)

    def control(self, sender: ProcessorId, receiver: ProcessorId) -> float:
        return self._control.get((sender, receiver), self.default_c_c)

    def data(self, sender: ProcessorId, receiver: ProcessorId) -> float:
        return self._data.get((sender, receiver), self.default_c_d)

    # -- the generalized cost function ------------------------------------------

    def request_cost(
        self, executed: ExecutedRequest, scheme: ProcessorSet
    ) -> float:
        if executed.is_read:
            return self._read_cost(executed)
        return self._write_cost(executed, scheme)

    def _read_cost(self, executed: ExecutedRequest) -> float:
        reader = executed.processor
        cost = 0.0
        for member in executed.execution_set:
            cost += self.io(member)
            if member != reader:
                cost += self.control(reader, member)
                cost += self.data(member, reader)
        if executed.saving:
            cost += self.io(reader)
        return cost

    def _write_cost(
        self, executed: ExecutedRequest, scheme: ProcessorSet
    ) -> float:
        writer = executed.processor
        cost = 0.0
        for member in executed.execution_set:
            cost += self.io(member)
            if member != writer:
                cost += self.data(writer, member)
        for stale in scheme - executed.execution_set - {writer}:
            cost += self.control(writer, stale)
        return cost

    def schedule_cost(self, allocation: AllocationSchedule) -> float:
        return sum(
            self.request_cost(step, scheme)
            for scheme, step in allocation.schemes()
        )

    # -- helpers for policy decisions ----------------------------------------------

    def fetch_cost(self, reader: ProcessorId, server: ProcessorId) -> float:
        """Full price of a non-saving remote read from ``server``."""
        return (
            self.control(reader, server)
            + self.io(server)
            + self.data(server, reader)
        )

    def nearest_server(
        self, reader: ProcessorId, servers: Iterable[ProcessorId]
    ) -> ProcessorId:
        """The cheapest server for ``reader`` (lowest id breaks ties)."""
        servers = sorted(servers)
        if not servers:
            raise ConfigurationError("no servers to choose from")
        return min(servers, key=lambda s: (self.fetch_cost(reader, s), s))


def homogeneous(
    c_io: float, c_c: float, c_d: float
) -> HeterogeneousCostModel:
    """A heterogeneous model with constant prices (for equivalence tests)."""
    return HeterogeneousCostModel(c_io, c_c, c_d)
