"""Exhaustive worst-case search over small schedule spaces.

Paper §6.1 leaves a gap: DA's competitive factor is proven to lie
between 1.5 (Proposition 2) and ``2 + 2 c_c`` (Theorem 2), and *"this
gap is the subject of future research"*.  This module attacks the gap
empirically: it enumerates **every** schedule of a given length over a
small processor set, prices the algorithm against the exact offline
optimum, and returns the worst ratio together with the schedule that
achieves it.

Because every prefix of an enumerated schedule is itself a schedule,
the search evaluates all prefixes too (the exact offline DP is carried
incrementally through the DFS), so the result is the true worst
cost-ratio over *all* schedules up to the given length on that
universe.

Caveat on interpretation: competitiveness (§4.1) tolerates an additive
constant ``β``, so a bad ratio on one short schedule does not by itself
bound the competitive factor — the bad pattern must be *sustainable*
(repeatable with OPT's cost growing unboundedly).  The worst schedules
this search finds are exactly the seeds of such families: repeat them
with :func:`repro.workloads.adversarial.da_killer`-style constructions
to turn a worst prefix into a factor lower bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from repro.core.base import OnlineDOM
from repro.core.competitive import costs_of
from repro.core.offline_optimal import OfflineOptimal
from repro.exceptions import ConfigurationError
from repro.model.cost_model import CostModel
from repro.model.request import read, write
from repro.model.schedule import Schedule
from repro.types import ProcessorId, processor_set


@dataclass(frozen=True)
class WorstCase:
    """The worst schedule found and its costs."""

    ratio: float
    schedule: Schedule
    algorithm_cost: float
    optimal_cost: float


class ExhaustiveSearch:
    """Enumerate all schedules up to ``max_length`` over ``processors``.

    The offline optimum is carried along the DFS as the exact solver's
    own DP table (:class:`~repro.core.offline_optimal.Transitions` over
    the whole processor set): each node steps to all ``2n`` children's
    tables at once in ``O(n²·2^n)``, and prices the algorithm on all
    children at once too, ``O(n·L)``.  Keep ``len(processors) <= 5`` and
    ``max_length <= 7`` — the schedule space is ``(2k)^L``.
    """

    def __init__(
        self,
        cost_model: CostModel,
        initial_scheme: Iterable[ProcessorId],
        processors: Sequence[ProcessorId],
        threshold: int = 2,
    ) -> None:
        self.cost_model = cost_model
        self.initial_scheme = processor_set(initial_scheme)
        self.processors = tuple(sorted(set(processors) | self.initial_scheme))
        if len(self.initial_scheme) < threshold:
            raise ConfigurationError("initial scheme smaller than t")
        if len(self.processors) > 6:
            raise ConfigurationError(
                "exhaustive search is limited to 6 processors"
            )
        self.threshold = threshold
        # OfflineOptimal also rejects t < 2.
        self.transitions = OfflineOptimal(cost_model, threshold).transitions(
            self.processors
        )

    # -- the search ----------------------------------------------------------

    def search(
        self,
        algorithm_factory: Callable[[], OnlineDOM],
        max_length: int,
        min_length: int = 1,
    ) -> WorstCase:
        """The worst ratio over every schedule with length in
        ``[min_length, max_length]``."""
        if max_length < min_length or min_length < 1:
            raise ConfigurationError("invalid length bracket")
        candidates = [read(p) for p in self.processors]
        candidates += [write(p) for p in self.processors]
        best: Optional[WorstCase] = None
        steps = self.transitions

        def dfs(dp: np.ndarray, schedule: Schedule, cost: float) -> None:
            nonlocal best
            if len(schedule) >= min_length:
                optimal = float(dp.min())
                if optimal > 0:
                    ratio = cost / optimal
                elif cost > 0:
                    ratio = float("inf")
                else:
                    ratio = 1.0
                if best is None or ratio > best.ratio:
                    best = WorstCase(ratio, schedule, cost, optimal)
            if len(schedule) == max_length:
                return
            extensions = [Schedule((*schedule.requests, r)) for r in candidates]
            costs = costs_of(algorithm_factory, extensions, self.cost_model)
            for child, extension, child_cost in zip(
                steps.successors(dp), extensions, costs
            ):
                dfs(child, extension, child_cost)

        dfs(steps.start(self.initial_scheme), Schedule(), 0.0)
        assert best is not None  # min_length >= 1 guarantees a visit
        return best


def certified_worst_case(
    algorithm_factory: Callable[[], OnlineDOM],
    cost_model: CostModel,
    initial_scheme: Iterable[ProcessorId],
    extra_processors: Sequence[ProcessorId],
    max_length: int = 5,
) -> WorstCase:
    """Convenience wrapper: the certified worst cost-ratio over all
    schedules up to ``max_length`` on
    ``initial_scheme ∪ extra_processors`` (see the module caveat on
    turning this into a competitive-factor bound)."""
    search = ExhaustiveSearch(
        cost_model, initial_scheme, tuple(extra_processors)
    )
    return search.search(algorithm_factory, max_length)
