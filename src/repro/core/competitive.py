"""Empirical competitiveness measurement.

Paper §4.1: a ``t``-available constrained DOM algorithm ``A`` is
``α``-competitive if ``COST_A(I, psi) <= α · COST_OPT(I, psi) + β`` for
all initial schemes ``I`` and schedules ``psi``.  This module measures
the ratio ``COST_A / COST_OPT`` over suites of schedules — the maximum
observed ratio is an *empirical lower bound* on the true competitive
factor, and comparing it with the paper's proven upper bounds is how
the benchmark harness validates Theorems 1-4.

For instances too large for the exact DP, ratios can be computed
against the sound lower bound of :mod:`repro.core.offline_bounds`; the
resulting "ratio" is then an upper bound on the true ratio.

Algorithm costs route through the vectorized kernel
(:mod:`repro.kernel`) whenever the algorithm is one the kernel
evaluates exactly (SA and DA); kernel costs are bit-identical to the
stepped path, so measured ratios are unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from repro import kernel
from repro.core.base import OnlineDOM
from repro.core.beam_optimal import BeamOptimal
from repro.core.offline_bounds import optimal_cost_lower_bound
from repro.core.offline_optimal import OfflineOptimal
from repro.exceptions import ConfigurationError
from repro.model.cost_model import CostModel
from repro.model.schedule import Schedule
from repro.types import ProcessorSet


def cost_of(
    algorithm: OnlineDOM,
    schedule: Schedule,
    cost_model: CostModel,
) -> float:
    """COST_A(I, psi): the online algorithm's cost on the schedule.

    Kernel-supported algorithms (SA, DA) are evaluated in closed form
    without stepping; everything else runs the stepped reference path
    (see :func:`costs_of`).
    """
    return costs_of(lambda: algorithm, [schedule], cost_model)[0]


def costs_of(
    make_algorithm: Callable[[], OnlineDOM],
    schedules: Sequence[Schedule],
    cost_model: CostModel,
    batch: kernel.CompiledBatch | None = None,
) -> list[float]:
    """COST_A on every schedule, each from a fresh algorithm instance:
    one kernel batch for SA and DA under homogeneous prices (``batch``
    if the caller compiled one), else stepped.  Both paths return
    bit-identical costs."""
    probe = make_algorithm()
    if kernel.supports(probe) and isinstance(cost_model, CostModel):
        return kernel.batch_costs(probe, list(schedules), cost_model, batch)
    return [
        cost_model.schedule_cost(make_algorithm().run(schedule))
        for schedule in schedules
    ]


@dataclass(frozen=True)
class RatioObservation:
    """One (schedule, algorithm-cost, reference-cost) measurement.

    ``reference_cost`` is OPT's cost when ``exact_reference`` is true,
    otherwise a sound *lower* bound on it; ``reference_upper`` (when
    set) is a sound *upper* bound — so inexact observations carry a
    ratio interval (:attr:`ratio_lower`, :attr:`ratio`) instead of a
    point.
    """

    schedule: Schedule
    algorithm_cost: float
    reference_cost: float
    exact_reference: bool
    #: Optional sound upper bound on OPT (beam search); equals
    #: ``reference_cost`` for exact observations.
    reference_upper: float | None = None

    @staticmethod
    def _divide(cost: float, reference: float) -> float:
        if reference > 0:
            return cost / reference
        if cost == 0:
            return 1.0
        return math.inf

    @property
    def ratio(self) -> float:
        """Cost ratio against the reference (an *upper* bound on the
        true ratio when the reference is a lower bound); infinite when
        the reference cost is zero but the algorithm still pays (the
        signature of a non-competitive algorithm in the mobile model)."""
        return self._divide(self.algorithm_cost, self.reference_cost)

    @property
    def ratio_lower(self) -> float:
        """A sound lower bound on the true ratio: the cost against the
        reference *upper* bound (== :attr:`ratio` when exact)."""
        upper = (
            self.reference_upper
            if self.reference_upper is not None
            else self.reference_cost
        )
        return self._divide(self.algorithm_cost, upper)


@dataclass(frozen=True)
class RatioReport:
    """Aggregate of ratio observations for one algorithm."""

    algorithm_name: str
    observations: tuple[RatioObservation, ...]

    def __post_init__(self) -> None:
        if not self.observations:
            raise ConfigurationError("a ratio report needs >= 1 observation")

    @property
    def max_ratio(self) -> float:
        return max(obs.ratio for obs in self.observations)

    @property
    def mean_ratio(self) -> float:
        return sum(obs.ratio for obs in self.observations) / len(
            self.observations
        )

    @property
    def worst(self) -> RatioObservation:
        return max(self.observations, key=lambda obs: obs.ratio)

    def within(self, bound: float, slack: float = 1e-9) -> bool:
        """True iff every observed ratio is at most ``bound`` (+slack)."""
        return self.max_ratio <= bound + slack


class CompetitivenessHarness:
    """Measures empirical competitive ratios against the offline optimum.

    Parameters
    ----------
    cost_model:
        Pricing shared by the algorithm and the reference.
    threshold:
        Availability threshold ``t`` used by the offline reference.
    exact_limit:
        Instances whose DP universe exceeds this many processors fall
        back to the linear-time lower bound (making measured ratios
        upper bounds on the truth).  The vectorized DP makes 14
        practical (the previous per-state implementation capped at 12).
    """

    def __init__(
        self,
        cost_model: CostModel,
        threshold: int = 2,
        exact_limit: int = 14,
        beam_width: int = 0,
    ) -> None:
        self.cost_model = cost_model
        self.threshold = threshold
        self.exact_limit = exact_limit
        #: When positive, instances beyond ``exact_limit`` also get a
        #: beam-search *upper* bound on OPT, so their observations carry
        #: a ratio interval instead of a one-sided bound.
        self.beam_width = beam_width
        self._solver = OfflineOptimal(cost_model, threshold, exact_limit)

    def reference_cost(
        self, schedule: Schedule, initial_scheme: ProcessorSet
    ) -> tuple[float, bool]:
        """OPT's cost (exact when feasible) and an exactness flag."""
        universe = initial_scheme | schedule.processors
        if len(universe) <= self.exact_limit:
            return self._solver.optimal_cost(schedule, initial_scheme), True
        bound = optimal_cost_lower_bound(
            schedule, initial_scheme, self.cost_model, self.threshold
        )
        return bound, False

    def observe(
        self, algorithm: OnlineDOM, schedule: Schedule
    ) -> RatioObservation:
        """Measure one schedule."""
        algorithm_cost = cost_of(algorithm, schedule, self.cost_model)
        return self._record(schedule, algorithm_cost, algorithm.initial_scheme)

    def _record(
        self,
        schedule: Schedule,
        algorithm_cost: float,
        initial_scheme: ProcessorSet,
    ) -> RatioObservation:
        """Pair an already-computed algorithm cost with the reference."""
        reference, exact = self.reference_cost(schedule, initial_scheme)
        reference_upper = None
        if not exact and self.beam_width > 0:
            beam = BeamOptimal(
                self.cost_model, self.threshold, self.beam_width
            )
            reference_upper = beam.solve(schedule, initial_scheme).cost
        return RatioObservation(
            schedule, algorithm_cost, reference, exact, reference_upper
        )

    def measure(
        self,
        make_algorithm: Callable[[], OnlineDOM],
        schedules: Sequence[Schedule],
    ) -> RatioReport:
        """Measure a suite of schedules with fresh algorithm instances.

        When the factory produces a kernel-supported algorithm, the
        whole suite compiles into one batch and every algorithm cost is
        evaluated in a single vectorized pass (:func:`costs_of`).
        """
        if not schedules:
            raise ConfigurationError("no schedules to measure")
        probe = make_algorithm()
        costs = costs_of(make_algorithm, schedules, self.cost_model)
        observations = [
            self._record(schedule, cost, probe.initial_scheme)
            for schedule, cost in zip(schedules, costs)
        ]
        return RatioReport(probe.name or "unknown", tuple(observations))


def measure_ratios(
    make_algorithm: Callable[[], OnlineDOM],
    schedules: Sequence[Schedule],
    cost_model: CostModel,
    threshold: int = 2,
    exact_limit: int = 14,
) -> RatioReport:
    """One-shot convenience wrapper around :class:`CompetitivenessHarness`."""
    harness = CompetitivenessHarness(cost_model, threshold, exact_limit)
    return harness.measure(make_algorithm, schedules)


def compare_algorithms(
    factories: dict[str, Callable[[], OnlineDOM]],
    schedules: Sequence[Schedule],
    cost_model: CostModel,
    threshold: int = 2,
    exact_limit: int = 14,
) -> dict[str, RatioReport]:
    """Measure several algorithms on the same schedule suite."""
    harness = CompetitivenessHarness(cost_model, threshold, exact_limit)
    return {
        name: harness.measure(factory, schedules)
        for name, factory in factories.items()
    }
