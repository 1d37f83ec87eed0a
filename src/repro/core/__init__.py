"""The paper's primary contribution: DOM algorithms and their analysis.

* :class:`~repro.core.base.OnlineDOM` — the online-step interface of §3.4
* :class:`~repro.core.static_allocation.StaticAllocation` — SA (§4.2.1)
* :class:`~repro.core.dynamic_allocation.DynamicAllocation` — DA (§4.2.2)
* :class:`~repro.core.offline_optimal.OfflineOptimal` — the exact
  offline optimum used as the competitiveness yardstick (§4.1)
* :class:`~repro.core.competitive.CompetitivenessHarness` — empirical
  ratio measurement
* Baselines: :class:`~repro.core.cddr.SkiRentalReplication`,
  :class:`~repro.core.convergent.ConvergentAllocation`,
  :class:`~repro.core.caching.WriteInvalidationCaching` (§5)
* :mod:`repro.core.versioning` — the append-only model of §6.2
"""

from repro.core.base import OnlineDOM, run_algorithm
from repro.core.beam_optimal import BeamOptimal, OptimalSandwich, optimal_sandwich
from repro.core.caching import WriteInvalidationCaching
from repro.core.cddr import SkiRentalReplication
from repro.core.competitive import (
    CompetitivenessHarness,
    RatioObservation,
    RatioReport,
    compare_algorithms,
    cost_of,
    measure_ratios,
)
from repro.core.convergent import ConvergentAllocation
from repro.core.dynamic_allocation import DynamicAllocation
from repro.core.factory import ALGORITHM_NAMES, algorithm_factory, make_algorithm
from repro.core.multi import ObjectDirectory, ObjectRequest, interleave
from repro.core.nearest import NearestServerDynamic, NearestServerStatic
from repro.core.offline_bounds import optimal_cost_lower_bound
from repro.core.offline_optimal import (
    OfflineOptimal,
    OptimalResult,
    optimal_allocation,
    optimal_cost,
)
from repro.core.static_allocation import StaticAllocation

__all__ = [
    "ALGORITHM_NAMES",
    "BeamOptimal",
    "CompetitivenessHarness",
    "OptimalSandwich",
    "optimal_sandwich",
    "ConvergentAllocation",
    "DynamicAllocation",
    "NearestServerDynamic",
    "NearestServerStatic",
    "ObjectDirectory",
    "ObjectRequest",
    "OfflineOptimal",
    "OnlineDOM",
    "OptimalResult",
    "RatioObservation",
    "RatioReport",
    "SkiRentalReplication",
    "StaticAllocation",
    "WriteInvalidationCaching",
    "algorithm_factory",
    "compare_algorithms",
    "cost_of",
    "interleave",
    "make_algorithm",
    "measure_ratios",
    "optimal_allocation",
    "optimal_cost",
    "optimal_cost_lower_bound",
    "run_algorithm",
]
