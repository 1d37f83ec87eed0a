"""Reproduction of Huang & Wolfson (ICDE 1994):
*Object Allocation in Distributed Databases and Mobile Computers*.

The library has four layers:

* :mod:`repro.model` — the formal model of §3: requests, schedules,
  allocation schedules, and the stationary/mobile cost functions;
* :mod:`repro.core` — the DOM algorithms: SA, DA, the exact offline
  optimum, baselines, and the competitiveness harness;
* :mod:`repro.distsim` + :mod:`repro.storage` — a discrete-event
  message-passing substrate running SA/DA as real protocols, with
  failure injection and quorum fallback;
* :mod:`repro.workloads` + :mod:`repro.analysis` + :mod:`repro.viz` —
  schedule generators (including the adversarial lower-bound families),
  theoretical bounds, Figure 1/2 region maps, sweeps and reporting;
* :mod:`repro.engine` — the parallel experiment engine: deterministic
  per-task seeding, on-disk result caching, and process fan-out with
  bit-identical serial/parallel results.

Quickstart::

    from repro import (
        DynamicAllocation, StaticAllocation, Schedule, stationary, cost_of,
    )

    model = stationary(c_c=0.2, c_d=1.5)
    schedule = Schedule.parse("r1 r1 r2 w2 r2 r2 r2")
    sa = StaticAllocation({1, 2})
    da = DynamicAllocation({1, 2}, primary=2)
    print(cost_of(sa, schedule, model), cost_of(da, schedule, model))
"""

from repro.core import (
    BeamOptimal,
    CompetitivenessHarness,
    ConvergentAllocation,
    DynamicAllocation,
    NearestServerDynamic,
    NearestServerStatic,
    ObjectDirectory,
    ObjectRequest,
    OfflineOptimal,
    OnlineDOM,
    SkiRentalReplication,
    StaticAllocation,
    WriteInvalidationCaching,
    algorithm_factory,
    compare_algorithms,
    cost_of,
    interleave,
    make_algorithm,
    measure_ratios,
    optimal_allocation,
    optimal_cost,
    optimal_cost_lower_bound,
    optimal_sandwich,
)
from repro.engine import (
    ExperimentEngine,
    ResultCache,
    derive_seed,
    stable_key,
)
from repro.exceptions import (
    AvailabilityViolationError,
    ConfigurationError,
    IllegalScheduleError,
    ProtocolError,
    ReproError,
    SimulationError,
    StorageError,
)
from repro.model import (
    AllocationSchedule,
    CostBreakdown,
    CostModel,
    ExecutedRequest,
    HeterogeneousCostModel,
    PartialSchedule,
    Request,
    RequestKind,
    Schedule,
    mobile,
    read,
    stationary,
    write,
)

__version__ = "1.0.0"

__all__ = [
    "AllocationSchedule",
    "AvailabilityViolationError",
    "BeamOptimal",
    "CompetitivenessHarness",
    "ConfigurationError",
    "ConvergentAllocation",
    "CostBreakdown",
    "CostModel",
    "DynamicAllocation",
    "ExecutedRequest",
    "ExperimentEngine",
    "HeterogeneousCostModel",
    "IllegalScheduleError",
    "NearestServerDynamic",
    "NearestServerStatic",
    "ObjectDirectory",
    "ObjectRequest",
    "OfflineOptimal",
    "OnlineDOM",
    "PartialSchedule",
    "ProtocolError",
    "ReproError",
    "Request",
    "RequestKind",
    "ResultCache",
    "Schedule",
    "SimulationError",
    "SkiRentalReplication",
    "StaticAllocation",
    "StorageError",
    "WriteInvalidationCaching",
    "algorithm_factory",
    "compare_algorithms",
    "cost_of",
    "derive_seed",
    "interleave",
    "make_algorithm",
    "measure_ratios",
    "mobile",
    "optimal_allocation",
    "optimal_cost",
    "optimal_cost_lower_bound",
    "optimal_sandwich",
    "read",
    "stable_key",
    "stationary",
    "write",
    "__version__",
]
