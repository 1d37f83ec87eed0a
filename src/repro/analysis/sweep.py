"""Parameter sweeps: measure algorithms across a parameter range.

Used by the ablation benchmarks: the ``t``-independence claim of §2
("these competitiveness factors are independent of the integer t"),
the read/write-mix crossover, and the convergent-vs-competitive
comparison all reduce to sweeping one knob and recording per-algorithm
costs and ratios.

Every sweep decomposes into one independent task per parameter value
and submits through the :class:`~repro.engine.runner.ExperimentEngine`
— serially by default, or across worker processes when the caller
passes an engine with ``max_workers > 1``.  The serial and parallel
paths execute the *same* per-point function, so their results are
bit-for-bit identical (asserted by the engine property suite).  With a
cache-equipped engine, re-runs and resumed grids skip completed
points.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence

from repro import kernel
from repro.core.base import OnlineDOM
from repro.core.competitive import CompetitivenessHarness, costs_of
from repro.engine.keys import stable_key
from repro.engine.runner import ExperimentEngine, Task
from repro.exceptions import ConfigurationError
from repro.model.cost_model import CostModel
from repro.model.schedule import Schedule


@dataclass(frozen=True)
class SweepRow:
    """Measurements at one parameter value."""

    parameter: float
    max_ratios: Mapping[str, float]
    mean_ratios: Mapping[str, float]
    mean_costs: Mapping[str, float]


@dataclass(frozen=True)
class SweepResult:
    """All rows of one sweep, in parameter order."""

    parameter_name: str
    rows: tuple[SweepRow, ...]

    def series(self, algorithm: str) -> list[tuple[float, float]]:
        """(parameter, max ratio) pairs for one algorithm."""
        return [(row.parameter, row.max_ratios[algorithm]) for row in self.rows]

    def algorithms(self) -> list[str]:
        return sorted(self.rows[0].max_ratios) if self.rows else []


# -- per-point task functions (module-level: picklable for workers) ------


def _measure_point(
    parameter_name: str,
    value: float,
    model: CostModel,
    schedules: tuple[Schedule, ...],
    prototypes: dict[str, OnlineDOM],
    threshold: int,
    exact_limit: int,
) -> SweepRow:
    """Measure every algorithm at one parameter value.

    ``prototypes`` are never-run algorithm instances built in the
    parent process; each measurement deep-copies one so every schedule
    sees a fresh algorithm, exactly like the factory protocol of
    :meth:`~repro.core.competitive.CompetitivenessHarness.measure`.
    """
    harness = CompetitivenessHarness(model, threshold, exact_limit)
    max_ratios: dict[str, float] = {}
    mean_ratios: dict[str, float] = {}
    mean_costs: dict[str, float] = {}
    for name, prototype in prototypes.items():
        report = harness.measure(
            lambda: copy.deepcopy(prototype), schedules
        )
        max_ratios[name] = report.max_ratio
        mean_ratios[name] = report.mean_ratio
        mean_costs[name] = sum(
            obs.algorithm_cost for obs in report.observations
        ) / len(report.observations)
    return SweepRow(value, max_ratios, mean_ratios, mean_costs)


def _cost_point(
    parameter_name: str,
    value: float,
    model: CostModel,
    schedules: tuple[Schedule, ...],
    prototypes: dict[str, OnlineDOM],
) -> SweepRow:
    """The reference-free flavor: raw mean costs only.

    Each algorithm prices the whole suite through
    :func:`~repro.core.competitive.costs_of` on fresh deep copies.
    Kernel-supported algorithms (SA, DA) share one compiled batch per
    point, each evaluated in one vectorized pass, bit-identical to
    stepping.
    """
    supported = [p.initial_scheme for p in prototypes.values() if kernel.supports(p)]
    batch = None
    if supported and schedules:
        batch = kernel.compile_batch(list(schedules), frozenset().union(*supported))
    mean_costs: dict[str, float] = {}
    for name, prototype in prototypes.items():
        costs = costs_of(lambda: copy.deepcopy(prototype), schedules, model, batch)
        mean_costs[name] = sum(costs) / len(costs)
    return SweepRow(value, dict(mean_costs), dict(mean_costs), mean_costs)


def point_cache_key(
    kind: str,
    parameter_name: str,
    value: float,
    model: CostModel,
    schedules: Sequence[Schedule],
    prototypes: Mapping[str, OnlineDOM],
    threshold: Optional[int] = None,
    exact_limit: Optional[int] = None,
) -> str:
    """The stable cache key of one sweep point.

    Keys the full experimental content — cost-model parameters, the
    materialized workload (the schedules embed their generator's
    seed), the algorithm set including each prototype's configuration,
    and the reference parameters — so any perturbation misses.
    """
    return stable_key(
        {
            "kind": kind,
            "parameter": parameter_name,
            "value": value,
            "model": model,
            "schedules": [str(schedule) for schedule in schedules],
            "algorithms": dict(prototypes),
            "threshold": threshold,
            "exact_limit": exact_limit,
        }
    )


def _decompose(
    kind: str,
    parameter_name: str,
    parameter_values: Sequence[float],
    factories_for: Callable[[float], Mapping[str, Callable[[], OnlineDOM]]],
    schedules_for: Callable[[float], Sequence[Schedule]],
    model_for: Callable[[float], CostModel],
    threshold_for: Optional[Callable[[float], int]],
    exact_limit: Optional[int],
    engine: ExperimentEngine,
) -> list[Task]:
    """One engine task per parameter value.

    The ``*_for`` callables run in the parent process; only their
    *outputs* (cost model, schedules, algorithm prototypes — all plain
    picklable values) travel to workers.
    """
    tasks = []
    for value in parameter_values:
        model = model_for(value)
        schedules = tuple(schedules_for(value))
        prototypes = {
            name: factory() for name, factory in factories_for(value).items()
        }
        if kind == "sweep":
            threshold = threshold_for(value) if threshold_for else 2
            args: tuple = (
                parameter_name, value, model, schedules, prototypes,
                threshold, exact_limit,
            )
            fn: Callable = _measure_point
        else:
            threshold = None
            args = (parameter_name, value, model, schedules, prototypes)
            fn = _cost_point
        key = None
        if engine.cache is not None:
            key = point_cache_key(
                kind, parameter_name, value, model, schedules, prototypes,
                threshold, exact_limit,
            )
        tasks.append(Task(fn, args, key=key, label=f"{parameter_name}={value}"))
    return tasks


def sweep(
    parameter_name: str,
    parameter_values: Sequence[float],
    factories_for: Callable[[float], Mapping[str, Callable[[], OnlineDOM]]],
    schedules_for: Callable[[float], Sequence[Schedule]],
    model_for: Callable[[float], CostModel],
    threshold_for: Callable[[float], int] = lambda value: 2,
    exact_limit: int = 14,
    engine: Optional[ExperimentEngine] = None,
) -> SweepResult:
    """Generic sweep driver.

    For each parameter value, builds the cost model, the schedule suite
    and one prototype per algorithm, measures every algorithm on every
    schedule against the offline reference, and records max/mean ratios
    and mean costs.  Pass an :class:`ExperimentEngine` to parallelize
    and/or cache; the default runs serially in-process.
    """
    if not parameter_values:
        raise ConfigurationError("no parameter values to sweep")
    engine = engine or ExperimentEngine()
    tasks = _decompose(
        "sweep", parameter_name, parameter_values, factories_for,
        schedules_for, model_for, threshold_for, exact_limit, engine,
    )
    rows = engine.run(tasks)
    return SweepResult(parameter_name, tuple(rows))


def cost_sweep(
    parameter_name: str,
    parameter_values: Sequence[float],
    factories_for: Callable[[float], Mapping[str, Callable[[], OnlineDOM]]],
    schedules_for: Callable[[float], Sequence[Schedule]],
    model_for: Callable[[float], CostModel],
    engine: Optional[ExperimentEngine] = None,
) -> SweepResult:
    """A cheaper sweep that skips the offline reference (ratios are set
    to raw mean costs) — used when only *relative* algorithm costs
    matter, e.g. the read/write-mix crossover on long schedules."""
    if not parameter_values:
        raise ConfigurationError("no parameter values to sweep")
    engine = engine or ExperimentEngine()
    tasks = _decompose(
        "cost-sweep", parameter_name, parameter_values, factories_for,
        schedules_for, model_for, None, None, engine,
    )
    rows = engine.run(tasks)
    return SweepResult(parameter_name, tuple(rows))
