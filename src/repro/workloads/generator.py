"""Workload generator base class and helpers.

Every generator is deterministic given a seed: benchmark runs are
reproducible, and the hypothesis-based property tests can shrink
failing workloads.  Generators produce
:class:`~repro.model.schedule.Schedule` objects — pure request
sequences — so any DOM algorithm (and the offline optimum) can consume
them unchanged.

Seeding discipline (required for cross-process determinism in the
experiment engine): no generator ever touches the module-level
``random`` state.  ``generate`` accepts an integer seed or a
caller-owned :class:`random.Random` and builds every request from that
private stream, so the same seed yields the identical trace in any
process, any interpreter run, any ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import abc
import random
from typing import Iterable, Optional, Sequence

from repro.engine.seeding import SeedLike, derive_seed, rng_from
from repro.exceptions import ConfigurationError
from repro.model.request import Request, read, write
from repro.model.schedule import Schedule
from repro.types import ProcessorId


class WorkloadGenerator(abc.ABC):
    """Abstract base for schedule generators."""

    def __init__(self, processors: Iterable[ProcessorId], length: int) -> None:
        self.processors: tuple[ProcessorId, ...] = tuple(sorted(set(processors)))
        if not self.processors:
            raise ConfigurationError("a workload needs at least one processor")
        if length < 0:
            raise ConfigurationError(f"length must be non-negative, got {length}")
        self.length = length

    @abc.abstractmethod
    def generate(self, seed: SeedLike = 0) -> Schedule:
        """Produce a schedule of ``self.length`` requests."""

    def batch(self, count: int, seed: int = 0) -> list[Schedule]:
        """Produce ``count`` schedules with consecutive seeds.

        Kept for compatibility with existing suites; note that batches
        rooted at nearby seeds overlap (seed 42's second schedule is
        seed 43's first).  New code wanting disjoint suites should use
        :meth:`batch_independent`.
        """
        return [self.generate(seed + offset) for offset in range(count)]

    def batch_independent(self, count: int, root_seed: int = 0) -> list[Schedule]:
        """``count`` schedules on hash-derived seeds: batches rooted at
        different seeds never share a schedule stream."""
        stream = type(self).__name__
        return [
            self.generate(derive_seed(root_seed, offset, stream))
            for offset in range(count)
        ]


def weighted_choice(
    rng: random.Random,
    items: Sequence[ProcessorId],
    weights: Optional[Sequence[float]] = None,
) -> ProcessorId:
    """Pick one item, optionally with weights.

    A sequence is drawn from as it stands; copying it first would cost
    a list per draw and change nothing about the draw.
    """
    if not isinstance(items, Sequence):
        items = list(items)
    if weights is None:
        return rng.choice(items)
    return rng.choices(items, weights=weights, k=1)[0]


def random_request(
    rng: random.Random,
    processor: ProcessorId,
    write_fraction: float,
) -> Request:
    """A read or write by ``processor`` with the given write probability."""
    if rng.random() < write_fraction:
        return write(processor)
    return read(processor)


def validate_write_fraction(write_fraction: float) -> float:
    if not 0.0 <= write_fraction <= 1.0:
        raise ConfigurationError(
            f"write_fraction must be in [0, 1], got {write_fraction}"
        )
    return write_fraction
