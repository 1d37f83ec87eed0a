"""Allocation schedules: execution schedules with saving-reads.

Paper §3.1: *"An allocation schedule is an execution schedule in which
some reads are converted into saving-reads."*  This module defines
:class:`AllocationSchedule` (an initial allocation scheme plus a
sequence of executed requests), the evolution of the allocation scheme
along the schedule, and the two validity notions of the paper:

* **legality** — every read's execution set intersects the allocation
  scheme at that read (the read reaches a *data processor*);
* **t-availability** — the allocation scheme at every request (and at
  the end of the schedule) has at least ``t`` members.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.exceptions import (
    AvailabilityViolationError,
    ConfigurationError,
    IllegalScheduleError,
)
from repro.model.accounting import CostBreakdown, total
from repro.model.costs import next_scheme, request_breakdown
from repro.model.request import ExecutedRequest
from repro.model.schedule import Schedule
from repro.types import ProcessorSet, processor_set


@dataclass(frozen=True)
class AllocationSchedule:
    """An initial allocation scheme plus a sequence of executed requests."""

    initial_scheme: ProcessorSet
    steps: tuple[ExecutedRequest, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "initial_scheme", processor_set(self.initial_scheme)
        )
        object.__setattr__(self, "steps", tuple(self.steps))
        if not self.initial_scheme:
            raise ConfigurationError("the initial allocation scheme is empty")
        for step in self.steps:
            if not isinstance(step, ExecutedRequest):
                raise ConfigurationError(
                    f"allocation schedule items must be ExecutedRequest, got {step!r}"
                )

    # -- basic protocol ---------------------------------------------------

    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self) -> Iterator[ExecutedRequest]:
        return iter(self.steps)

    def __getitem__(self, index) -> ExecutedRequest:
        return self.steps[index]

    def __str__(self) -> str:
        init = ",".join(str(p) for p in sorted(self.initial_scheme))
        body = " ".join(str(step) for step in self.steps)
        return f"[init={{{init}}}] {body}"

    # -- scheme evolution ---------------------------------------------------

    def schemes(self) -> Iterator[tuple[ProcessorSet, ExecutedRequest]]:
        """Yield ``(scheme_at_request, executed_request)`` pairs.

        The scheme at the first request is the initial allocation scheme
        (paper §3.1).
        """
        scheme = self.initial_scheme
        for step in self.steps:
            yield scheme, step
            scheme = next_scheme(step, scheme)

    def scheme_at(self, index: int) -> ProcessorSet:
        """The allocation scheme at the request with the given index."""
        if index < 0 or index >= len(self.steps):
            raise IndexError(index)
        scheme = self.initial_scheme
        for position, step in enumerate(self.steps):
            if position == index:
                return scheme
            scheme = next_scheme(step, scheme)
        raise AssertionError("unreachable")  # pragma: no cover

    @property
    def final_scheme(self) -> ProcessorSet:
        """The allocation scheme after the last request."""
        scheme = self.initial_scheme
        for step in self.steps:
            scheme = next_scheme(step, scheme)
        return scheme

    # -- validity ---------------------------------------------------------

    def is_legal(self) -> bool:
        """True iff every read's execution set meets the scheme at the read."""
        try:
            self.check_legal()
        except IllegalScheduleError:
            return False
        return True

    def check_legal(self) -> None:
        """Raise :class:`IllegalScheduleError` on the first illegal read."""
        for position, (scheme, step) in enumerate(self.schemes()):
            if step.is_read and not (step.execution_set & scheme):
                raise IllegalScheduleError(
                    f"read #{position} ({step}) has execution set disjoint "
                    f"from the allocation scheme {sorted(scheme)}"
                )

    def satisfies_t_available(self, threshold: int) -> bool:
        """True iff the scheme at every request (and at the end) has at
        least ``threshold`` members."""
        try:
            self.check_t_available(threshold)
        except AvailabilityViolationError:
            return False
        return True

    def check_t_available(self, threshold: int) -> None:
        """Raise :class:`AvailabilityViolationError` on the first violation."""
        for position, (scheme, step) in enumerate(self.schemes()):
            if len(scheme) < threshold:
                raise AvailabilityViolationError(
                    f"scheme at request #{position} ({step}) has "
                    f"{len(scheme)} < {threshold} members"
                )
        if len(self.final_scheme) < threshold:
            raise AvailabilityViolationError(
                f"final scheme has {len(self.final_scheme)} < {threshold} members"
            )

    # -- correspondence ------------------------------------------------------

    def schedule(self) -> Schedule:
        """The corresponding schedule (paper §3.1): drop execution sets
        and turn every saving-read back into a read."""
        return Schedule(tuple(step.request for step in self.steps))

    def corresponds_to(self, schedule: Schedule) -> bool:
        """True iff this allocation schedule corresponds to ``schedule``."""
        return self.schedule() == schedule

    # -- cost ------------------------------------------------------------

    def breakdowns(self) -> list[CostBreakdown]:
        """Per-request cost breakdowns in schedule order."""
        return [
            request_breakdown(step, scheme) for scheme, step in self.schemes()
        ]

    def total_breakdown(self) -> CostBreakdown:
        """Aggregate breakdown of the whole allocation schedule."""
        return total(self.breakdowns())

    # -- construction ---------------------------------------------------------

    def extended(self, step: ExecutedRequest) -> "AllocationSchedule":
        """A new allocation schedule with ``step`` appended (the paper's
        *online step* produces exactly this)."""
        return AllocationSchedule(self.initial_scheme, self.steps + (step,))


def data_processors(
    schedule: AllocationSchedule, index: int
) -> ProcessorSet:
    """The *data processors* at request ``index`` (paper §3.1): members
    of the allocation scheme at that request."""
    return schedule.scheme_at(index)


def check_request_order_preserved(
    allocation: AllocationSchedule, schedule: Schedule
) -> None:
    """Raise if ``allocation`` does not correspond to ``schedule``.

    Used by tests and the DOM-runner to assert that algorithms never
    reorder, drop or invent requests.
    """
    produced = allocation.schedule()
    if produced != schedule:
        raise IllegalScheduleError(
            "allocation schedule does not correspond to the input schedule: "
            f"expected {schedule}, got {produced}"
        )
