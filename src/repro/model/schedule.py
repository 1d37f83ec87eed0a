"""Schedules: finite sequences of read-write requests.

Paper §3.1 example: ``psi_0 = w2 r4 w3 r1 r2`` is a schedule in which
the first request is a write from processor 2, the second a read from
processor 4, and so on.  :class:`Schedule` is an immutable sequence of
:class:`~repro.model.request.Request` objects with parsing, statistics
and slicing helpers used throughout the workload generators and
benchmark harnesses.

A schedule also has a *columnar form*, :attr:`Schedule.columns`: the
issuers as an int64 array and the kinds as a bool array, which the
kernel compiles from (:mod:`repro.kernel.compile`).  A schedule built
from requests computes it at most once, lazily on first use.  A
generator that already holds the arrays builds the schedule from them
instead (:meth:`Schedule.from_columns`): its ``requests`` tuple is then
materialized only when first read, so a trace that is only compiled
never builds one ``Request``.  Either way the columns are a cache, not
a field: ``==``, ``hash``, ``repr``, pickling and the engine's cache
keys see only ``requests``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from repro.exceptions import ConfigurationError
from repro.model.request import Request, RequestKind
from repro.types import ProcessorId, ProcessorSet, processor_set


class ScheduleColumns(NamedTuple):
    """A schedule's requests as two read-only arrays, one entry each."""

    #: int64 id of the issuing processor.
    processors: np.ndarray
    #: True at writes, False at reads.
    is_write: np.ndarray


_PROCESSOR = attrgetter("processor")
_IS_WRITE = attrgetter("is_write")


@dataclass(frozen=True)
class Schedule:
    """An immutable finite sequence of read-write requests."""

    requests: tuple[Request, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "requests", tuple(self.requests))
        # The set of item types is built in C; walk the items one by
        # one only to name the offender.
        if {Request}.issuperset(map(type, self.requests)):
            return
        for item in self.requests:
            if not isinstance(item, Request):
                raise ConfigurationError(
                    f"schedule items must be Request objects, got {item!r}"
                )

    def __getstate__(self) -> dict:
        # The columnar form is a cache: rebuilt on demand after unpickling.
        return {"requests": self.requests}

    @property
    def columns(self) -> ScheduleColumns:
        """The columnar form, computed on first use and then cached."""
        columns = self.__dict__.get("_columns")
        if columns is None:
            count = len(self.requests)
            columns = self._cache_columns(
                np.fromiter(map(_PROCESSOR, self.requests), np.int64, count),
                np.fromiter(map(_IS_WRITE, self.requests), bool, count),
            )
        return columns

    def _cache_columns(
        self, processors: np.ndarray, is_write: np.ndarray
    ) -> ScheduleColumns:
        processors.setflags(write=False)
        is_write.setflags(write=False)
        columns = ScheduleColumns(processors, is_write)
        object.__setattr__(self, "_columns", columns)
        return columns

    # -- construction --------------------------------------------------

    @classmethod
    def from_columns(
        cls,
        processors: np.ndarray,
        is_write: np.ndarray,
        build: Callable[[], tuple[Request, ...]],
    ) -> "Schedule":
        """A schedule held as its columnar form alone.

        The arrays are taken as int64/bool and made read-only.
        ``build()`` returns the matching request tuple; it is called on
        the first read of ``requests`` and must describe the columns
        position by position (the kernel's compile-oracle tests check
        this for every generator that uses it).  Its items are not
        checked again: the caller builds them with
        :func:`~repro.model.request.read` and
        :func:`~repro.model.request.write`.
        """
        processors = np.asarray(processors, dtype=np.int64)
        is_write = np.asarray(is_write, dtype=bool)
        if processors.ndim != 1 or processors.shape != is_write.shape:
            raise ConfigurationError(
                f"columns of shape {processors.shape}/{is_write.shape} do not "
                f"describe one schedule"
            )
        schedule = cls.__new__(cls)
        schedule._cache_columns(processors, is_write)
        object.__setattr__(schedule, "_build", build)
        return schedule

    def __getattr__(self, name: str):
        # Reached only for attributes not set on the instance, so
        # ``requests`` lands here once per columns-first schedule.
        build = self.__dict__.get("_build") if name == "requests" else None
        if build is None:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}"
            )
        requests = build()
        object.__setattr__(self, "requests", requests)
        return requests

    @classmethod
    def parse(cls, text: str) -> "Schedule":
        """Parse a whitespace-separated schedule in the paper's notation.

        >>> str(Schedule.parse("w2 r4 w3 r1 r2"))
        'w2 r4 w3 r1 r2'
        """
        return cls(tuple(Request.parse(token) for token in text.split()))

    # -- sequence protocol ----------------------------------------------

    def __len__(self) -> int:
        columns = self.__dict__.get("_columns")
        if columns is not None:
            return len(columns.processors)
        return len(self.requests)

    def __iter__(self) -> Iterator[Request]:
        return iter(self.requests)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Schedule(self.requests[index])
        return self.requests[index]

    def __add__(self, other: "Schedule") -> "Schedule":
        if not isinstance(other, Schedule):
            return NotImplemented
        return Schedule(self.requests + other.requests)

    def __mul__(self, times: int) -> "Schedule":
        """Repeat the schedule ``times`` times (used to build the
        arbitrarily long request sequences of the lower-bound
        constructions)."""
        if times < 0:
            raise ConfigurationError("repetition count must be non-negative")
        return Schedule(self.requests * times)

    __rmul__ = __mul__

    def __str__(self) -> str:
        return " ".join(str(r) for r in self.requests)

    # -- statistics ------------------------------------------------------

    @property
    def processors(self) -> ProcessorSet:
        """The set of processors issuing at least one request."""
        return processor_set(r.processor for r in self.requests)

    @property
    def read_count(self) -> int:
        return sum(1 for r in self.requests if r.is_read)

    @property
    def write_count(self) -> int:
        return sum(1 for r in self.requests if r.is_write)

    @property
    def write_fraction(self) -> float:
        """Fraction of requests that are writes (0.0 for an empty schedule)."""
        if not self.requests:
            return 0.0
        return self.write_count / len(self.requests)

    def reads_by(self, processor: ProcessorId) -> int:
        return sum(
            1 for r in self.requests if r.is_read and r.processor == processor
        )

    def writes_by(self, processor: ProcessorId) -> int:
        return sum(
            1 for r in self.requests if r.is_write and r.processor == processor
        )

    def request_counts(self) -> dict[ProcessorId, dict[str, int]]:
        """Per-processor read/write counts, e.g. for convergent baselines.

        Returns a mapping ``processor -> {"reads": n, "writes": m}``.
        """
        counts: dict[ProcessorId, dict[str, int]] = {}
        for request in self.requests:
            entry = counts.setdefault(request.processor, {"reads": 0, "writes": 0})
            key = "reads" if request.is_read else "writes"
            entry[key] += 1
        return counts

    # -- transformations ---------------------------------------------------

    def prefix(self, length: int) -> "Schedule":
        """The first ``length`` requests of the schedule."""
        return Schedule(self.requests[:length])

    def runs(self) -> list[tuple[RequestKind, ProcessorId, int]]:
        """Run-length encode the schedule as ``(kind, processor, count)``
        triples — useful for human-readable summaries of long workloads."""
        encoded: list[tuple[RequestKind, ProcessorId, int]] = []
        for request in self.requests:
            if (
                encoded
                and encoded[-1][0] is request.kind
                and encoded[-1][1] == request.processor
            ):
                kind, proc, count = encoded[-1]
                encoded[-1] = (kind, proc, count + 1)
            else:
                encoded.append((request.kind, request.processor, 1))
        return encoded


def concat(schedules: Sequence[Schedule]) -> Schedule:
    """Concatenate several schedules into one."""
    requests: list[Request] = []
    for schedule in schedules:
        requests.extend(schedule.requests)
    return Schedule(tuple(requests))
