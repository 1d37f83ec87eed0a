"""Exception hierarchy for the reproduction library.

All library-specific errors derive from :class:`ReproError`, so callers
can catch the whole family with a single ``except`` clause while still
being able to distinguish model violations (illegal schedules, broken
availability constraints) from configuration mistakes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of every error raised by the ``repro`` library."""


class ConfigurationError(ReproError):
    """A component was constructed with inconsistent parameters.

    Examples: a cost model with ``c_c > c_d`` (a data message cannot be
    cheaper than a control message, see Figure 1's "Cannot be true"
    region), an availability threshold ``t`` smaller than 2, or an
    initial allocation scheme smaller than ``t``.
    """


class IllegalScheduleError(ReproError):
    """An allocation schedule violates legality.

    Legality (paper §3.1): the execution set of every read request must
    have a non-empty intersection with the allocation scheme at the
    read request, i.e. every read must reach at least one *data
    processor* holding the latest version.
    """


class AvailabilityViolationError(ReproError):
    """The ``t``-available constraint was violated.

    Paper §3.1: an allocation schedule satisfies the ``t``-available
    constraint if the allocation scheme at every request has size at
    least ``t``.
    """


class ProtocolError(ReproError):
    """A distributed-simulation protocol reached an inconsistent state.

    Raised by :mod:`repro.distsim` when, e.g., a data message arrives at
    a processor that never requested it, or a quorum cannot be
    assembled from the live processors.
    """


class SimulationError(ReproError):
    """The discrete-event simulator detected an internal inconsistency."""


class ClusterError(ReproError):
    """A live-cluster operation failed.

    Raised by :mod:`repro.cluster` when, e.g., a wire frame is
    malformed, a request is routed to a crashed node, or a message is
    lost to injected transport faults in a way the protocol cannot
    absorb (a dropped read request, unlike a dropped store, leaves the
    reader without the object)."""


class ClusterDegradedError(ClusterError):
    """A live-cluster operation was rejected in degraded mode.

    Raised when a write cannot reach enough live processors to uphold
    the paper's availability and consistency guarantees — e.g. a
    partition makes a stale copy un-invalidatable, a store is lost after
    every retry, or every store target is down.  The
    rejection is the graceful-degradation contract: the write fails
    *typed* instead of acknowledging an update that could later be read
    stale or lost."""


class StorageError(ReproError):
    """A local-database operation failed (e.g. reading an object that
    was never stored, or reading an invalidated copy)."""
