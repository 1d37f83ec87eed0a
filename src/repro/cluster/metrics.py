"""Per-node metrics of the live cluster.

Each node counts exactly what the simulated network counts: messages by
paper class at the *sender* (the transmission happened, whatever the
fate of the delivery — matching
:meth:`repro.distsim.network.Network.charge_and_schedule`), I/O
operations at the node that performed them, and drops wherever the loss
was decided (sender-side transport faults, receiver-side crashes).

Aggregating the per-node counters therefore reproduces the global
:class:`~repro.distsim.statistics.SimulationStats` of a simulated run —
which is the bridge the end-to-end parity tests walk: live totals ==
simulated totals == stepped model accounting == kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.distsim.messages import Message, MessageClass
from repro.distsim.statistics import SimulationStats
from repro.exceptions import ClusterError


#: Field-metadata key naming the bookkeeping group a counter belongs
#: to; untagged counters are the paper's charged units and request
#: tallies that :func:`aggregate` folds into ``SimulationStats``.
GROUP = "group"


def _counter(group: Optional[str] = None):
    return field(default=0, metadata={GROUP: group})


@dataclass
class NodeMetrics:
    """Counters one node accumulates while serving — integers only;
    request latency is timed by the client that issued the request.

    The wire form (admin ``metrics`` frames) and the bookkeeping totals
    are derived from the dataclass fields, so a new counter is shipped
    and summed by declaring it here."""

    node_id: int
    control_sent: int = _counter()
    data_sent: int = _counter()
    io_reads: int = _counter()
    io_writes: int = _counter()
    dropped_messages: int = _counter()
    requests_completed: int = _counter()
    request_errors: int = _counter()
    #: Resilience-layer counters, kept OUT of the paper-class totals:
    #: a retransmission, a repair copy or a dedup hit is bookkeeping of
    #: the fault-tolerance machinery, not a charged unit of the cost
    #: model (repairs additionally charge ``data_sent`` — the one data
    #: message the cost model prices a copy at — but are reported here
    #: separately so faulted runs can subtract them).
    retries_sent: int = _counter("resilience")
    repairs_sent: int = _counter("resilience")
    repairs_received: int = _counter("resilience")
    dedup_hits: int = _counter("resilience")
    degraded_rejections: int = _counter("resilience")
    #: Durability bookkeeping, also kept OUT of the paper-class totals.
    #: WAL appends and snapshots ride on an already-charged ``c_io``
    #: write; only *replay* is charged (into ``io_reads``) at recovery
    #: time, so these counters exist to audit the machinery, not to
    #: price it twice.
    wal_appends: int = _counter("durability")
    wal_replayed: int = _counter("durability")
    wal_truncations: int = _counter("durability")
    snapshots_written: int = _counter("durability")
    #: Recoveries that rejoined from the local log with zero data
    #: messages (the tiered-recovery fast path).
    fresh_rejoins: int = _counter("durability")

    def charge_message(self, message: Message) -> None:
        """Count an outgoing protocol message by its paper class."""
        if message.message_class is MessageClass.DATA:
            self.data_sent += 1
        else:
            self.control_sent += 1

    # -- serialization (admin `metrics` frames) ---------------------------

    def to_wire(self) -> Dict[str, Any]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_wire(cls, wire: Mapping[str, Any]) -> "NodeMetrics":
        missing = [f.name for f in fields(cls) if f.name not in wire]
        if missing:
            raise ClusterError(f"metrics frame lacks {missing}")
        return cls(**{f.name: int(wire[f.name]) for f in fields(cls)})


def _group_totals(metrics: Iterable[NodeMetrics], group: str) -> Dict[str, int]:
    names = [f.name for f in fields(NodeMetrics) if f.metadata.get(GROUP) == group]
    totals = dict.fromkeys(names, 0)
    for node in metrics:
        for name in names:
            totals[name] += getattr(node, name)
    return totals


def aggregate(metrics: Iterable[NodeMetrics]) -> SimulationStats:
    """Sum per-node counters into the simulator's statistics type.

    Each request originates at exactly one node, so request counts add
    without double counting.  ``latencies`` stays empty: the nodes keep
    none (the client times every request).
    """
    stats = SimulationStats()
    for node in metrics:
        stats.control_messages += node.control_sent
        stats.data_messages += node.data_sent
        stats.io_reads += node.io_reads
        stats.io_writes += node.io_writes
        stats.dropped_messages += node.dropped_messages
        stats.requests_completed += node.requests_completed
    return stats


def resilience_totals(metrics: Iterable[NodeMetrics]) -> Dict[str, int]:
    """Sum the fault-tolerance counters across nodes.

    Kept apart from :func:`aggregate` on purpose: the paper's
    :class:`~repro.distsim.statistics.SimulationStats` must stay exactly
    the charged units, so parity comparisons never see these."""
    return _group_totals(metrics, "resilience")


def durability_totals(metrics: Iterable[NodeMetrics]) -> Dict[str, int]:
    """Sum the WAL/snapshot/recovery counters across nodes.

    Like :func:`resilience_totals`, kept apart from :func:`aggregate`:
    the only durability cost the paper model prices is recovery replay,
    and that is already charged into ``io_reads`` where it happened."""
    return _group_totals(metrics, "durability")


def latency_histogram(
    latencies: Iterable[float], buckets: int = 10
) -> List[Tuple[float, int]]:
    """Equal-width histogram as ``(bucket upper bound, count)`` pairs.

    A constant series collapses into a single bucket and an empty one
    into no buckets at all — both shapes the ASCII plotter must accept
    (see :func:`repro.viz.ascii_plot.render_series`).
    """
    values = sorted(latencies)
    if not values:
        return []
    if buckets < 1:
        raise ValueError("histogram needs at least one bucket")
    low, high = values[0], values[-1]
    if math.isclose(low, high):
        return [(high, len(values))]
    width = (high - low) / buckets
    counts = [0] * buckets
    for value in values:
        index = min(int((value - low) / width), buckets - 1)
        counts[index] += 1
    return [
        (low + (index + 1) * width, counts[index]) for index in range(buckets)
    ]


def percentile(latencies: List[float], fraction: float) -> float:
    """Nearest-rank percentile of a non-empty latency list."""
    if not latencies:
        raise ValueError("no latencies recorded")
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be within [0, 1], got {fraction}")
    values = sorted(latencies)
    rank = min(len(values) - 1, max(0, math.ceil(fraction * len(values)) - 1))
    return values[rank]
