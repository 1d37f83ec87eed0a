"""Invariant checkers the chaos harness runs during and after a run.

The freshness rule is the paper's model relaxed just enough for
failures: a successful read must return the **latest acknowledged**
version — or a *newer issued-but-unacknowledged* one, because a write
the cluster rejected (or whose acknowledgement was lost) may still have
landed its copies before failing.  What can never happen is a read
older than an acknowledged write: that would be a lost update.

``t``-availability and join-list consistency are checked against node
status reports right after each repair round, which is the only moment
they are guaranteed: between rounds a fresh crash may transiently
violate them — that is exactly what the next round repairs.
Quiescence is checked once, after the final fault-free sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Set

from repro.cluster.loadgen import RequestOutcome


@dataclass(frozen=True)
class Violation:
    """One invariant breach, anchored to a request index."""

    invariant: str
    at: int
    detail: str

    def describe(self) -> str:
        return f"[{self.invariant}] @request {self.at}: {self.detail}"


@dataclass
class InvariantTracker:
    """Accumulates ground truth and violations over one chaos run."""

    t: int
    core: Set[int] = field(default_factory=set)
    #: Highest version number a write acknowledged to the client.
    latest_acked: int = 0
    #: Every version number ever handed to a write (acked or not).
    #: Numbers are never reused: the harness advances the counter on
    #: issue, not on acknowledgement.
    issued: Set[int] = field(default_factory=lambda: {0})
    violations: List[Violation] = field(default_factory=list)
    writes_acked: int = 0
    writes_rejected: int = 0
    reads_ok: int = 0
    reads_failed: int = 0
    #: Per-node durable floor: the version number a ``log-fresh``
    #: recovery restored from the local log.  A node's stored version
    #: may only grow from there — regressing below the floor would mean
    #: durable state was lost after the log had proven it survived.
    durable_floors: Dict[int, int] = field(default_factory=dict)
    #: Recovery-tier histogram (``log-fresh``, ``log-stale``, ...),
    #: reported in the chaos result for auditing.
    recovery_tiers: Dict[str, int] = field(default_factory=dict)

    def _flag(self, invariant: str, at: int, detail: str) -> None:
        self.violations.append(Violation(invariant, at, detail))

    # -- workload outcomes -------------------------------------------------

    def record_write(self, at: int, number: int, outcome: RequestOutcome) -> None:
        self.issued.add(number)
        if not outcome.ok:
            self.writes_rejected += 1
            return
        self.writes_acked += 1
        if number <= self.latest_acked:
            self._flag(
                "write-order",
                at,
                f"acknowledged write {number} does not advance past "
                f"latest acknowledged {self.latest_acked}",
            )
            return
        self.latest_acked = number

    def record_read(self, at: int, outcome: RequestOutcome) -> None:
        if not outcome.ok:
            self.reads_failed += 1
            return
        self.reads_ok += 1
        got = outcome.version.number if outcome.version is not None else None
        if got == self.latest_acked:
            return
        if got is not None and got > self.latest_acked and got in self.issued:
            return  # an unacknowledged-but-issued newer version: allowed
        self._flag(
            "read-freshness",
            at,
            f"read returned version {got}, latest acknowledged is "
            f"{self.latest_acked} (issued: newer unacked allowed)",
        )

    # -- post-repair-round checks ------------------------------------------

    def check_repair(self, at: int, report) -> None:
        """``t``-availability: the round must end with >= t holders."""
        if report.degraded or len(report.holders) < self.t:
            self._flag(
                "t-availability",
                at,
                f"repair round {report.round_id} left holders "
                f"{list(report.holders)} (< t={self.t}): "
                f"{report.describe()}",
            )

    def check_join_lists(
        self, at: int, statuses: Mapping[int, Mapping[str, Any]]
    ) -> None:
        """DA: every live non-core valid-copy holder must be recorded in
        a live core member's join-list (else a write would miss it)."""
        if not self.core:
            return
        recorded: Set[int] = set()
        for member in self.core:
            status = statuses.get(member)
            if status is None or status.get("crashed"):
                continue
            recorded.update(int(n) for n in status.get("join_list", ()))
        orphans = sorted(
            node
            for node, status in statuses.items()
            if node not in self.core
            and not status.get("crashed")
            and status.get("holds_valid_copy")
            and node not in recorded
        )
        if orphans:
            self._flag(
                "join-list-consistency",
                at,
                f"valid-copy holders {orphans} are in no live core "
                f"member's join-list (recorded: {sorted(recorded)})",
            )

    # -- durability checks -------------------------------------------------

    def check_recovery(
        self, at: int, node: int, reply: Mapping[str, Any]
    ) -> None:
        """No lost durable state: a ``log-fresh`` rejoin may only
        restore a version the harness actually issued, and never one
        older than the latest acknowledged write — either would mean
        the node is serving durable state that cannot be real."""
        tier = str(reply.get("tier", "volatile"))
        self.recovery_tiers[tier] = self.recovery_tiers.get(tier, 0) + 1
        if tier != "log-fresh":
            return
        version = reply.get("version") or {}
        number = version.get("number")
        if number is None or int(number) not in self.issued:
            self._flag(
                "no-lost-durable-state",
                at,
                f"node {node} fresh-rejoined with version {number}, "
                "which was never issued",
            )
            return
        number = int(number)
        if number < self.latest_acked:
            self._flag(
                "no-lost-durable-state",
                at,
                f"node {node} fresh-rejoined with version {number} < "
                f"latest acknowledged {self.latest_acked} — the "
                "freshness probe vouched for stale state",
            )
            return
        self.durable_floors[node] = max(
            number, self.durable_floors.get(node, 0)
        )

    def check_durable_floors(
        self, at: int, statuses: Mapping[int, Mapping[str, Any]]
    ) -> None:
        """A node that fresh-rejoined at version ``f`` must never store
        a version below ``f`` again (stored versions only grow)."""
        for node, floor in sorted(self.durable_floors.items()):
            status = statuses.get(node)
            if status is None or status.get("crashed"):
                continue
            version = status.get("version") or {}
            number = version.get("number")
            if number is not None and int(number) < floor:
                self._flag(
                    "no-lost-durable-state",
                    at,
                    f"node {node} stores version {number}, below its "
                    f"durable floor {floor} from a log-fresh rejoin",
                )

    # -- after the run -----------------------------------------------------

    def check_quiescence(
        self, at: int, statuses: Mapping[int, Mapping[str, Any]]
    ) -> None:
        """Every request settled: with the cluster idle, no node may
        still hold an open request.  Nodes keep no clock, so an entry no
        rule settles would stay open for good."""
        open_requests = {
            node: status["pending"]
            for node, status in sorted(statuses.items())
            if status.get("pending")
        }
        if open_requests:
            self._flag(
                "quiescence",
                at,
                f"open requests by node after the final sweep: {open_requests}",
            )

    @property
    def ok(self) -> bool:
        return not self.violations
