"""Fault tolerance for the live cluster: retries, dedup, scheme repair.

Three building blocks every node runs with.  None of them fires on a
fault-free run, which is what keeps the four-way parity (live ==
stepped == simulated == kernel) intact:

* :class:`RetryPolicy` — seeded exponential backoff with jitter.  The
  same policy object drives both planes of at-least-once RPC: the
  closed-loop client re-sends ``exec`` frames after transport failures,
  and :class:`~repro.cluster.transport.PeerTransport` re-sends charged
  protocol messages swallowed by ``drop_next`` budgets or probabilistic
  drops.  Retries are counted in ``retries_sent``, *never* in the
  paper-class counters: the paper charges one logical message per
  transmission decision, so a retransmission is bookkeeping, not cost.
* :class:`DedupCache` — the idempotency half of at-least-once: each
  node remembers recent ``exec`` results by request id so a client
  retry of an already-applied write returns the cached reply instead of
  double-charging I/O.
* :class:`SchemeRepairer` — the availability half of the paper's
  ``t``-constraint under failures.  After a crash or recovery, a repair
  round queries every node's status, picks a surviving holder of the
  latest version as donor, and copies the object to live processors
  until at least ``t`` of them hold a valid copy again.  Each copy is
  charged as **one data message** (the cost model's price for moving
  the object) and separately counted in ``repairs_sent`` /
  ``repairs_received``.  Under DA the repaired non-core holders are
  *adopted* into a surviving core member's join-list (so future writes
  invalidate them); under SA the allocation scheme itself grows to
  cover the repair targets and is re-broadcast to every live node.

The repairer lives on the experimenter's side of the admin plane — it
plays the failure detector the paper's cited recovery literature
assumes, exactly like :class:`repro.distsim.failures.FailureInjector`
plays the adversary.
"""

from __future__ import annotations

import random
from collections import OrderedDict
from dataclasses import asdict, dataclass, fields
from typing import Any, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.exceptions import ClusterError

#: Request ids the repairer uses for its copy transfers.  Kept far above
#: any workload-assigned id so repair pendings can never collide with a
#: client request in flight at the donor.
REPAIR_RID_BASE = 1_000_000_000


# -- retry policy -----------------------------------------------------------


@dataclass(frozen=True)
class RetryPolicy:
    """Seeded exponential backoff with jitter.

    ``attempts`` counts transmissions, not re-transmissions: the default
    of 4 means one send plus up to three retries.  The backoff before
    retry ``k`` (0-based) is ``base_delay * multiplier**k`` capped at
    ``max_delay``, shrunk by up to ``jitter`` (a fraction in [0, 1])
    using the caller's RNG — deterministic under a seed, so a chaos run
    replays identically.
    """

    attempts: int = 4
    base_delay: float = 0.02
    multiplier: float = 2.0
    max_delay: float = 0.5
    jitter: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ClusterError("a retry policy needs at least one attempt")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ClusterError("backoff delays must be non-negative")
        if self.multiplier < 1.0:
            raise ClusterError("the backoff multiplier must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ClusterError("jitter must be a fraction within [0, 1]")

    def backoff(self, attempt: int, rng: random.Random) -> float:
        """Seconds to wait before retry number ``attempt`` (0-based)."""
        delay = min(self.max_delay, self.base_delay * self.multiplier**attempt)
        if self.jitter > 0.0:
            delay *= 1.0 - self.jitter * rng.random()
        return delay

    def rng_for(self, node_id: int) -> random.Random:
        """A per-node RNG stream, disjoint across nodes for one seed."""
        return random.Random(self.seed * 1_000_003 + node_id)

    # -- serialization (admin `resilience` frames) -------------------------

    def to_wire(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_wire(cls, wire: Mapping[str, Any]) -> "RetryPolicy":
        """Every field is a number, coerced to its default's type; an
        absent one keeps its default."""
        return cls(
            **{
                f.name: type(f.default)(wire.get(f.name, f.default))
                for f in fields(cls)
            }
        )


# -- idempotent request dedup ----------------------------------------------


class DedupCache:
    """A capacity-bounded insertion-ordered cache of request results.

    The node-side half of at-least-once RPC: replies to completed
    ``exec`` frames are remembered by request id, so a client retry of a
    request whose reply was lost re-reads the answer instead of
    re-running the (non-idempotent) write.  Insertion order doubles as
    the eviction order — request ids arrive roughly monotonically, so
    the oldest entry is also the least likely to be retried.
    """

    def __init__(self, capacity: int = 1024) -> None:
        if capacity < 1:
            raise ClusterError("the dedup cache needs a positive capacity")
        self.capacity = capacity
        # O(1) eviction: a plain dict's first key sits behind every
        # slot deleted before it, so each store of a full cache scans.
        self._entries: "OrderedDict[int, Any]" = OrderedDict()

    def __contains__(self, rid: int) -> bool:
        return rid in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, rid: int) -> Optional[Any]:
        return self._entries.get(rid)

    def store(self, rid: int, value: Any) -> None:
        if rid in self._entries:
            self._entries[rid] = value
            return
        while len(self._entries) >= self.capacity:
            self._entries.popitem(last=False)
        self._entries[rid] = value


# -- scheme repair ----------------------------------------------------------


@dataclass(frozen=True)
class RepairReport:
    """What one repair round found and did."""

    round_id: int
    #: Nodes that reported themselves crashed.
    crashed: Tuple[int, ...]
    #: Completed copy transfers, as ``(donor, target, version_number)``.
    repaired: Tuple[Tuple[int, int, int], ...]
    #: Non-core holders registered in a core member's join-list (DA).
    adopted: Tuple[int, ...]
    #: The allocation scheme after the round (grown under SA).
    scheme: Tuple[int, ...]
    #: Live reachable nodes holding a valid copy after the round.
    holders: Tuple[int, ...]
    #: True when the round could not restore ``t`` valid copies.
    degraded: bool

    def describe(self) -> str:
        verdict = "DEGRADED" if self.degraded else "ok"
        return (
            f"repair round {self.round_id}: {verdict}, "
            f"holders={list(self.holders)}, "
            f"repaired={[f'{d}->{t}@v{v}' for d, t, v in self.repaired]}, "
            f"adopted={list(self.adopted)}, scheme={list(self.scheme)}"
        )


class SchemeRepairer:
    """Drive scheme repair over a cluster handle's admin plane.

    Works against any object with the :class:`~repro.cluster.launcher.
    ClusterHandle` admin surface (``spec``, ``status_all``, ``repair``,
    ``adopt``, ``set_scheme``).  One :meth:`repair_round` restores the
    paper's ``t``-availability after each failure event; the chaos
    harness calls it between requests, standing in for the failure
    detector + repair daemon of a production system.
    """

    def __init__(self, cluster, t: Optional[int] = None) -> None:
        self.cluster = cluster
        self.t = int(t) if t is not None else len(cluster.spec.scheme)
        if self.t < 2:
            raise ClusterError("the availability threshold t must be >= 2")
        self.rounds = 0
        self._next_rid = REPAIR_RID_BASE

    # -- plumbing ---------------------------------------------------------

    def _rid(self) -> int:
        self._next_rid += 1
        return self._next_rid

    def _da_structure(self) -> Tuple[Set[int], int]:
        """DA's fixed (core, primary) split of the launch scheme."""
        scheme = set(self.cluster.spec.scheme)
        primary = self.cluster.spec.primary
        if primary is None:
            primary = max(scheme)
        return scheme - {primary}, primary

    # -- one round --------------------------------------------------------

    async def repair_round(
        self, reachable: Optional[Sequence[int]] = None
    ) -> RepairReport:
        """Restore ``t`` valid copies among live reachable processors.

        ``reachable`` restricts which nodes the repairer may use as
        donors or targets (the repairer itself lives in one side of a
        partition); ``None`` means everything.  Returns a report;
        ``degraded=True`` means the invariant could not be restored —
        e.g. no reachable node holds a valid copy.
        """
        self.rounds += 1
        statuses = await self.cluster.status_all()
        reach = (
            set(statuses) if reachable is None else set(reachable) & set(statuses)
        )
        crashed = tuple(
            sorted(n for n, s in statuses.items() if s.get("crashed"))
        )
        usable = {
            n for n in reach if not statuses[n].get("crashed")
        }
        protocol = self.cluster.spec.protocol.upper()

        # The current scheme: SA repair only ever *grows* it, so the
        # union of every usable node's view is the true scheme — a node
        # healed from a partition may still report a stale (smaller)
        # one, and trusting it alone would shrink the scheme under a
        # member that holds a managed copy.
        scheme = set(self.cluster.spec.scheme)
        for n in sorted(usable):
            reported = statuses[n].get("scheme")
            if reported:
                scheme |= {int(p) for p in reported}

        holders = {
            n: int(statuses[n]["version"]["number"])
            for n in sorted(usable)
            if statuses[n].get("holds_valid_copy")
            and statuses[n].get("version") is not None
        }
        if not holders:
            return RepairReport(
                round_id=self.rounds,
                crashed=crashed,
                repaired=(),
                adopted=(),
                scheme=tuple(sorted(scheme)),
                holders=(),
                degraded=True,
            )
        latest = max(holders.values())
        donor = min(n for n, number in holders.items() if number == latest)

        # Scheme members first (restore the structure the protocols
        # route through), then ascending processor ids up to t copies.
        targets: List[int] = [
            n for n in sorted(scheme) if n in usable and n not in holders
        ]
        have = len(holders) + len(targets)
        for n in sorted(usable):
            if have >= self.t:
                break
            if n in holders or n in targets:
                continue
            targets.append(n)
            have += 1
        # Stale-but-valid holders are refreshed too (one charged data
        # message each): a holder whose invalidation died with a crashed
        # serving member would otherwise keep serving an old version.
        targets += [
            n
            for n, number in sorted(holders.items())
            if number < latest and n != donor and n not in targets
        ]

        repaired: List[Tuple[int, int, int]] = []
        failed_targets: List[int] = []
        spares = iter(
            [n for n in sorted(usable) if n not in holders and n not in targets]
        )
        # The loop also visits targets appended while it runs.
        for target in targets:
            try:
                await self.cluster.repair(donor, target, self._rid())
            except ClusterError:
                failed_targets.append(target)
                # Fail over as a read does: while t copies are short,
                # copy to the next usable processor instead.
                copies = len(holders) + sum(
                    1
                    for n in targets
                    if n not in holders and n not in failed_targets
                )
                spare = next(spares, None) if copies < self.t else None
                if spare is not None:
                    targets.append(spare)
                continue
            repaired.append((donor, target, latest))

        holders_after = tuple(
            sorted(set(holders) | {target for _, target, _ in repaired})
        )

        adopted: Tuple[int, ...] = ()
        adoption_ok = True
        if protocol == "DA":
            adopted, adoption_ok = await self._adopt_orphans(
                statuses, usable, holders_after
            )
        else:
            grown = scheme | {target for _, target, _ in repaired}
            # Re-broadcast even when unchanged: a freshly recovered node
            # rejoined with the launch-time scheme and must learn any
            # growth it missed while down.
            await self.cluster.set_scheme(sorted(grown), nodes=sorted(usable))
            scheme = grown

        return RepairReport(
            round_id=self.rounds,
            crashed=crashed,
            repaired=tuple(repaired),
            adopted=adopted,
            scheme=tuple(sorted(scheme)),
            holders=holders_after,
            # A failed copy degrades the round only if no spare made up
            # for it, or if it left a stale holder unrefreshed.
            degraded=(
                len(holders_after) < self.t
                or any(target in holders for target in failed_targets)
                or not adoption_ok
            ),
        )

    async def _adopt_orphans(
        self,
        statuses: Mapping[int, Mapping[str, Any]],
        usable: Set[int],
        holders_after: Sequence[int],
    ) -> Tuple[Tuple[int, ...], bool]:
        """Register non-core holders in a live core member's join-list.

        A crashed serving member takes its join-list with it; the
        surviving holders it knew about become *orphans* no write would
        invalidate.  Reconstruct the list from ground truth (who holds a
        valid copy) and adopt the orphans into the lowest live core
        member, flagged as a *steward* so it keeps recording non-core
        holders after each walk even if it is not the default server.

        The prospective steward may itself crash between the status
        snapshot and the adopt call; each candidate is tried in turn,
        and a round where *every* candidate failed reports
        ``(orphans, False)`` so the caller marks the round degraded
        instead of raising — the next repair pass converges without
        re-copying data (the orphans keep their valid copies).

        Returns ``(adopted, ok)``.
        """
        core, _ = self._da_structure()
        live_core = sorted(n for n in core if n in usable)
        if not live_core:
            return (), True
        recorded: Set[int] = set()
        for member in live_core:
            recorded.update(
                int(n) for n in statuses[member].get("join_list", ())
            )
        orphans = sorted(
            n for n in holders_after if n not in core and n not in recorded
        )
        if not orphans:
            return (), True
        for steward in live_core:
            try:
                await self.cluster.adopt(steward, orphans, steward=True)
            except ClusterError:
                continue  # crashed mid-repair; try the next core member
            return tuple(orphans), True
        return tuple(orphans), False

    # -- tiered recovery ---------------------------------------------------

    async def recover_node(
        self, node_id: int, reachable: Optional[Sequence[int]] = None
    ) -> Tuple[Dict[str, Any], Optional[RepairReport]]:
        """Recover one node through the tiered durable path.

        Tier 1 (``log-fresh``): the node's replayed WAL held the latest
        version — it rejoined with zero data messages and no repair
        round is needed.  Every other tier (stale/empty/unverified log,
        or a fully volatile node) falls back to a
        :meth:`repair_round`, the network copy path.  Returns the
        recover reply and the repair report (None on the fresh tier).
        """
        reply = await self.cluster.recover(node_id)
        if reply.get("tier") == "log-fresh":
            return reply, None
        return reply, await self.repair_round(reachable=reachable)
