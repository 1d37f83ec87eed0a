"""The chaos harness: replay a fault plan against a live cluster.

One :func:`run_chaos` call is a complete experiment:

1. launch a resilient local cluster (retries + dedup installed, which
   fault-free parity says changes nothing until faults fire);
2. install the ambient fault plan (seeded probabilistic drops);
3. replay a seeded closed-loop workload; before each request, apply
   the fault events the plan schedules at that index — and after every
   event run one :class:`~repro.cluster.resilience.SchemeRepairer`
   round, then check ``t``-availability and (DA) join-list consistency;
4. heal everything, run a final repair round, and sweep a fault-free
   read over every node — the "no lost acknowledged writes" check —
   after which no node may hold an open request;
5. report outcomes, violations, charged stats and resilience counters.

The closed loop matters: fault events apply *between* requests, so the
repair round after each event restores the invariants before the next
request can observe their violation — the induction the plan
generator's constraints are designed around.
"""

from __future__ import annotations

import asyncio
import random
import tempfile
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.chaos.invariants import InvariantTracker, Violation
from repro.chaos.plan import ChaosPlan, FaultEvent, generate_plan
from repro.cluster.durability import wal_path
from repro.cluster.launcher import ClusterSpec, start_local_cluster
from repro.cluster.loadgen import ClusterClient, RequestOutcome
from repro.cluster.metrics import aggregate, durability_totals, resilience_totals
from repro.cluster.resilience import RetryPolicy, SchemeRepairer
from repro.cluster.transport import FaultPlan
from repro.distsim.statistics import SimulationStats
from repro.exceptions import ClusterError, StorageError
from repro.storage.versions import ObjectVersion
from repro.storage.wal import inject_tail_corruption, inject_torn_tail

#: Damaged-log events a durable chaos run schedules when the caller
#: does not pick a count (capped by the number of crash intervals).
DEFAULT_TORN_WRITES = 2


@dataclass
class ChaosConfig:
    """Parameters of one chaos experiment (all defaults CI-friendly)."""

    protocol: str = "DA"
    nodes: int = 5
    #: Availability threshold; the launch scheme is the first ``t``
    #: processors (DA primary: the highest of them, the repo default).
    t: int = 2
    requests: int = 200
    write_fraction: float = 0.3
    seed: int = 0
    crashes: Optional[int] = None
    partitions: int = 1
    drop_bursts: Optional[int] = None
    drop_probability: float = 0.02
    #: Transmissions per message/request (1 send + attempts-1 retries).
    attempts: int = 4
    transport: str = "auto"
    client_timeout: float = 20.0
    #: Give every node a WAL + snapshots and route recoveries through
    #: the tiered log-replay path (see docs/durability.md).
    durable: bool = False
    #: Where the per-node state dirs live; ``None`` = a temp dir owned
    #: by the run.  Setting this implies ``durable``.
    state_dir: Optional[str] = None
    #: Damaged-log events (torn tails / flipped bytes) to schedule on
    #: crashed nodes' WALs; ``None`` = a durable default, 0 disables.
    torn_writes: Optional[int] = None

    def __post_init__(self) -> None:
        if self.nodes < 2:
            raise ClusterError("chaos needs at least two nodes")
        if not 2 <= self.t <= self.nodes:
            raise ClusterError("need 2 <= t <= nodes")
        if self.attempts < 2:
            raise ClusterError("chaos needs at least two attempts to retry")
        if self.state_dir is not None:
            self.durable = True
        if self.torn_writes and not self.durable:
            raise ClusterError(
                "--torn-writes shears write-ahead logs: it needs --durable"
            )

    @property
    def processors(self) -> Tuple[int, ...]:
        return tuple(range(1, self.nodes + 1))

    @property
    def scheme(self) -> Tuple[int, ...]:
        return self.processors[: self.t]

    @property
    def primary(self) -> int:
        return max(self.scheme)

    @property
    def effective_torn_writes(self) -> int:
        if not self.durable:
            return 0
        if self.torn_writes is None:
            return DEFAULT_TORN_WRITES
        return self.torn_writes

    def build_plan(self) -> ChaosPlan:
        return generate_plan(
            protocol=self.protocol,
            processors=self.processors,
            scheme=self.scheme,
            primary=self.primary,
            requests=self.requests,
            write_fraction=self.write_fraction,
            seed=self.seed,
            crashes=self.crashes,
            partitions=self.partitions,
            drop_bursts=self.drop_bursts,
            drop_probability=self.drop_probability,
            attempts=self.attempts,
            torn_writes=self.effective_torn_writes,
        )


@dataclass
class ChaosResult:
    """Everything one chaos run produced."""

    plan: ChaosPlan
    violations: List[Violation]
    writes_acked: int
    writes_rejected: int
    reads_ok: int
    reads_failed: int
    latest_acked: int
    repair_rounds: int
    client_retries: int
    stats: SimulationStats
    resilience: Dict[str, int] = field(default_factory=dict)
    #: WAL/snapshot counters (durable runs only; see durability_totals).
    durability: Dict[str, int] = field(default_factory=dict)
    #: How often each recovery tier fired (``log-fresh`` etc.).
    recovery_tiers: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations

    def describe(self) -> str:
        lines = [
            self.plan.describe(),
            (
                f"requests: {self.reads_ok + self.writes_acked} ok "
                f"({self.writes_acked} writes acked, {self.reads_ok} reads), "
                f"{self.writes_rejected} writes rejected, "
                f"{self.reads_failed} reads failed; "
                f"latest acknowledged version {self.latest_acked}"
            ),
            (
                f"resilience: {self.repair_rounds} repair rounds, "
                f"{self.resilience.get('repairs_sent', 0)} repairs, "
                f"{self.resilience.get('retries_sent', 0)} node retries, "
                f"{self.client_retries} client retries, "
                f"{self.resilience.get('dedup_hits', 0)} dedup hits, "
                f"{self.resilience.get('degraded_rejections', 0)} degraded "
                "rejections"
            ),
            (
                f"charged: {self.stats.control_messages} control, "
                f"{self.stats.data_messages} data, "
                f"{self.stats.io_reads}+{self.stats.io_writes} I/O, "
                f"{self.stats.dropped_messages} drops"
            ),
        ]
        if self.durability:
            tiers = ", ".join(
                f"{tier} x{count}"
                for tier, count in sorted(self.recovery_tiers.items())
            ) or "none"
            lines.append(
                f"durability: {self.durability.get('wal_appends', 0)} WAL "
                f"appends, {self.durability.get('snapshots_written', 0)} "
                f"snapshots, {self.durability.get('wal_replayed', 0)} "
                f"records replayed, "
                f"{self.durability.get('wal_truncations', 0)} damage "
                f"truncations, {self.durability.get('fresh_rejoins', 0)} "
                f"fresh rejoins; recoveries: {tiers}"
            )
        if self.violations:
            lines.append(f"INVARIANT VIOLATIONS ({len(self.violations)}):")
            lines += ["  " + violation.describe() for violation in self.violations]
        else:
            lines.append("invariants: all held")
        return "\n".join(lines)


class _FaultState:
    """Composes the ambient plan, the active partition and drop bursts
    into per-sender :class:`FaultPlan` objects, and installs them."""

    def __init__(self, cluster, plan: ChaosPlan) -> None:
        self.cluster = cluster
        self.plan = plan
        self.partition: Tuple[Tuple[int, ...], ...] = ()

    def _plan_for(
        self, sender: int, budgets: Dict[Tuple[int, int], int]
    ) -> FaultPlan:
        return FaultPlan(
            drop_probability=self.plan.drop_probability,
            # Decorrelate the per-sender drop streams under one seed.
            seed=self.plan.seed * 31 + sender,
            partitions=tuple(frozenset(group) for group in self.partition),
            drop_next=dict(budgets),
        )

    async def install_all(self) -> None:
        for node_id in self.plan.processors:
            await self.cluster.set_fault_plan(
                self._plan_for(node_id, {}), nodes=[node_id]
            )

    async def apply_drops(self, event: FaultEvent) -> None:
        by_sender: Dict[int, Dict[Tuple[int, int], int]] = {}
        for sender, receiver, count in event.budgets:
            by_sender.setdefault(sender, {})[(sender, receiver)] = count
        for sender, budgets in by_sender.items():
            await self.cluster.set_fault_plan(
                self._plan_for(sender, budgets), nodes=[sender]
            )

    async def set_partition(
        self, groups: Tuple[Tuple[int, ...], ...]
    ) -> None:
        self.partition = groups
        await self.install_all()

    async def clear_all(self) -> None:
        self.partition = ()
        await self.cluster.set_fault_plan(None)

    @property
    def majority(self) -> Optional[Tuple[int, ...]]:
        return self.partition[0] if self.partition else None


async def run_chaos(config: ChaosConfig) -> ChaosResult:
    """Run one seeded chaos experiment; see the module docstring."""
    plan = config.build_plan()
    workload_rng = random.Random(config.seed + 1)
    policy = RetryPolicy(
        attempts=config.attempts,
        base_delay=0.005,
        max_delay=0.08,
        seed=config.seed,
    )
    tempdir: Optional[tempfile.TemporaryDirectory] = None
    state_root = config.state_dir
    if config.durable and state_root is None:
        tempdir = tempfile.TemporaryDirectory(prefix="repro-chaos-")
        state_root = tempdir.name
    spec = ClusterSpec(
        processors=plan.processors,
        scheme=frozenset(plan.scheme),
        protocol=plan.protocol,
        primary=plan.primary,
        transport=config.transport,
        resilience=policy,
        state_dir=state_root if config.durable else None,
    )
    cluster = await start_local_cluster(spec)
    client = ClusterClient(
        cluster.addresses, timeout=config.client_timeout, retry=policy
    )
    repairer = SchemeRepairer(cluster, t=config.t)
    tracker = InvariantTracker(
        t=config.t,
        core=(
            set(plan.scheme) - {plan.primary}
            if plan.protocol == "DA"
            else set()
        ),
    )
    faults = _FaultState(cluster, plan)
    crashed: set = set()
    client_retries = 0
    next_number = 0
    next_rid = 0

    async def repair_and_check(at: int) -> None:
        report = await repairer.repair_round(reachable=faults.majority)
        tracker.check_repair(at, report)
        statuses = await cluster.status_all(nodes=faults.majority)
        tracker.check_join_lists(at, statuses)
        tracker.check_durable_floors(at, statuses)

    async def apply_event(event: FaultEvent) -> None:
        if event.kind == "crash":
            await cluster.crash(event.node)
            crashed.add(event.node)
        elif event.kind == "recover":
            reply = await cluster.recover(event.node)
            tracker.check_recovery(event.at, event.node, reply)
            crashed.discard(event.node)
        elif event.kind in ("torn", "corrupt"):
            # Damage the crashed victim's WAL tail — latent until the
            # CRC framing detects it at replay time.  No repair round:
            # nothing observable changed yet.  A victim that never
            # journaled anything has no log to damage; skip.
            if state_root is None:
                return
            path = wal_path(state_root, event.node)
            try:
                if event.kind == "torn":
                    inject_torn_tail(path, event.amount)
                else:
                    inject_tail_corruption(
                        path, offset_from_end=event.amount
                    )
            except StorageError:
                pass
            return
        elif event.kind == "partition":
            await faults.set_partition(event.groups)
        elif event.kind == "heal":
            await faults.set_partition(())
        elif event.kind == "drops":
            await faults.apply_drops(event)
            return  # retryable by construction; no repair needed
        await repair_and_check(event.at)

    try:
        await faults.install_all()
        for index in range(1, plan.requests + 1):
            for event in plan.events_at(index):
                await apply_event(event)
            reachable = faults.majority or plan.processors
            candidates = [p for p in reachable if p not in crashed]
            origin = workload_rng.choice(candidates)
            next_rid += 1
            if workload_rng.random() < plan.write_fraction:
                next_number += 1  # advances even if the write fails
                outcome = await client.execute(
                    origin,
                    "write",
                    next_rid,
                    ObjectVersion(next_number, origin),
                )
                tracker.record_write(index, next_number, outcome)
            else:
                outcome = await client.execute(origin, "read", next_rid)
                tracker.record_read(index, outcome)
            client_retries += outcome.retries

        # Heal, recover, repair — then the lost-update sweep: with no
        # faults left, every node must serve the latest acknowledged
        # version (or a newer issued one that landed without its ack).
        await faults.clear_all()
        for node_id in sorted(crashed):
            reply = await cluster.recover(node_id)
            tracker.check_recovery(plan.requests + 1, node_id, reply)
        crashed.clear()
        await repair_and_check(plan.requests + 1)
        for node_id in plan.processors:
            next_rid += 1
            outcome = await client.execute(node_id, "read", next_rid)
            if not outcome.ok:
                tracker.violations.append(
                    Violation(
                        "final-sweep",
                        plan.requests + 1,
                        f"fault-free read at node {node_id} failed: "
                        f"{outcome.error}",
                    )
                )
            else:
                tracker.record_read(plan.requests + 1, outcome)
        tracker.check_quiescence(plan.requests + 1, await cluster.status_all())

        metrics = await cluster.metrics()
        stats = aggregate(metrics.values())
        extras = resilience_totals(metrics.values())
        durability = (
            durability_totals(metrics.values()) if config.durable else {}
        )
    finally:
        await client.close()
        await cluster.stop()
        if tempdir is not None:
            tempdir.cleanup()

    return ChaosResult(
        plan=plan,
        violations=tracker.violations,
        writes_acked=tracker.writes_acked,
        writes_rejected=tracker.writes_rejected,
        reads_ok=tracker.reads_ok,
        reads_failed=tracker.reads_failed,
        latest_acked=tracker.latest_acked,
        repair_rounds=repairer.rounds,
        client_retries=client_retries,
        stats=stats,
        resilience=extras,
        durability=durability,
        recovery_tiers=dict(tracker.recovery_tiers),
    )
