"""Integration: opt-in fault tolerance on the live cluster.

At-least-once retries over lossy links and to a peer that refuses the
dial, the one rule that settles a frame lost on every attempt, node-side
dedup of duplicated client requests, scheme repair back to ``t`` valid
copies (with DA join-list adoption), degraded-mode write rejection
under a partition, client connection recovery, and the headline
guarantee that fault-free runs stay bit-identical with resilience
enabled.
"""

from __future__ import annotations

import asyncio
import time

import pytest

from repro.cluster import (
    ClusterClient,
    ClusterSpec,
    FaultPlan,
    RetryPolicy,
    SchemeRepairer,
    replay_schedule,
    resilience_totals,
    start_local_cluster,
)
from repro.cluster.rpc import MAX_FRAME_BYTES
from repro.core.dynamic_allocation import DynamicAllocation
from repro.exceptions import ClusterError
from repro.storage.versions import ObjectVersion
from repro.workloads.uniform import UniformWorkload
from tests.integration.live_loop import run
from tests.integration.raw_frames import RawConnection

SCHEME = frozenset({1, 2})
PRIMARY = 2

#: Fast backoff so faulted tests spend milliseconds, not seconds.
POLICY = RetryPolicy(attempts=4, base_delay=0.005, max_delay=0.05, seed=0)


async def booted(protocol: str = "DA", processors=(1, 2, 3)):
    spec = ClusterSpec(
        processors=tuple(processors),
        scheme=SCHEME,
        protocol=protocol,
        primary=PRIMARY if protocol == "DA" else None,
        resilience=POLICY,
    )
    cluster = await start_local_cluster(spec)
    client = ClusterClient(cluster.addresses, timeout=10.0, retry=POLICY)
    return cluster, client


class TestRetries:
    def test_write_survives_dropped_store(self):
        async def scenario():
            cluster, client = await booted()
            try:
                # Two drops on the store link 1->2; attempt 3 delivers.
                await cluster.set_fault_plan(
                    FaultPlan(drop_next={(1, 2): 2}), nodes=[1]
                )
                write = await client.execute(
                    1, "write", rid=1, version=ObjectVersion(1, 1)
                )
                assert write.ok

                metrics = await cluster.metrics()
                totals = resilience_totals(metrics.values())
                assert totals["retries_sent"] >= 2
                # Paper accounting is unchanged: one charged data
                # message; the faulted attempts count only as drops.
                assert metrics[1].data_sent == 1
                assert metrics[1].dropped_messages == 2

                # The replica really took the update.
                read = await client.execute(2, "read", rid=2)
                assert read.ok and read.version.number == 1
            finally:
                await client.close()
                await cluster.stop()

        run(scenario())

    def test_invalidation_fan_out_retries(self):
        async def scenario():
            cluster, client = await booted(processors=(1, 2, 3, 4))
            try:
                # Outsiders 3 and 4 join by reading (save-on-read).
                assert (await client.execute(3, "read", rid=1)).ok
                assert (await client.execute(4, "read", rid=2)).ok

                # The writer's invalidations to both joiners are lossy.
                await cluster.set_fault_plan(
                    FaultPlan(drop_next={(1, 3): 2, (1, 4): 2}), nodes=[1]
                )
                write = await client.execute(
                    1, "write", rid=3, version=ObjectVersion(1, 1)
                )
                assert write.ok

                totals = resilience_totals((await cluster.metrics()).values())
                assert totals["retries_sent"] >= 4

                # The invalidations landed: neither joiner serves the
                # stale copy — both re-read the new version.
                for node, rid in ((3, 4), (4, 5)):
                    read = await client.execute(node, "read", rid=rid)
                    assert read.ok and read.version.number == 1
            finally:
                await client.close()
                await cluster.stop()

        run(scenario())


class TestUndialablePeer:
    def test_write_to_a_stopped_replica_is_rejected_degraded(self):
        """Regression: a store whose peer refuses the dial used to kill
        the writer's exec handler with the raw ``ConnectionRefusedError``:
        no reply (the client waited out its timeout), no drop or retry
        counted, and the unacknowledged version stayed readable."""

        async def scenario():
            spec = ClusterSpec(
                processors=(1, 2, 3),
                scheme=SCHEME,
                protocol="SA",
                resilience=RetryPolicy(attempts=2),
            )
            cluster = await start_local_cluster(spec)
            client = ClusterClient(cluster.addresses, timeout=3.0)
            try:
                await cluster.nodes[2].stop()
                started = time.monotonic()
                write = await client.execute(
                    1, "write", rid=1, version=ObjectVersion(1, 1)
                )
                elapsed = time.monotonic() - started
                assert not write.ok and write.degraded
                assert elapsed < 1.0
                # Each refused dial is a lost attempt: one drop per
                # attempt and one retry between them.
                metrics = cluster.nodes[1].metrics
                assert metrics.dropped_messages == 2
                assert metrics.retries_sent == 1
                # The writer rolled its unacknowledged copy back.
                read = await client.execute(1, "read", rid=2)
                assert not read.ok or read.version.number != 1
            finally:
                await client.close()
                await cluster.stop()

        run(scenario())


async def _lost_data_reply(cluster, client):
    # Server 1's answer to outsider 4 is lost: 4 fails over to 2.
    await cluster.set_fault_plan(FaultPlan(drop_next={(1, 4): 1}), nodes=[1])
    read = await client.execute(4, "read", rid=1)
    assert read.ok and read.version.number == 0
    metrics = await cluster.metrics()
    assert metrics[1].dropped_messages == 1
    assert metrics[2].data_sent == 1


async def _lost_relayed_invalidation(cluster, client):
    # 4 joins node 1's list; the primary's write makes 1 relay an
    # invalidation to 4, which is lost.
    assert (await client.execute(4, "read", rid=1)).ok
    await cluster.set_fault_plan(FaultPlan(drop_next={(1, 4): 1}), nodes=[1])
    write = await client.execute(3, "write", rid=2, version=ObjectVersion(1, 3))
    assert not write.ok and write.degraded
    assert "a relayed invalidation was permanently lost" in write.error
    assert 4 in (await cluster.status(1))["join_list"]


async def _lost_repair_copy(cluster, client):
    await cluster.set_fault_plan(FaultPlan(drop_next={(1, 4): 1}), nodes=[1])
    with pytest.raises(ClusterError):
        await cluster.repair(1, 4, rid=10)
    totals = resilience_totals((await cluster.metrics()).values())
    assert totals["degraded_rejections"] == 0


async def _lost_own_invalidation(cluster, client):
    # Core writer 1 invalidates the joiner 4 itself; every attempt is
    # lost.
    assert (await client.execute(4, "read", rid=1)).ok
    await cluster.set_fault_plan(FaultPlan(drop_next={(1, 4): 1}), nodes=[1])
    write = await client.execute(1, "write", rid=2, version=ObjectVersion(1, 1))
    assert not write.ok and write.degraded


class TestLossRule:
    """Each way a charged frame lost on every attempt is settled, on DA
    with scheme {1, 2, 3} (F = {1, 2}, primary 3) and outsider 4."""

    @pytest.mark.parametrize(
        "case",
        [
            _lost_data_reply,
            _lost_relayed_invalidation,
            _lost_repair_copy,
            _lost_own_invalidation,
        ],
    )
    def test_lost_frame_is_settled(self, case):
        async def scenario():
            spec = ClusterSpec(
                processors=(1, 2, 3, 4),
                scheme=frozenset({1, 2, 3}),
                protocol="DA",
                primary=3,
                resilience=RetryPolicy(attempts=1),
            )
            cluster = await start_local_cluster(spec)
            client = ClusterClient(cluster.addresses, timeout=5.0)
            try:
                await case(cluster, client)
            finally:
                await client.close()
                await cluster.stop()

        run(scenario())


class TestLostBesideDelayed:
    """A write whose frame is lost on every attempt rejects only after
    its sibling frames have settled: a delayed sibling never lands after
    the reply (where it could overwrite a newer acknowledged copy)."""

    DELAY = 0.3

    def test_lost_store_waits_for_a_delayed_sibling_store(self):
        async def scenario():
            cluster, client = await booted("SA")
            try:
                # Outsider 3 writes to Q = {1, 2}: every store to 1 is
                # lost, the store to 2 is delayed past the retry budget.
                await cluster.set_fault_plan(
                    FaultPlan(
                        blocked_links=frozenset({(3, 1)}),
                        link_delays={(3, 2): self.DELAY},
                    ),
                    nodes=[3],
                )
                started = time.monotonic()
                write = await client.execute(
                    3, "write", rid=1, version=ObjectVersion(1, 3)
                )
                assert not write.ok and write.degraded
                assert time.monotonic() - started >= self.DELAY
                # The delayed store landed before the rejection left.
                assert (await cluster.status(2))["version"]["number"] == 1
                assert cluster.nodes[3]._pending == {}
                assert cluster.nodes[3].metrics.degraded_rejections == 1
                # A newer acknowledged write is what 2 then serves.
                newer = await client.execute(
                    1, "write", rid=2, version=ObjectVersion(2, 1)
                )
                assert newer.ok
                read = await client.execute(2, "read", rid=3)
                assert read.ok and read.version.number == 2
            finally:
                await client.close()
                await cluster.stop()

        run(scenario())

    def test_lost_invalidation_waits_for_a_delayed_sibling(self):
        async def scenario():
            cluster, client = await booted(processors=(1, 2, 3, 4))
            try:
                # F = {1}; outsiders 3 and 4 join server 1's list, then
                # 1 writes: its invalidation of 3 is lost on every
                # attempt, the one of 4 is delayed.
                for rid, reader in ((1, 3), (2, 4)):
                    assert (await client.execute(reader, "read", rid=rid)).ok
                await cluster.set_fault_plan(
                    FaultPlan(
                        blocked_links=frozenset({(1, 3)}),
                        link_delays={(1, 4): self.DELAY},
                    ),
                    nodes=[1],
                )
                write = await client.execute(
                    1, "write", rid=3, version=ObjectVersion(1, 1)
                )
                assert not write.ok and write.degraded
                assert not (await cluster.status(4))["holds_valid_copy"]
                # Only the target whose invalidation was lost is kept.
                join_list = (await cluster.status(1))["join_list"]
                assert 3 in join_list and 4 not in join_list
            finally:
                await client.close()
                await cluster.stop()

        run(scenario())


class TestDedup:
    def test_duplicate_write_frame_runs_once(self):
        async def scenario():
            cluster, client = await booted()
            try:
                frame = {
                    "type": "exec",
                    "rid": 1,
                    "op": "write",
                    "version": ObjectVersion(1, 1),
                }
                raw = await RawConnection.open(cluster.addresses[1])
                try:
                    raw.send(frame)
                    first = await raw.reply()
                    raw.send(frame)  # client "retry"
                    second = await raw.reply()
                finally:
                    raw.close()
                assert first["ok"] and second == first

                metrics = await cluster.metrics()
                assert metrics[1].dedup_hits == 1
                # The write executed once: one local install, one store
                # shipped to the replica, no double-charging.
                assert metrics[1].io_writes == 1
                assert metrics[1].data_sent == 1
            finally:
                await client.close()
                await cluster.stop()

        run(scenario())

    def test_duplicate_of_a_running_write_gets_the_same_reply(self):
        """A retry that arrives while the original write still waits on a
        delayed store joins it: both connections get the one reply, and
        the write runs once."""

        async def scenario():
            cluster, client = await booted()
            frame = {
                "type": "exec",
                "rid": 1,
                "op": "write",
                "version": ObjectVersion(1, 1),
            }
            first = await RawConnection.open(cluster.addresses[1])
            retry = await RawConnection.open(cluster.addresses[1])
            try:
                await cluster.set_fault_plan(
                    FaultPlan(link_delays={(1, 2): 0.3}), nodes=[1]
                )
                first.send(frame)
                node = cluster.nodes[1]
                while 1 not in node._exec_inflight:
                    await asyncio.sleep(0.01)
                retry.send(frame)
                replies = [await first.reply(), await retry.reply()]
                assert replies[0]["ok"] and replies[1] == replies[0]
                assert node._exec_inflight == {} and node._pending == {}

                metrics = await cluster.metrics()
                assert metrics[1].dedup_hits == 1
                assert metrics[1].io_writes == 1
                assert metrics[1].data_sent == 1
            finally:
                first.close()
                retry.close()
                await client.close()
                await cluster.stop()

        run(scenario())


class TestSchemeRepair:
    def test_repair_restores_t_copies_and_adopts(self):
        async def scenario():
            cluster, client = await booted()
            repairer = SchemeRepairer(cluster, t=2)
            try:
                # Crash the primary; the surviving core member still
                # accepts the write (fail-stop peers cannot block it),
                # but only one valid copy remains.
                await cluster.crash(2)
                write = await client.execute(
                    1, "write", rid=1, version=ObjectVersion(1, 1)
                )
                assert write.ok

                report = await repairer.repair_round()
                assert not report.degraded
                assert len(report.holders) >= 2
                assert report.repaired == ((1, 3, 1),)
                # DA: the repaired outsider is adopted into a live core
                # member's join-list so future writes invalidate it.
                assert report.adopted == (3,)

                # Adoption works end to end: the next write invalidates
                # node 3, whose next read returns the new version.
                write = await client.execute(
                    1, "write", rid=2, version=ObjectVersion(2, 1)
                )
                assert write.ok
                read = await client.execute(3, "read", rid=3)
                assert read.ok and read.version.number == 2

                # Recovery: the primary comes back stale and the next
                # round re-copies the object to it.
                await cluster.recover(2)
                report = await repairer.repair_round()
                assert not report.degraded
                assert 2 in {target for _, target, _ in report.repaired}
                assert set(report.holders) >= {1, 2, 3}

                totals = resilience_totals((await cluster.metrics()).values())
                assert totals["repairs_sent"] >= 2
                assert totals["repairs_received"] >= 2
            finally:
                await client.close()
                await cluster.stop()

        run(scenario())


    def test_a_lost_copy_fails_over_to_the_next_processor(self):
        """Every transmission of the copy to node 3 is lost: the round
        copies to node 4 instead and still reaches t copies."""

        async def scenario():
            cluster, client = await booted(processors=(1, 2, 3, 4))
            repairer = SchemeRepairer(cluster, t=2)
            try:
                await cluster.crash(2)
                await cluster.set_fault_plan(
                    FaultPlan(drop_next={(1, 3): POLICY.attempts}), nodes=[1]
                )
                report = await repairer.repair_round()
                assert report.repaired == ((1, 4, 0),)
                assert report.holders == (1, 4)
                assert not report.degraded
            finally:
                await client.close()
                await cluster.stop()

        run(scenario())


class TestStewardCrashMidRepair:
    def test_second_pass_converges_without_recopying(self):
        """Regression: the prospective steward crashing between the
        status snapshot and the adopt call used to abort the round with
        an unhandled ClusterError.  Now the round completes degraded,
        and the *next* pass converges without double-charging data
        messages for holders the first pass already refreshed."""

        async def scenario():
            # A two-member core ({1, 2}) so one core crash leaves a
            # live steward candidate for the flaky adopt to kill.
            spec = ClusterSpec(
                processors=(1, 2, 3, 4),
                scheme=frozenset({1, 2, 3}),
                protocol="DA",
                primary=3,
                resilience=POLICY,
            )
            cluster = await start_local_cluster(spec)
            client = ClusterClient(cluster.addresses, timeout=10.0, retry=POLICY)
            repairer = SchemeRepairer(cluster, t=3)
            try:
                # Outsider 4 joins node 1's list by reading, then the
                # crash of 1 orphans it: the write at 2 cannot reach it,
                # leaving 4 stale-but-valid at the seed version.
                assert (await client.execute(4, "read", rid=1)).ok
                await cluster.crash(1)
                write = await client.execute(
                    2, "write", rid=2, version=ObjectVersion(1, 2)
                )
                assert write.ok

                # The only live core member (the steward candidate)
                # crashes between the status snapshot and the adopt.
                adopt_calls = []
                original_adopt = cluster.adopt

                async def flaky_adopt(node_id, nodes, steward=False):
                    adopt_calls.append(node_id)
                    if len(adopt_calls) == 1:
                        await cluster.crash(node_id)
                    return await original_adopt(node_id, nodes, steward=steward)

                cluster.adopt = flaky_adopt

                first = await repairer.repair_round()
                # The round survived the mid-repair crash: degraded,
                # not raised — and the stale holder 4 was already
                # refreshed before the steward died.
                assert first.degraded
                assert adopt_calls == [2]
                assert first.repaired == ((2, 4, 1),)

                await cluster.recover(1)
                await cluster.recover(2)
                second = await repairer.repair_round()
                assert not second.degraded
                # Only the recovered core members take copies; node 4
                # keeps the copy from round one — no double charge.
                assert {t for _, t, _ in second.repaired} == {1, 2}
                assert set(second.holders) == {1, 2, 3, 4}
                assert 4 in second.adopted

                totals = resilience_totals((await cluster.metrics()).values())
                assert totals["repairs_sent"] == totals["repairs_received"] == 3

                # Adoption is live again end to end: a write at the new
                # steward invalidates 4, whose next read is fresh.
                write = await client.execute(
                    1, "write", rid=3, version=ObjectVersion(2, 1)
                )
                assert write.ok
                read = await client.execute(4, "read", rid=4)
                assert read.ok and read.version.number == 2
            finally:
                cluster.adopt = original_adopt
                await client.close()
                await cluster.stop()

        run(scenario())


class TestDegradedWrites:
    def test_partitioned_writer_is_rejected_then_heals(self):
        async def scenario():
            cluster, client = await booted("SA")
            try:
                await cluster.set_fault_plan(
                    FaultPlan(partitions=(frozenset({1, 2}), frozenset({3})))
                )
                # Node 3 cannot reach any scheme member: the write is
                # rejected with a typed degraded error, not silently
                # acknowledged against zero replicas.
                write = await client.execute(
                    3, "write", rid=1, version=ObjectVersion(1, 3)
                )
                assert not write.ok
                assert write.degraded

                totals = resilience_totals((await cluster.metrics()).values())
                assert totals["degraded_rejections"] >= 1

                # Healing restores service and the rejected version
                # number is reusable — it was never acknowledged.
                await cluster.set_fault_plan(None)
                write = await client.execute(
                    3, "write", rid=2, version=ObjectVersion(1, 3)
                )
                assert write.ok
                read = await client.execute(1, "read", rid=3)
                assert read.ok and read.version.number == 1
            finally:
                await client.close()
                await cluster.stop()

        run(scenario())


class TestConnectionRecovery:
    def test_poisoned_connection_is_scoped_and_redialed(self):
        async def scenario():
            cluster, client = await booted()
            try:
                # Poison the node-1 connection with a frame whose length
                # prefix exceeds the codec limit; the node hangs up.
                connection = await client._conn(1)
                connection.transport.write(b"\xff\xff\xff\xff")
                await asyncio.sleep(0.05)

                # Node 2's connection is untouched...
                other = await client.execute(2, "read", rid=1)
                assert other.ok and other.retries == 0
                # ...and node 1 service recovers via redial.
                healed = await client.execute(1, "read", rid=2)
                assert healed.ok
            finally:
                await client.close()
                await cluster.stop()

        run(scenario())


class TestUnencodableRequest:
    """A request whose ``exec`` frame cannot be encoded fails at once:
    it is not retried, and no node is dialled."""

    @pytest.mark.parametrize(
        "op, version",
        [
            ("write", ObjectVersion(1, 1, "x" * MAX_FRAME_BYTES)),
            ("delete", None),
        ],
        ids=["oversize-write", "op-without-layout"],
    )
    def test_fails_without_a_retry_or_a_dial(self, op, version):
        async def scenario():
            cluster, client = await booted()
            try:
                outcome = await client.execute(1, op, rid=1, version=version)
                assert not outcome.ok
                assert outcome.retries == 0
                assert outcome.error.startswith("cannot encode the request: ")
                assert not client._conns
                # The request id was never used, and service is intact.
                write = await client.execute(
                    1, "write", rid=1, version=ObjectVersion(1, 1)
                )
                assert write.ok and write.retries == 0
            finally:
                await client.close()
                await cluster.stop()

        run(scenario())


class TestFaultFreeParity:
    def test_resilient_replay_matches_stepped_model(self):
        schedule = UniformWorkload((1, 2, 3), 80, 0.3).generate(11)

        async def scenario():
            cluster, client = await booted()
            try:
                result = await replay_schedule(client, schedule)
                result.raise_on_errors()
                totals = resilience_totals((await cluster.metrics()).values())
                return await cluster.aggregate_stats(), totals
            finally:
                await client.close()
                await cluster.stop()

        stats, totals = run(scenario())
        stepped = (
            DynamicAllocation(SCHEME, primary=PRIMARY)
            .run(schedule)
            .total_breakdown()
        )
        assert stats.breakdown() == stepped
        # Without faults the resilience machinery never fires.
        assert totals["retries_sent"] == 0
        assert totals["dedup_hits"] == 0
        assert totals["degraded_rejections"] == 0
