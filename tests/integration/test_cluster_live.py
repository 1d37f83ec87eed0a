"""Integration: live-cluster behavior beyond happy-path replay.

Fail-stop crashes, sender-side transport faults (dropped reads,
dropped stores, partitions) under a single-attempt retry policy,
open-loop Poisson load, the subprocess launch mode, malformed client
frames, and the admin plane.
"""

from __future__ import annotations

import asyncio
import socket
import struct

import pytest

from repro.cluster import (
    ClusterClient,
    ClusterSpec,
    FaultPlan,
    RetryPolicy,
    poisson_load,
    replay_schedule,
    start_cluster,
    start_local_cluster,
)
from repro.cluster.rpc import MAX_FRAME_BYTES, encode_frame
from repro.core.dynamic_allocation import DynamicAllocation
from repro.distsim.messages import DataTransfer, ReadRequest
from repro.storage.versions import ObjectVersion
from repro.exceptions import ClusterError
from repro.workloads.uniform import UniformWorkload
from tests.integration.live_loop import run
from tests.integration.raw_frames import RawConnection, framed, json_frame

PROCESSORS = (1, 2, 3)
SCHEME = frozenset({1, 2})
PRIMARY = 2

#: "No retries": every lost message is lost for good.
SINGLE_ATTEMPT = RetryPolicy(attempts=1)


async def booted(protocol: str = "DA", resilience: RetryPolicy = RetryPolicy()):
    spec = ClusterSpec(
        processors=PROCESSORS,
        scheme=SCHEME,
        protocol=protocol,
        primary=PRIMARY if protocol == "DA" else None,
        resilience=resilience,
    )
    cluster = await start_local_cluster(spec)
    client = ClusterClient(cluster.addresses, timeout=10.0)
    return cluster, client


class TestCrashRecover:
    def test_exec_on_crashed_node_fails(self):
        async def scenario():
            cluster, client = await booted()
            try:
                await cluster.crash(3)
                outcome = await client.execute(3, "read", rid=1)
                assert not outcome.ok
                assert "crash" in (outcome.error or "")
                # The rest of the cluster is unbothered.
                alive = await client.execute(1, "read", rid=2)
                assert alive.ok
            finally:
                await client.close()
                await cluster.stop()

        run(scenario())

    def test_crash_fails_the_nodes_own_read_in_flight(self):
        """Node 3's remote read is held on a slow link when node 3
        crashes: the read fails at once instead of failing over from a
        dead node, and leaves nothing open."""

        async def scenario():
            cluster, client = await booted()
            try:
                await cluster.set_fault_plan(
                    FaultPlan(link_delays={(3, 1): 0.5}), nodes=[3]
                )
                read = asyncio.ensure_future(client.execute(3, "read", rid=1))
                node = cluster.nodes[3]
                while 1 not in node._pending:
                    await asyncio.sleep(0.01)
                await cluster.crash(3)
                outcome = await read
                assert not outcome.ok and "node 3 crashed" in outcome.error
                assert node._pending == {} and node._exec_inflight == {}
            finally:
                await client.close()
                await cluster.stop()

        run(scenario())

    def test_write_survives_crashed_replica(self):
        async def scenario():
            cluster, client = await booted()
            try:
                await cluster.crash(2)
                write = await client.execute(
                    1, "write", rid=1, version=ObjectVersion(1, 1)
                )
                assert write.ok  # fail-stop peer cannot block the writer
                metrics = await cluster.metrics()
                assert metrics[2].dropped_messages >= 1

                # Recovery follows distsim semantics: the copy stays
                # invalid until re-read from the server.
                await cluster.recover(2)
                read = await client.execute(2, "read", rid=2)
                assert read.ok
                assert read.version is not None
                assert read.version.number == 1
            finally:
                await client.close()
                await cluster.stop()

        run(scenario())

    @staticmethod
    async def relay_cut_by_crash(processors, scheme, primary, joiner, writer):
        """Server 1 relays the writer's invalidation to ``joiner`` over a
        slow link and crashes while it is in flight: the writer must get
        the typed degraded rejection at once, not wait out the client's
        timeout."""
        spec = ClusterSpec(
            processors=processors,
            scheme=frozenset(scheme),
            protocol="DA",
            primary=primary,
        )
        cluster = await start_local_cluster(spec)
        client = ClusterClient(cluster.addresses, timeout=10.0)
        try:
            joined = await client.execute(joiner, "read", rid=1)
            assert joined.ok
            assert joiner in (await cluster.status(1))["join_list"]
            await cluster.set_fault_plan(
                FaultPlan(link_delays={(1, joiner): 30.0}), nodes=[1]
            )
            write = asyncio.ensure_future(
                client.execute(
                    writer, "write", rid=2, version=ObjectVersion(1, writer)
                )
            )
            # The store landed at 1, so its relay to the joiner is open.
            while (await cluster.status(1))["version"]["number"] != 1:
                await asyncio.sleep(0.01)
            await cluster.crash(1)
            outcome = await write
            assert not outcome.ok and outcome.degraded
            assert "timed out" not in outcome.error
            assert "relayed invalidation was permanently lost" in outcome.error
            assert cluster.nodes[1]._pending == {}
        finally:
            await client.close()
            await cluster.stop()

    def test_crash_mid_relay_rejects_a_non_core_write(self):
        # F = {1}; the primary 2 writes, 1 relays to the joiner 3.
        run(self.relay_cut_by_crash((1, 2, 3), {1, 2}, 2, joiner=3, writer=2))

    def test_crash_mid_relay_rejects_a_core_write(self):
        # F = {1, 2}; core member 2 (not the server) writes, 1 relays to
        # the joiner 4.
        run(
            self.relay_cut_by_crash(
                (1, 2, 3, 4), {1, 2, 3}, 3, joiner=4, writer=2
            )
        )


class TestTransportFaults:
    def test_dropped_read_request_fails_cleanly(self):
        async def scenario():
            cluster, client = await booted(resilience=SINGLE_ATTEMPT)
            try:
                # Outsider 3 reads from the serving member 1, then fails
                # over to the primary 2.
                candidates = cluster.nodes[3].protocol.probe_candidates()
                assert candidates == [1, 2]

                # Lost on every candidate: the read fails, no hang.
                await cluster.set_fault_plan(
                    FaultPlan(drop_next={(3, 1): 1, (3, 2): 1}), nodes=[3]
                )
                lost = await client.execute(3, "read", rid=1)
                assert not lost.ok and not lost.degraded
                assert "no reachable copy among [1, 2]" in lost.error

                # Lost only on the first candidate: the next one serves.
                await cluster.set_fault_plan(
                    FaultPlan(drop_next={(3, 1): 1}), nodes=[3]
                )
                served = await client.execute(3, "read", rid=2)
                assert served.ok and served.version.number == 0

                metrics = await cluster.metrics()
                assert metrics[3].dropped_messages == 3
                assert metrics[3].retries_sent == 0
                # Doomed messages are still charged at the sender,
                # exactly like the simulated network.
                assert metrics[3].control_sent == 4
                assert metrics[1].data_sent == 0
                assert metrics[2].data_sent == 1  # the primary answered
            finally:
                await client.close()
                await cluster.stop()

        run(scenario())

    def test_dropped_store_does_not_block_the_writer(self):
        async def scenario():
            cluster, client = await booted("SA", resilience=SINGLE_ATTEMPT)
            try:
                await cluster.set_fault_plan(
                    FaultPlan(drop_next={(1, 2): 1}), nodes=[1]
                )
                write = await client.execute(
                    1, "write", rid=1, version=ObjectVersion(1, 1)
                )
                # The replica missed the store: a typed rejection, not an
                # acknowledged write a later read could miss.
                assert not write.ok and write.degraded

                metrics = await cluster.metrics()
                assert metrics[1].dropped_messages == 1
                assert metrics[1].data_sent == 1  # charged despite the drop
                assert metrics[1].degraded_rejections == 1

                # The writer's copy was rolled back...
                assert not (await cluster.status(1))["holds_valid_copy"]
                # ...so every read returns the latest acknowledged
                # version, 0 — the replica's and the writer's alike.
                for node, rid in ((2, 2), (1, 3)):
                    read = await client.execute(node, "read", rid=rid)
                    assert read.ok and read.version.number == 0
            finally:
                await client.close()
                await cluster.stop()

        run(scenario())

    def test_partition_blocks_cross_group_reads(self):
        async def scenario():
            cluster, client = await booted()
            try:
                plan = FaultPlan(
                    partitions=(frozenset({1, 2}), frozenset({3}))
                )
                await cluster.set_fault_plan(plan)

                # Every copy holder is across the cut from node 3:
                # neither retries nor failover reach one.
                cut = await client.execute(3, "read", rid=1)
                assert not cut.ok
                # The server itself still reads locally.
                local = await client.execute(1, "read", rid=2)
                assert local.ok

                # Healing the partition restores service.
                await cluster.set_fault_plan(None)
                healed = await client.execute(3, "read", rid=3)
                assert healed.ok
            finally:
                await client.close()
                await cluster.stop()

        run(scenario())


class TestLoadGeneration:
    def test_poisson_load_completes_without_faults(self):
        async def scenario():
            cluster, client = await booted()
            try:
                result = await poisson_load(
                    client,
                    PROCESSORS,
                    count=60,
                    rate=500.0,
                    write_fraction=0.25,
                    seed=3,
                )
                assert result.errors == 0
                assert result.completed == 60
                assert len(result.latencies) == 60
                stats = await cluster.aggregate_stats()
                assert stats.requests_completed == 60
            finally:
                await client.close()
                await cluster.stop()

        run(scenario())


class TestSubprocessCluster:
    def test_subprocess_replay_matches_stepped_model(self):
        schedule = UniformWorkload(PROCESSORS, 80, 0.3).generate(11)

        async def scenario():
            spec = ClusterSpec(
                processors=PROCESSORS,
                scheme=SCHEME,
                protocol="DA",
                primary=PRIMARY,
            )
            cluster = await start_cluster(spec, subprocesses=True)
            client = ClusterClient(cluster.addresses)
            try:
                result = await replay_schedule(client, schedule)
                result.raise_on_errors()
                return await cluster.aggregate_stats()
            finally:
                await client.close()
                await cluster.stop()

        live = run(scenario()).breakdown()
        stepped = (
            DynamicAllocation(SCHEME, primary=PRIMARY)
            .run(schedule)
            .total_breakdown()
        )
        assert live == stepped


class TestMalformedExec:
    #: A write whose version does not decode: as JSON, which no exec
    #: has, and as its binary layout with a payload that is not JSON.
    BAD_VERSIONS = (
        json_frame({"type": "exec", "rid": 5, "op": "write",
                    "version": {"number": "x", "writer": 3}}),
        framed(struct.pack(">Bqqq", 2, 5, 1, 3) + b"{"),
    )

    def test_a_bad_version_closes_the_connection_and_runs_nothing(self):
        """A write whose version does not decode closes the connection
        it came on — each time it is sent — runs nothing, and leaves no
        in-flight entry behind to wedge a later request with its rid."""

        async def scenario():
            cluster, client = await booted()
            try:
                for data in self.BAD_VERSIONS * 2:
                    raw = await RawConnection.open(cluster.addresses[1])
                    raw.write(data)
                    await raw.closed_by_peer()
                    assert raw.replies.empty()
                node = cluster.nodes[1]
                assert node._exec_inflight == {} and node._pending == {}
                assert node.metrics.io_writes == 0
                assert node.metrics.requests_completed == 0
                # The node still serves well-formed requests, rid 5 too.
                assert (await client.execute(1, "read", rid=5)).ok
            finally:
                await client.close()
                await cluster.stop()

        run(scenario())

    @pytest.mark.parametrize(
        "rid", ["7", 7.9, True, None], ids=["string", "float", "bool", "missing"]
    )
    def test_a_rid_that_is_not_an_int_is_refused(self, rid):
        """A reply is matched to its request by the rid as sent, so an
        exec whose rid is not an int — hand-written JSON, as no exec is
        sent — closes the connection: it neither reads request 7's
        cached reply nor runs as some other request."""

        async def scenario():
            cluster, client = await booted("SA")
            raw = await RawConnection.open(cluster.addresses[1])
            try:
                first = await client.execute(
                    1, "write", rid=7, version=ObjectVersion(1, 1)
                )
                assert first.ok
                frame = {
                    "type": "exec",
                    "op": "write",
                    "version": {"number": 2, "writer": 1},
                }
                if rid is not None:
                    frame["rid"] = rid
                raw.write(json_frame(frame))
                await raw.closed_by_peer()
                assert raw.replies.empty()
                status = await cluster.status(1)
                assert status["version"] == {"number": 1, "writer": 1}
                assert (await cluster.metrics())[1].io_writes == 1
                assert cluster.nodes[1].metrics.dedup_hits == 0
            finally:
                raw.close()
                await client.close()
                await cluster.stop()

        run(scenario())

    @pytest.mark.parametrize("link", ["open", "not dialled", "delayed"])
    def test_a_store_too_large_to_send_rolls_the_write_back(self, link):
        """The exec frame fits the frame limit but the store it causes
        does not: starting the write raises, the writer's copy rolls
        back, and the write is answered ``ok: false`` — whether the link
        1 -> 2 is open, not dialled yet or delayed.  ``status`` still
        answers afterwards: it reports the rolled-back version without
        its payload."""
        header = {"type": "exec", "rid": 2, "op": "write"}
        bare = {**header, "version": ObjectVersion(2, 1, payload="")}
        payload = "x" * (MAX_FRAME_BYTES - len(encode_frame(bare)) + 4)
        version = ObjectVersion(2, 1, payload)
        frame = {**header, "version": version}
        store = DataTransfer(1, 2, version=version, request_id=2, save_copy=True)
        assert len(encode_frame(frame)) - 4 == MAX_FRAME_BYTES
        with pytest.raises(ClusterError, match="exceeds"):
            encode_frame({"type": "msg", "rid": 2, "message": store})

        async def scenario():
            cluster, client = await booted("SA")
            raw = await RawConnection.open(cluster.addresses[1])
            try:
                if link == "open":
                    # A first write opens the link 1 -> 2.
                    first = await client.execute(
                        1, "write", rid=1, version=ObjectVersion(1, 1)
                    )
                    assert first.ok
                elif link == "delayed":
                    await cluster.set_fault_plan(
                        FaultPlan(link_delays={(1, 2): 0.05}), nodes=[1]
                    )
                raw.send(frame)
                reply = await raw.reply()
                assert reply["ok"] is False and "exceeds" in reply["error"]
                node = cluster.nodes[1]
                assert node._pending == {} and node._exec_inflight == {}
                assert not node.database.holds_valid_copy
                status = await asyncio.wait_for(cluster.status(1), 3)
                assert status["version"] == {"number": 2, "writer": 1}
                assert status["pending"] == 0
            finally:
                raw.close()
                await client.close()
                await cluster.stop()

        run(scenario())


class TestMalformedDone:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("rid", "1"),
            ("rid", 1.9),
            ("rid", True),
            ("from", "2"),
            ("from", 2.0),
            ("from", True),
        ],
        ids=["rid-string", "rid-float", "rid-bool", "from-string", "from-float", "from-bool"],
    )
    def test_a_done_that_is_not_all_ints_settles_nothing(self, field, value):
        """Write 1's store to node 2 waits out a delayed link 1 -> 2.  A
        hand-written JSON ``done`` for it whose rid or sender is not an
        int closes its connection and settles nothing: the write is
        acknowledged only once its store has landed."""
        frame = {
            "type": "done", "rid": 1, "from": 2, "dropped": False,
            "failed": False, field: value,
        }

        async def scenario():
            cluster, client = await booted("SA")
            raw = await RawConnection.open(cluster.addresses[1])
            try:
                await cluster.set_fault_plan(
                    FaultPlan(link_delays={(1, 2): 0.5}), nodes=[1]
                )
                write = asyncio.ensure_future(
                    client.execute(1, "write", rid=1, version=ObjectVersion(1, 1))
                )
                await asyncio.sleep(0.1)
                assert 1 in cluster.nodes[1]._pending
                raw.write(json_frame(frame))
                await raw.closed_by_peer()
                await asyncio.sleep(0.1)
                assert not write.done()
                reply = await write
                assert reply.ok and reply.latency > 0.5
                status = await cluster.status(2)
                assert status["version"] == {"number": 1, "writer": 1}
            finally:
                raw.close()
                await client.close()
                await cluster.stop()

        run(scenario())


class TestDeadlines:
    """Node 3 holds no copy, so its read asks node 1 over the delayed
    link 3 -> 1.  The node keeps no clock; the client's timeout is the
    only deadline."""

    SLOW_LINK = FaultPlan(link_delays={(3, 1): 0.6})

    def test_a_slow_read_answers_and_leaves_nothing_open(self):
        async def scenario():
            cluster, client = await booted()
            try:
                await cluster.set_fault_plan(self.SLOW_LINK, nodes=[3])
                slow = await client.execute(3, "read", rid=1)
                assert slow.ok and slow.version.number == 0
                # The answer waited out the delayed request.
                assert slow.latency > 0.5
                node = cluster.nodes[3]
                assert node._exec_inflight == {} and node._pending == {}
                assert (await cluster.status(3))["pending"] == 0
                assert node.metrics.request_errors == 0
            finally:
                await client.close()
                await cluster.stop()

        run(scenario())

    def test_client_deadline_fails_the_call(self):
        async def scenario():
            cluster, _ = await booted()
            client = ClusterClient(cluster.addresses, timeout=0.2)
            try:
                await cluster.set_fault_plan(self.SLOW_LINK, nodes=[3])
                slow = await client.execute(3, "read", rid=1)
                assert not slow.ok and slow.retries == 0
                assert slow.error == "client timed out after 0.2s"
                assert slow.latency < 0.5
                # The node still finishes the read; its late reply is
                # ignored, and the same connection serves the next call.
                await asyncio.sleep(0.6)
                await cluster.set_fault_plan(None, nodes=[3])
                healed = await client.execute(3, "read", rid=2)
                assert healed.ok and healed.version.number == 0
            finally:
                await client.close()
                await cluster.stop()

        run(scenario())


class TestInlineServing:
    def test_a_frame_after_a_failed_handler_is_served(self):
        """A ``msg`` addressed to another node raises in its handler's
        inline step; the next frame on the connection is still served."""

        async def scenario():
            failures = []
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: failures.append(context.get("exception"))
            )
            cluster, client = await booted()
            raw = await RawConnection.open(cluster.addresses[1])
            try:
                misrouted = ReadRequest(3, 2, request_id=9)
                raw.send({"type": "msg", "rid": 9, "message": misrouted})
                raw.send({"type": "ping"})
                reply = await raw.reply()
                assert reply["type"] == "pong" and reply["node"] == 1
                assert len(failures) == 1
                assert "addressed to someone else" in str(failures[0])
            finally:
                raw.close()
                await client.close()
                await cluster.stop()

        run(scenario())


class TestAdminPlane:
    def test_ping_and_reset_metrics(self):
        schedule = UniformWorkload(PROCESSORS, 30, 0.3).generate(5)

        async def scenario():
            cluster, client = await booted("SA")
            try:
                await cluster.ping_all()
                result = await replay_schedule(client, schedule)
                result.raise_on_errors()
                busy = await cluster.aggregate_stats()
                assert busy.requests_completed == len(schedule)

                await cluster.reset_metrics()
                idle = await cluster.aggregate_stats()
                assert idle.requests_completed == 0
                assert idle.control_messages == 0
                assert idle.data_messages == 0
                assert idle.io_reads == 0 and idle.io_writes == 0

                # Metrics keep accruing after a reset: the transport
                # and the server share the fresh counter object.  An
                # outsider read under SA is one control message (the
                # ReadRequest) answered by one data message.
                probe = await client.execute(3, "read", rid=len(schedule) + 1)
                assert probe.ok
                fresh = await cluster.aggregate_stats()
                assert fresh.requests_completed == 1
                assert fresh.control_messages == 1
                assert fresh.data_messages == 1
            finally:
                await client.close()
                await cluster.stop()

        run(scenario())

    @pytest.mark.parametrize(
        "frame",
        [
            {"type": "adopt", "nodes": ["x"], "steward": True},
            {"type": "set_scheme", "scheme": ["x"]},
            {"type": "repair_send", "target": "x", "rid": 1},
            {"type": "fault", "plan": {"default_delay": "x"}},
            {"type": "resilience", "policy": {"attempts": "x"}},
            {"type": "set_peers", "peers": {"x": "unix:/tmp/x.sock"}},
        ],
        ids=lambda frame: frame["type"],
    )
    def test_a_malformed_admin_field_gets_an_error_reply(self, frame):
        """An admin frame whose field does not parse is answered
        ``error`` with its ``id``, and changes nothing at the node."""

        async def scenario():
            cluster, client = await booted()
            raw = await RawConnection.open(cluster.addresses[1])
            node = cluster.nodes[1]

            def state():
                transport = node.transport
                return (
                    node.steward, set(node.join_list), node.protocol.scheme,
                    dict(transport.peers), transport.fault_plan,
                    transport.retry_policy, dict(node._pending),
                )

            try:
                before = state()
                raw.send({**frame, "id": 42})
                reply = await raw.reply(timeout=2.0)
                assert reply["type"] == "error" and reply["id"] == 42
                assert state() == before
                assert (await client.execute(1, "read", rid=1)).ok
            finally:
                raw.close()
                await client.close()
                await cluster.stop()

        run(scenario())

    def test_a_reply_to_a_caller_that_hung_up_is_dropped(self):
        """An admin caller that closes its connection before the reply
        is sent costs the node nothing: no exception reaches the loop,
        the entry the frame opened still settles, and the node keeps
        answering."""

        async def scenario():
            reports = []
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: reports.append(context)
            )
            cluster, client = await booted()
            try:
                await cluster.set_fault_plan(
                    FaultPlan(default_delay=0.2), nodes=[1]
                )
                raw = await RawConnection.open(cluster.addresses[1])
                raw.send({"type": "repair_send", "target": 3, "rid": 7, "id": 1})
                raw.close()
                await asyncio.sleep(0.05)
                # The copy is waiting out the delay in an open entry.
                node = cluster.nodes[1]
                assert list(node._pending) == [7]
                for _ in range(100):
                    if not node._pending:
                        break
                    await asyncio.sleep(0.05)
                assert node._pending == {}
                assert reports == []
                assert (await cluster.admin(1, {"type": "ping"}))["node"] == 1
            finally:
                await client.close()
                await cluster.stop()

        run(scenario())

    def test_calls_are_matched_by_id_and_a_lost_connection_redials(self):
        """Admin calls to one node share one connection: replies find
        their callers by id in any order, ``error`` replies included.
        Losing the connection fails the waiting call, and the next call
        redials."""

        async def scenario():
            cluster, client = await booted()
            try:
                await cluster.set_fault_plan(
                    FaultPlan(default_delay=0.2), nodes=[1]
                )
                repair = asyncio.ensure_future(cluster.repair(1, 3, rid=7))
                await asyncio.sleep(0.05)
                pong = await cluster.admin(1, {"type": "ping"})
                assert pong["type"] == "pong" and not repair.done()
                with pytest.raises(ClusterError, match="unknown frame type"):
                    await cluster.admin(1, {"type": "gossip"})
                report = await repair
                assert report["type"] == "repair_report"
                assert report["target"] == 3

                slow = asyncio.ensure_future(cluster.repair(1, 3, rid=8))
                await asyncio.sleep(0.05)
                for connection in list(cluster.nodes[1]._connections):
                    connection.close()
                with pytest.raises(ClusterError, match="node 1"):
                    await slow
                assert (await cluster.admin(1, {"type": "ping"}))["node"] == 1
            finally:
                await client.close()
                await cluster.stop()

        run(scenario())


def test_unix_transport_available_or_tcp_fallback():
    """``auto`` must resolve to a transport this platform can bind."""
    from repro.cluster.launcher import resolve_transport

    kind = resolve_transport("auto")
    if hasattr(socket, "AF_UNIX"):
        assert kind == "unix"
    else:  # pragma: no cover - non-POSIX platforms
        assert kind == "tcp"
