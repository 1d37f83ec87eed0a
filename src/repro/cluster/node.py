"""One live processor: an asyncio server wrapping a LocalDatabase.

A :class:`NodeServer` is the live analogue of
:class:`repro.distsim.node.Node`: it owns the processor's
:class:`~repro.storage.local_db.LocalDatabase`, its volatile protocol
state (the DA join-list), and its share of the metrics — and it listens
on a socket instead of being poked by a discrete-event loop.  Every
connection speaks the frame vocabulary of :mod:`repro.cluster.rpc`:

* ``exec`` frames from clients run one read/write through the node's
  live protocol adapter and answer with a ``result`` frame;
* ``msg`` frames from peers carry charged protocol messages;
* ``done`` frames resolve outstanding work units (the uncharged
  completion oracle);
* ``repair`` frames from a donor peer install a repair copy;
* admin frames (``ping``/``metrics``/``status``/``set_peers``/``fault``/
  ``resilience``/``adopt``/``set_scheme``/``repair_send``/
  ``reset_metrics``/``crash``/``recover``/``shutdown``) let launchers,
  the repairer and tests steer the node.

Only admin frames are JSON.  Every other frame arrives decoded from its
binary layout, with each field present and typed and versions as
:class:`~repro.storage.versions.ObjectVersion`, so its handler reads it
without guards: a malformed one closed its connection before the node
saw it.  An admin frame with a malformed field is answered ``error``.

Every frame is served the moment it arrives, and the node's own peer
sends are plain calls; the node starts no task.  A client ``exec``, a
``repair_send`` and a ``recover`` are continuations: the handler opens a
:class:`PendingRequest` and returns, and the settle that drains or fails
the entry sends the reply.  A read and the recovery freshness probe ask
peers one at a time through one walk, :meth:`NodeServer.ask_in_turn`.
The node keeps no clock: every entry is settled by a rule — an answer, a
``done``, a frame lost on every attempt or a crash.

Crash semantics mirror :mod:`repro.distsim.failures`' fail-stop model:
a crashed node wipes its join-list, marks its stable copy suspect,
settles every :class:`PendingRequest` it held, and *drops* incoming
protocol messages — counting the drop and notifying the sender's
completion oracle so the origin can resolve the work unit (writes) or
fail fast (reads), exactly like the simulated network's ``on_dropped``
rule.  A charged frame the node itself lost on every attempt is settled
by one rule, :meth:`NodeServer._settle_lost`.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from functools import partial
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Set,
)

from repro.cluster.durability import NodeDurability, version_to_wire
from repro.cluster.metrics import NodeMetrics
from repro.cluster.protocol import make_live_protocol
from repro.cluster.resilience import DedupCache, RetryPolicy
from repro.cluster.rpc import FrameConnection
from repro.cluster.transport import Address, FaultPlan, PeerTransport, start_server
from repro.exceptions import (
    ClusterDegradedError,
    ClusterError,
    ProtocolError,
    StorageError,
)
from repro.distsim.messages import Message, VersionInquiry
from repro.storage.local_db import LocalDatabase
from repro.storage.versions import ObjectVersion

#: Request ids of recovery freshness probes.  Above the repairer's
#: ``REPAIR_RID_BASE`` band, so a probe pending can collide with
#: neither a client request nor a repair transfer.
PROBE_RID_BASE = 2_000_000_000


@dataclass
class NodeConfig:
    """Static configuration one node is started with."""

    node_id: int
    scheme: Iterable[int]
    protocol: str = "DA"
    primary: Optional[int] = None
    address: Optional[Address] = None
    #: Retries with backoff on both planes, node-side dedup, read
    #: failover and typed degraded-write rejection.  "No retries" is
    #: ``RetryPolicy(attempts=1)``; fault-free traffic is the same
    #: either way, which is what the parity invariant relies on.
    resilience: RetryPolicy = RetryPolicy()
    #: The directory this node journals its state under
    #: (``<state_dir>/node-<id>/``); ``None`` keeps the node volatile.
    #: Journaling never changes fault-free traffic (appends are
    #: uncharged riders on already-charged I/O); only recovery changes,
    #: gaining the tiered log-replay path.
    state_dir: Optional[str] = None


@dataclass
class PendingRequest:
    """An in-flight request awaiting downstream work units.

    The live twin of the simulator's
    :class:`~repro.distsim.protocols.base.RequestContext`: ``units``
    counts outstanding sub-operations.  ``then(entry, error)`` runs
    exactly once, after the entry left the table: when the last unit
    settled (``error`` is ``None`` unless a unit was lost), or when the
    entry failed outright."""

    rid: int
    #: "r" (client read), "w" (client write), "c" (repair copy), "p"
    #: (recovery freshness probe) or "i" (invalidations a member of
    #: ``F`` relays on a writer's behalf).
    kind: str
    units: int
    then: Callable[["PendingRequest", Optional[Exception]], None]
    #: The answer: a read's version, or ``(peer, version_number)`` from
    #: a probed peer that holds a copy.
    version: Any = None
    #: Peers whose unit settled because they were crashed (fail-stop
    #: receivers count the drop and notify the oracle).  The write path
    #: inspects this to decide whether any *live* replica actually took
    #: the update.
    crash_settled: Set[int] = field(default_factory=set)
    #: DA invalidation targets: one whose unit settles by crash leaves
    #: the join-list (its copy is gone with it).
    targets: FrozenSet[int] = frozenset()
    #: Why a unit was lost (the first loss wins), acted on once drained.
    failure: Optional[str] = None


class _JournaledSet(set):
    """A set that reports each net membership change to a callback.

    The DA join-list must survive crashes for the fresh-rejoin recovery
    tier, so every mutation journals the *full* membership (idempotent
    to fold, safe to truncate).  Only net changes notify: re-adding a
    member or clearing an empty set appends nothing.
    """

    def __init__(self, notify) -> None:
        super().__init__()
        self._notify = notify

    def add(self, item) -> None:
        if item not in self:
            super().add(item)
            self._notify()

    def discard(self, item) -> None:
        if item in self:
            super().discard(item)
            self._notify()

    def update(self, items) -> None:
        fresh = set(items) - self
        if fresh:
            super().update(fresh)
            self._notify()

    def clear(self) -> None:
        if self:
            super().clear()
            self._notify()


class NodeServer:
    """A live processor node serving one replicated object."""

    def __init__(self, config: NodeConfig) -> None:
        self.config = config
        self.node_id = config.node_id
        self.metrics = NodeMetrics(config.node_id)
        self.transport = PeerTransport(
            config.node_id, self.metrics, self._settle_lost, config.resilience
        )
        self.database = LocalDatabase(config.node_id)
        #: The node's journal (WAL + snapshots); a permanently muted
        #: no-op for a volatile node (no state dir).
        self.durability = NodeDurability(
            config.node_id, config.state_dir, self.metrics
        )
        self.durability.snapshot_state = self._durable_snapshot_state
        #: Highest version number this node acknowledged a write for.
        self._latest_commit = 0
        #: DA state: processors recorded as saving readers, journaled.
        self.join_list: Set[int] = _JournaledSet(self._journal_join_state)
        #: DA state: a core member adopted into recording non-core
        #: holders after a repair round (see SchemeRepairer).
        self.steward = False
        self.crashed = False
        #: At-least-once dedup: completed exec replies by request id,
        #: plus the connections awaiting each request still running (a
        #: concurrent retry joins them for the same reply).  256 cover the
        #: client's default retry budget (~0.14 s) up to ~1,800 req/s
        #: per node; more keeps replies alive long enough to churn the
        #: allocator when nodes share a process (2048: 25x page faults).
        self._exec_cache = DedupCache(256)
        self._exec_inflight: Dict[int, List[FrameConnection]] = {}
        #: Reads, writes, repair copies, recovery freshness probes and
        #: relayed invalidations awaiting peers, by request id.
        self._pending: Dict[int, PendingRequest] = {}
        self._probe_rid = PROBE_RID_BASE + config.node_id * 1_000_000
        self._server = None
        self.address: Optional[Address] = None
        self._connections: Set[FrameConnection] = set()
        self._stopped = asyncio.Event()
        # A restarting durable node resumes from its log instead of the
        # launch seed.  Replay happens before the adapter is built so new
        # appends land after the replayed suffix.
        prior = self.durability.recover()
        if prior.empty:
            # The adapter reads node state (join_list, database), so it
            # is built last; it also validates scheme/primary.
            self.protocol = make_live_protocol(config.protocol, self)
            self._seed_initial_copy()
        else:
            self._restore_durable(prior)

    def _seed_initial_copy(self) -> None:
        """Install version 0 uncharged iff this node is in the initial
        scheme — byte-identical to the simulated drivers' seeding."""
        scheme = self.protocol.scheme
        if self.node_id in scheme:
            version = ObjectVersion(0, min(scheme))
            self.database.output_object(version)
            self.durability.log_seed(version)

    def _restore_durable(self, state) -> None:
        """Resume from the durable state of a previous process.

        The logged version is reinstalled but left *suspect* (invalid):
        the peer mesh is not wired yet, so no freshness probe can run —
        the next repair round (or a crash/recover cycle, which probes)
        revalidates or refreshes it.  Replay is charged into
        ``io_reads``, the paper's ``c_io``, never into messages.  The
        adapter is built muted too: its bookkeeping appends (e.g. the DA
        server seeding its join-list) are already in the log.
        """
        with self.durability.muted():
            self.protocol = make_live_protocol(self.config.protocol, self)
            if state.version is not None:
                self.database.output_object(state.version)
                self.database.invalidate()
            if state.scheme and set(state.scheme) != set(self.protocol.scheme):
                # Only SA ever journals scheme growth; DA's static
                # scheme never reaches this branch.
                self.protocol.update_scheme(state.scheme)
            self.join_list.clear()
            self.join_list.update(state.join_list)
            self.steward = state.steward
        self._latest_commit = state.latest_commit
        self.metrics.io_reads += state.replay_cost

    # -- durability plumbing -----------------------------------------------

    def _journal_join_state(self) -> None:
        self.durability.log_join(self.join_list, self.steward)

    def _durable_snapshot_state(self) -> Dict[str, Any]:
        return {
            "version": version_to_wire(self.database.peek_version()),
            "valid": self.database.holds_valid_copy,
            "join_list": sorted(self.join_list),
            "steward": self.steward,
            "scheme": sorted(self.protocol.scheme),
            "latest_commit": self._latest_commit,
        }

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> Address:
        """Bind the listener; returns the actual (resolved) address."""
        if self.config.address is None:
            raise ClusterError(f"node {self.node_id} has no listen address")
        self._server, self.address = await start_server(
            self.config.address, self._accept
        )
        return self.address

    async def serve_forever(self) -> None:
        """Block until a ``shutdown`` admin frame (or `stop()`)."""
        await self._stopped.wait()
        await self.stop()

    async def stop(self) -> None:
        self._stopped.set()
        server, self._server = self._server, None
        if server is not None:
            # A peer's dial the listener already took must attach first:
            # a closed server cannot, and the socket would leak.
            await asyncio.sleep(0)
            server.close()
        for connection in list(self._connections):
            connection.close()
        if server is not None:
            await server.wait_closed()
        await self.transport.close()
        self.durability.close()

    # -- serving frames ------------------------------------------------------

    def _accept(self) -> FrameConnection:
        connection = FrameConnection(self._dispatch, self._forget)
        self._connections.add(connection)
        return connection

    def _forget(self, connection: FrameConnection, error) -> None:
        self._connections.discard(connection)

    def _dispatch(
        self, connection: FrameConnection, frame: Mapping[str, Any]
    ) -> None:
        """Serve one frame as it arrives."""
        kind = frame["type"]
        if kind == "msg":
            self._handle_msg(frame)
        elif kind == "done":
            self._handle_done(frame)
        elif kind == "repair":
            self._handle_repair_copy(frame)
        elif kind == "exec":
            self._handle_exec(frame, connection)
        else:
            self._handle_admin(kind, frame, connection)

    # -- the client plane --------------------------------------------------

    def _handle_exec(
        self, frame: Mapping[str, Any], connection: FrameConnection
    ) -> None:
        """Start one client request; :meth:`_reply` answers it.

        At-least-once dedup: a client retry of a request that already
        ran (or is running) observes the original outcome and never
        re-executes a write.  A retry of a running request joins the
        connections its reply goes to."""
        rid, op, version = frame["rid"], frame["op"], frame["version"]
        cached = self._exec_cache.lookup(rid)
        if cached is not None or rid in self._exec_inflight:
            self.metrics.dedup_hits += 1
            if cached is not None:
                _send(connection, cached)
            else:
                self._exec_inflight[rid].append(connection)
            return
        self._exec_inflight[rid] = [connection]
        then = partial(self._reply, rid, op)
        try:
            if self.crashed:
                raise ClusterError(f"node {self.node_id} is crashed")
            if op == "read":
                self.protocol.client_read(rid, then)
            else:
                self.protocol.client_write(rid, version, then)
        except (ClusterError, ProtocolError, StorageError) as error:
            # Settle what the start left open (a write rolls its copy
            # back); the reply carries this error unless one already left.
            self.fail_pending(rid, error)
            then(None, error)

    def _reply(
        self,
        rid: int,
        op: str,
        version: Optional[ObjectVersion],
        error: Optional[Exception],
    ) -> None:
        """Answer request ``rid`` on every connection awaiting it, and
        keep the reply for retries; a second call finds none and does
        nothing."""
        waiters = self._exec_inflight.pop(rid, None)
        if waiters is None:
            return
        if error is not None:
            payload = self._failure(rid, error)
        else:
            self.metrics.requests_completed += 1
            if op == "write":
                # Journal the commit *before* the ack leaves the node:
                # an acknowledged write must be recoverable from the log.
                self._latest_commit = max(self._latest_commit, version.number)
                self.durability.log_commit(rid, version.number)
            payload = {"type": "result", "rid": rid, "ok": True, "version": version}
        self._exec_cache.store(rid, payload)
        for connection in waiters:
            _send(connection, payload)

    def _failure(self, rid: int, error: Exception) -> Dict[str, Any]:
        self.metrics.request_errors += 1
        return {
            "type": "result",
            "rid": rid,
            "ok": False,
            "error": str(error),
            "degraded": isinstance(error, ClusterDegradedError),
        }

    # -- the peer plane ----------------------------------------------------

    def _handle_msg(self, frame: Mapping[str, Any]) -> None:
        message = frame["message"]
        if message.receiver != self.node_id:
            raise ClusterError(
                f"node {self.node_id} received {message.describe()} "
                "addressed to someone else"
            )
        if self.crashed:
            # Fail-stop: the message dies at the dead node.  Count the
            # drop and resolve the sender's work unit via the oracle,
            # matching the simulated network's on_dropped rule.
            self.metrics.dropped_messages += 1
            self.transport.send_done(message.sender, frame["rid"], dropped=True)
            return
        self.protocol.handle_message(message)

    def _handle_done(self, frame: Mapping[str, Any]) -> None:
        rid, source = frame["rid"], frame["from"]
        pending = self._pending.get(rid)
        if pending is None:
            return  # late oracle for a request that already failed
        if source in pending.targets:
            # An invalidation target acknowledged, or crashed: its copy
            # is invalid either way, so it is safe to forget (lazy
            # removal keeps only targets whose invalidation could NOT
            # be confirmed).
            self.join_list.discard(source)
        if frame["dropped"]:
            pending.crash_settled.add(source)
        # A store or invalidation resolved (delivered or dropped —
        # either way the work unit is settled); ``failed`` means a relay
        # could not invalidate a stale holder.  A read's or probe's peer
        # that crashed, holds no copy or lost its answer settles the
        # unit with no value, so the walk asks the next candidate.
        relayed = "a relayed invalidation was permanently lost"
        self.finish_unit(rid, relayed if frame["failed"] else None)

    def _settle_lost(self, receiver: int, rid: int) -> None:
        """The one rule for a charged frame that every attempt lost,
        by what this node's ``_pending`` table holds for ``rid``.

        No entry: the frame answered someone else's request (a read's
        data, a probe's report), so tell the asker it is not coming.
        A write's or relay's unit settles failed, and the entry rejects
        once every unit has settled, so no frame of the write lands after
        its reply; a read, probe or repair copy fails plainly."""
        pending = self._pending.get(rid)
        lost = f"a message to {receiver} was permanently lost after retries"
        if pending is None:
            self.transport.send_done(receiver, rid, dropped=True)
        elif pending.kind in ("w", "i"):
            # A live receiver missed an update it needed: acknowledging
            # could let a stale copy be read.
            self.finish_unit(rid, lost)
        else:
            self.fail_pending(rid, ClusterError(f"request {rid}: {lost}"))

    # -- admin plane -------------------------------------------------------

    def _handle_admin(
        self, kind: str, frame: Mapping[str, Any], connection: FrameConnection
    ) -> None:
        """Answer an admin frame: at once, or — ``repair_send`` and
        ``recover`` — from the callback of the entry the frame opened.
        A frame with a malformed field is answered ``error``, and every
        handler parses its fields before it changes any state."""

        def answer(
            reply: Optional[Dict[str, Any]], error: Optional[Exception] = None
        ) -> None:
            if error is not None:
                reply = {"type": "error", "error": str(error)}
            reply["id"] = frame.get("id")
            _send(connection, reply)
            if kind == "shutdown" and error is None:
                self._stopped.set()

        try:
            if kind == "repair_send":
                self._repair_send(frame, answer)
            elif kind == "recover":
                self.recover(answer)
            else:
                answer(self._admin_reply(kind, frame))
        except (
            ClusterError, LookupError, AttributeError, TypeError, ValueError
        ) as error:
            answer(None, error)

    def _admin_reply(self, kind: str, frame: Mapping[str, Any]) -> Dict[str, Any]:
        if kind == "ping":
            return {
                "type": "pong",
                "node": self.node_id,
                "crashed": self.crashed,
                "protocol": self.protocol.name,
            }
        if kind == "metrics":
            return {"type": "metrics_report", "metrics": self.metrics.to_wire()}
        if kind == "set_peers":
            self.transport.set_peers(
                {
                    int(node): Address.parse(rendered)
                    for node, rendered in frame.get("peers", {}).items()
                }
            )
            return {"type": "ok", "op": "set_peers"}
        if kind == "fault":
            plan = frame.get("plan")
            self.transport.fault_plan = (
                FaultPlan.from_wire(plan) if plan is not None else None
            )
            return {"type": "ok", "op": "fault"}
        if kind == "resilience":
            # The subprocess launcher ships its spec's policy this way:
            # ``serve`` has no flag for it.
            self.transport.set_retry_policy(
                RetryPolicy.from_wire(frame.get("policy", {}))
            )
            return {"type": "ok", "op": "resilience"}
        if kind == "status":
            version = self.database.peek_version()
            return {
                "type": "status",
                "node": self.node_id,
                "crashed": self.crashed,
                "holds_valid_copy": self.database.holds_valid_copy,
                "version": _stamp(version),
                "join_list": sorted(self.join_list),
                "steward": self.steward,
                "scheme": sorted(self.protocol.scheme),
                "protocol": self.protocol.name,
                "durable": self.durability.durable,
                "latest_commit": self._latest_commit,
                # Requests still open here; 0 once the cluster is idle.
                "pending": len(self._pending) + len(self._exec_inflight),
            }
        if kind == "adopt":
            if self.crashed:
                raise ClusterError(
                    f"node {self.node_id} is crashed and cannot adopt"
                )
            members = {int(n) for n in frame.get("nodes", ())}
            if bool(frame.get("steward", False)) and not self.steward:
                # Flip the flag before the membership update so the
                # journaled join record carries the steward bit.
                self.steward = True
                self._journal_join_state()
            self.join_list.update(members)
            return {"type": "ok", "op": "adopt"}
        if kind == "set_scheme":
            members = frozenset(int(n) for n in frame.get("scheme", ()))
            self.protocol.update_scheme(members)
            self.durability.log_scheme(members)
            return {"type": "ok", "op": "set_scheme"}
        if kind == "reset_metrics":
            self.reset_metrics()
            return {"type": "ok", "op": "reset_metrics"}
        if kind == "crash":
            self.crash()
            return {"type": "ok", "op": "crash"}
        if kind == "shutdown":
            return {"type": "ok", "op": "shutdown"}
        raise ClusterError(f"unknown frame type {kind!r}")

    # -- scheme repair -----------------------------------------------------

    def _repair_send(
        self, frame: Mapping[str, Any], answer: Callable[..., None]
    ) -> None:
        """Admin: act as repair donor — copy our object to a peer.

        Answers only after the transfer settled, so the repairer can
        drive rounds synchronously.  The copy is charged as one data
        message at this node (see ``PeerTransport.send_repair``) plus
        the store I/O at the target; the donor's local read is
        uncharged, like the simulator's recovery handshakes.  Fault-free
        runs never repair, so parity is untouched."""
        target = int(frame.get("target", -1))
        rid = int(frame.get("rid", 0))
        if self.crashed:
            raise ClusterError(f"repair donor {self.node_id} is crashed")
        if not self.database.holds_valid_copy:
            raise ClusterError(
                f"repair donor {self.node_id} holds no valid copy"
            )
        version = self.database.peek_version()

        def settled(pending: PendingRequest, error: Optional[Exception]) -> None:
            if error is None and target in pending.crash_settled:
                error = ClusterError(f"repair target {target} is crashed")
            report = {
                "type": "repair_report",
                "donor": self.node_id,
                "target": target,
                "version": _stamp(version),
            }
            answer(report, error)

        self.open_pending(rid, "c", 1, settled)
        try:
            self.transport.send_repair(target, rid, version)
        except ClusterError as error:
            self.fail_pending(rid, error)

    def _handle_repair_copy(self, frame: Mapping[str, Any]) -> None:
        """Peer plane: install a repair copy shipped by a donor."""
        rid, donor = frame["rid"], frame["from"]
        if self.crashed:
            self.metrics.dropped_messages += 1
            self.transport.send_done(donor, rid, dropped=True)
            return
        self.output_object(frame["version"])
        self.metrics.repairs_received += 1
        self.transport.send_done(donor, rid)

    # -- state used by the protocol adapters -------------------------------

    def input_object(self) -> ObjectVersion:
        """Read the object from the local database (charged I/O)."""
        version = self.database.input_object()
        self.metrics.io_reads += 1
        return version

    def output_object(self, version: ObjectVersion) -> None:
        """Write the object to the local database (charged I/O).

        The WAL append rides on this already-charged ``c_io`` write —
        uncharged itself, which is what keeps fault-free parity exact
        with durability enabled."""
        self.database.output_object(version)
        self.metrics.io_writes += 1
        self.durability.log_object(version)

    def invalidate_object(self) -> None:
        """Invalidate the local copy, journaled.  Protocol adapters call
        this instead of touching the database directly so a re-crash
        replays the invalidation instead of resurrecting a stale copy."""
        self.database.invalidate()
        self.durability.log_invalidate()

    def open_pending(
        self,
        rid: int,
        kind: str,
        units: int,
        then: Callable[[PendingRequest, Optional[Exception]], None],
        targets: Iterable[int] = (),
    ) -> None:
        """Open an entry for ``units`` outstanding work units; with none,
        ``then`` runs at once."""
        if rid in self._pending:
            raise ClusterError(f"request id {rid} is already in flight here")
        pending = PendingRequest(rid, kind, units, then, targets=frozenset(targets))
        if units <= 0:
            then(pending, None)
        else:
            self._pending[rid] = pending

    def finish_unit(self, rid: int, failure: Optional[str] = None) -> None:
        """Settle one unit of ``rid``, lost if ``failure`` is given; once
        drained, the entry settles — degraded if any unit was lost."""
        pending = self._pending.get(rid)
        if pending is None:
            return
        pending.failure = pending.failure or failure
        pending.units -= 1
        if pending.units > 0:
            return
        del self._pending[rid]
        error = None
        if pending.failure is not None:
            error = ClusterDegradedError(f"write {rid}: {pending.failure}")
            if pending.kind == "w":
                self.metrics.degraded_rejections += 1
        pending.then(pending, error)

    def fail_pending(self, rid: int, error: Exception) -> None:
        pending = self._pending.pop(rid, None)
        if pending is not None:
            pending.then(pending, error)

    def ask_in_turn(
        self,
        rid: int,
        kind: str,
        candidates: List[int],
        ask: Callable[[int], Message],
        then: Callable[[Any, Optional[Exception]], None],
    ) -> None:
        """Ask ``candidates`` one at a time, under request ``rid``: each
        gets a one-unit ``kind`` entry and the message ``ask(peer)``.

        ``then(value, error)`` reports the first answer that carries a
        value.  An entry that settles without one — the peer is crashed,
        copyless or unreachable — moves the walk on to the next
        candidate.  Only a settled entry moves it, never slowness, so at
        most one candidate answers.  The walk fails once no candidate is
        left, or once this node has crashed."""
        self._ask_next((rid, kind, candidates, iter(candidates), ask, then))

    def _ask_next(
        self,
        walk: tuple,
        pending: Optional[PendingRequest] = None,
        error: Optional[Exception] = None,
    ) -> None:
        """One step of :meth:`ask_in_turn`; a ``partial`` carries the
        walk, so a settled walk leaves no cycle for the collector."""
        rid, kind, candidates, remaining, ask, then = walk
        if pending is not None and pending.version is not None:
            then(pending.version, None)
            return
        if self.crashed:
            then(None, error)
            return
        peer = next(remaining, None)
        if peer is None:
            then(None, ClusterError(
                f"request {rid} at {self.node_id}: no reachable copy among "
                f"{candidates} ({error or 'none came back'})"
            ))
            return
        self.open_pending(rid, kind, 1, partial(self._ask_next, walk))
        self.transport.send_protocol(ask(peer))

    def resolve_pending(self, rid: int, kind: str, value: Any) -> bool:
        """Claim an incoming answer as this node's own read (``"r"``,
        the version) or probe (``"p"``, the vouching peer and its
        version number, or ``None`` from a copyless peer).

        Request ids are globally unique (the load generator assigns
        them), so holding a read pending for ``rid`` is proof a
        DataTransfer answers our own request rather than delivering a
        write's store."""
        pending = self._pending.get(rid)
        if pending is None or pending.kind != kind:
            return False
        pending.version = value
        self.finish_unit(rid)
        return True

    # -- failures ----------------------------------------------------------

    def crash(self) -> None:
        """Fail-stop: volatile state lost, stable copy suspect.

        The WAL is deliberately *not* written to here: it must keep the
        pre-crash state, which is exactly what the fresh-rejoin recovery
        tier restores (a crash loses volatile memory, not the disk)."""
        if self.crashed:
            raise ClusterError(f"node {self.node_id} is already down")
        self.crashed = True
        with self.durability.muted():
            self.join_list.clear()
            self.steward = False
            self.database.crash()
        # Settle every entry: origin requests fail, and each open relay
        # tells its writer an invalidation was lost (``done failed``).
        for rid in list(self._pending):
            self.fail_pending(rid, ClusterError(f"node {self.node_id} crashed"))

    def recover(self, answer: Callable[..., None]) -> None:
        """Tiered recovery; ``answer(reply, error)`` gets the ``recover``
        admin reply.

        Tiers (see ``docs/durability.md``):

        * ``volatile`` — no state dir: the copy stays invalid until
          re-read from the scheme (it may have missed writes), per the
          simulator's semantics.
        * ``log-fresh`` — the replayed version is still the latest
          (vouched by a peer over one control round): rejoin with the
          full journaled state and **zero data messages**.
        * ``log-stale`` — a peer holds something newer; stay invalid
          and let the ``SchemeRepairer`` copy path refresh us.
        * ``log-empty`` — nothing durable to rejoin with (same fallback).
        * ``log-unverified`` — no peer could vouch; conservatively
          treated as stale.

        Replay is charged as local I/O (``io_reads``), the probe as one
        control round trip (inquiry here, report at the peer) — never
        as data messages.  Damage (torn/corrupt tail) was already
        truncated by the WAL, so ``damaged``/``truncated_bytes`` in the
        reply report what the crash cost.  A crash while the probe is in
        flight answers that crash's error."""
        if not self.crashed:
            raise ClusterError(f"node {self.node_id} is not down")
        self.crashed = False
        reply: Dict[str, Any] = {
            "type": "ok",
            "op": "recover",
            "node": self.node_id,
            "tier": "volatile",
        }
        if not self.durability.durable:
            answer(reply)
            return
        state = self.durability.recover()
        self.metrics.io_reads += state.replay_cost
        reply.update(
            replayed=state.replayed,
            truncated_bytes=state.truncated_bytes,
            damaged=state.damaged,
            version=_stamp(state.version),
        )
        if state.version is None or not state.valid:
            reply["tier"] = "log-empty" if state.version is None else "log-stale"
            self._settle_stale_recovery(state)
            answer(reply)
            return

        def vouched(report, error: Optional[Exception]) -> None:
            if self.crashed:
                answer(None, error)
                return
            peer, peer_number = report or (None, None)
            reply.update(probe_peer=peer, peer_version=peer_number)
            if peer is None or peer_number > state.version.number:
                reply["tier"] = "log-unverified" if peer is None else "log-stale"
                self._settle_stale_recovery(state)
            else:
                # Fresh: reinstall the journaled state as-is.  Muted —
                # the log already records exactly this state.
                with self.durability.muted():
                    self.database.output_object(state.version)
                    self.join_list.clear()
                    self.join_list.update(state.join_list)
                    self.steward = state.steward
                self._latest_commit = state.latest_commit
                self.metrics.fresh_rejoins += 1
                self.durability.log_note(
                    "recovered", tier="log-fresh", number=state.version.number
                )
                reply["tier"] = "log-fresh"
            answer(reply)

        # Ask peers in the read-failover order to vouch for the logged
        # version: a ``VersionInquiry`` out, a ``VersionReport`` back —
        # the quorum literature's recovery handshake (cf.
        # :mod:`repro.distsim.protocols.missing_writes`: an empty log is
        # revalidated at the price of a version check).
        self._probe_rid += 1
        rid = self._probe_rid
        self.ask_in_turn(
            rid,
            "p",
            self.protocol.probe_candidates(),
            lambda peer: VersionInquiry(self.node_id, peer, request_id=rid),
            vouched,
        )

    def _settle_stale_recovery(self, state) -> None:
        """The log could not prove freshness: stay invalid (``crash()``
        already wiped the volatile state) and journal that outcome, so
        a re-crash before the repair round replays reality instead of
        the stale past."""
        self._latest_commit = state.latest_commit
        self.durability.log_invalidate()
        self.durability.log_join((), False)

    def reset_metrics(self) -> None:
        """Fresh counters (e.g. after warm-up); shared with transport."""
        self.metrics = NodeMetrics(self.node_id)
        self.transport.metrics = self.metrics
        self.durability.metrics = self.metrics


def _stamp(version: Optional[ObjectVersion]) -> Optional[Dict[str, int]]:
    """A version as admin replies report it: number and writer, never
    the payload, so a reply stays small whatever the object holds."""
    if version is None:
        return None
    return {"number": version.number, "writer": version.writer}


def _send(connection: FrameConnection, payload: Mapping[str, Any]) -> None:
    """Reply on ``connection``; a caller that hung up gets nothing (a
    client's retry reads the cached reply)."""
    try:
        connection.send(payload)
    except ConnectionError:
        pass
