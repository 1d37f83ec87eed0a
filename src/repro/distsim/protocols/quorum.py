"""Quorum consensus (weighted voting) — the paper's failure fallback.

Paper §2: *"We propose that the DA algorithm handles failures by
resorting to quorum consensus with static allocation when a processor
of the set F fails"*, citing Gifford's weighted voting and Thomas's
majority consensus.  The paper omits the details; this module
reconstructs the standard protocol:

* every processor holds one vote (the homogeneous special case of
  weighted voting);
* a **read** assembles ``read_quorum`` version reports (control
  messages; the reader's own copy reports for free), picks the holder
  of the highest version number, and fetches the object from it;
* a **write** stores the new version at ``write_quorum`` live
  processors (data messages + output I/O); stale copies are *not*
  invalidated — quorum intersection (``r + w > n``) guarantees every
  read sees the latest version anyway.

Version numbers play the role of Gifford's timestamps.  Reading a
version *number* is a catalog lookup, not a charged object I/O.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional

from repro.distsim.messages import (
    DataTransfer,
    ReadRequest,
    VersionInquiry,
    VersionReport,
)
from repro.distsim.network import Network
from repro.distsim.protocols.base import ProtocolDriver, RequestContext
from repro.exceptions import ProtocolError
from repro.storage.versions import ObjectVersion
from repro.types import ProcessorId


@dataclass
class QuorumPoll:
    """Report collection for one read (vote-weighted)."""

    needed: int
    polled: set = field(default_factory=set)
    reports: Dict[ProcessorId, tuple[int, bool]] = field(default_factory=dict)
    votes_reported: int = 0
    decided: bool = False

    def record(
        self,
        reporter: ProcessorId,
        version_number: int,
        holds_copy: bool,
        votes: int = 1,
    ) -> None:
        if reporter not in self.reports:
            self.votes_reported += votes
        self.reports[reporter] = (version_number, holds_copy)

    def complete(self) -> bool:
        return self.votes_reported >= self.needed

    def has_holder(self) -> bool:
        return any(holds for _, holds in self.reports.values())

    def best_holder(self) -> ProcessorId:
        holders = {
            reporter: version_number
            for reporter, (version_number, holds) in self.reports.items()
            if holds
        }
        if not holders:
            raise ProtocolError("no quorum member holds a copy")
        best = max(holders.values())
        # Deterministic tie-break: the lowest id among the freshest.
        return min(p for p, v in holders.items() if v == best)


class QuorumMachinery:
    """Reusable quorum read/write state machines.

    Mixed into :class:`QuorumConsensusProtocol` and into the
    fault-tolerant DA driver (which enters quorum mode while a core
    member is down).  Classes using it must be
    :class:`~repro.distsim.protocols.base.ProtocolDriver` subclasses.
    """

    read_quorum: int
    write_quorum: int
    _polls: Dict[int, QuorumPoll]

    def _init_quorums(
        self,
        read_quorum: Optional[int],
        write_quorum: Optional[int],
        votes: Optional[Dict[ProcessorId, int]] = None,
    ) -> None:
        """Configure Gifford-style weighted voting.

        ``votes`` assigns each node a non-negative vote weight (default
        one vote each — Thomas's majority consensus as the special
        case).  Quorums are vote totals; ``r + w`` must exceed the total
        vote count so any read quorum intersects any write quorum.
        """
        self.votes: Dict[ProcessorId, int] = {
            node_id: 1 for node_id in self.network.node_ids
        }
        if votes:
            for node_id, weight in votes.items():
                if node_id not in self.votes:
                    raise ProtocolError(f"votes for unknown node {node_id}")
                if weight < 0:
                    raise ProtocolError(
                        f"vote weight of node {node_id} must be >= 0"
                    )
                self.votes[node_id] = weight
        total = sum(self.votes.values())
        if total < 1:
            raise ProtocolError("the total vote count must be positive")
        majority = total // 2 + 1
        self.read_quorum = read_quorum if read_quorum is not None else majority
        self.write_quorum = (
            write_quorum if write_quorum is not None else majority
        )
        if self.read_quorum + self.write_quorum <= total:
            raise ProtocolError(
                f"r={self.read_quorum} + w={self.write_quorum} must exceed "
                f"the total vote count {total} for quorum intersection"
            )
        if not 1 <= self.read_quorum <= total or not 1 <= self.write_quorum <= total:
            raise ProtocolError(
                f"quorum vote counts must be within [1, {total}]"
            )
        self._polls = {}

    def _vote(self, node_id: ProcessorId) -> int:
        return self.votes.get(node_id, 1)

    def _live_votes(self) -> int:
        return sum(
            self._vote(node.node_id) for node in self.network.live_nodes()
        )

    # -- reads -------------------------------------------------------------

    def quorum_read(self, context: RequestContext) -> None:
        reader = context.request.processor
        live = [node.node_id for node in self.network.live_nodes()]
        if self._live_votes() < self.read_quorum:
            raise ProtocolError(
                f"only {self._live_votes()} live votes; cannot assemble a "
                f"read quorum of {self.read_quorum}"
            )
        members = self._pick_quorum(live, reader, self.read_quorum)
        poll = QuorumPoll(needed=self.read_quorum)
        poll.polled = set(members)
        self._polls[context.request_id] = poll
        context.add_work()  # resolved when the object reaches the reader
        if reader in members:
            own = self.network.node(reader)
            version = own.database.peek_version()
            poll.record(
                reader,
                version.number if version else -1,
                version is not None,
                votes=self._vote(reader),
            )
        for member in members:
            if member == reader:
                continue
            self.network.send(
                VersionInquiry(reader, member, request_id=context.request_id)
            )
        self._maybe_decide_read(context)

    def _pick_quorum(
        self,
        live: list[ProcessorId],
        preferred: ProcessorId,
        votes_needed: int,
    ) -> list[ProcessorId]:
        """The preferred processor (if live) plus further nodes — heavy
        voters first, lowest id among equals — until the vote quota is
        met.  Deterministic, so runs are reproducible."""
        members: list[ProcessorId] = []
        gathered = 0
        if preferred in live and self._vote(preferred) > 0:
            members.append(preferred)
            gathered += self._vote(preferred)
        for node_id in sorted(live, key=lambda n: (-self._vote(n), n)):
            if gathered >= votes_needed:
                break
            if node_id not in members and self._vote(node_id) > 0:
                members.append(node_id)
                gathered += self._vote(node_id)
        return members

    def handle_version_inquiry(self, node, message: VersionInquiry) -> None:
        version = node.database.peek_version()
        self.network.send(
            VersionReport(
                node.node_id,
                message.sender,
                request_id=message.request_id,
                version_number=version.number if version else -1,
                holds_copy=version is not None,
            )
        )

    def handle_version_report(self, node, message: VersionReport) -> None:
        poll = self._polls.get(message.request_id)
        if poll is None or poll.decided:
            return  # late report after the quorum was assembled
        poll.record(
            message.sender,
            message.version_number,
            message.holds_copy,
            votes=self._vote(message.sender),
        )
        context = self.context(message.request_id)
        self._maybe_decide_read(context)

    def _maybe_decide_read(self, context: RequestContext) -> None:
        poll = self._polls[context.request_id]
        if poll.decided or not poll.complete():
            return
        reader = context.request.processor
        if not poll.has_holder():
            # The minimal quorum held no copy at all (possible right
            # after a fallback transition): widen the poll to the
            # remaining live nodes before giving up.
            remaining = [
                node.node_id
                for node in self.network.live_nodes()
                if node.node_id not in poll.polled and node.node_id != reader
            ]
            if not remaining:
                raise ProtocolError("no live node holds a copy of the object")
            poll.polled |= set(remaining)
            poll.needed += sum(self._vote(member) for member in remaining)
            for member in remaining:
                self.network.send(
                    VersionInquiry(reader, member, request_id=context.request_id)
                )
            return
        poll.decided = True
        holder = poll.best_holder()
        if holder == reader:
            version = self.network.node(reader).input_any_object()
            self.network.perform_io(
                lambda: self._finish_quorum_read(context, version),
                label=f"read-io@{reader}",
                node=reader,
            )
        else:
            self.network.send(
                ReadRequest(reader, holder, request_id=context.request_id)
            )

    def _finish_quorum_read(
        self, context: RequestContext, version: ObjectVersion
    ) -> None:
        context.version = version
        context.finish_work(self.simulator.now)

    def quorum_serve_read(self, node, message: ReadRequest) -> None:
        version = node.input_any_object()

        def respond() -> None:
            self.network.send(
                DataTransfer(
                    node.node_id,
                    message.sender,
                    version=version,
                    request_id=message.request_id,
                    save_copy=False,
                )
            )

        self.network.perform_io(
            respond, label=f"serve-read@{node.node_id}", node=node.node_id
        )

    def quorum_read_response(self, node, message: DataTransfer) -> None:
        context = self.context(message.request_id)
        context.version = message.version
        context.finish_work(self.simulator.now)

    # -- writes --------------------------------------------------------------------

    def quorum_write(
        self, context: RequestContext, version: ObjectVersion
    ) -> None:
        writer = context.request.processor
        live = [node.node_id for node in self.network.live_nodes()]
        if self._live_votes() < self.write_quorum:
            raise ProtocolError(
                f"only {self._live_votes()} live votes; cannot assemble a "
                f"write quorum of {self.write_quorum}"
            )
        members = self._pick_quorum(live, writer, self.write_quorum)
        if writer in members:
            self.local_write(context, writer, version)
        for member in members:
            if member == writer:
                continue
            context.add_work()
            self.network.send(
                DataTransfer(
                    writer,
                    member,
                    version=version,
                    request_id=context.request_id,
                    save_copy=True,
                )
            )
        self._last_write_members = frozenset(members)

    def quorum_store(self, node, message: DataTransfer) -> None:
        context = self.context(message.request_id)
        node.output_object(message.version)
        self.network.perform_io(
            lambda: context.finish_work(self.simulator.now),
            label=f"store@{node.node_id}",
            node=node.node_id,
        )


class QuorumConsensusProtocol(QuorumMachinery, ProtocolDriver):
    """Pure quorum consensus with static votes (the fallback mode)."""

    name = "quorum-protocol"

    def __init__(
        self,
        network: Network,
        scheme: Iterable[ProcessorId],
        read_quorum: Optional[int] = None,
        write_quorum: Optional[int] = None,
        votes: Optional[Dict[ProcessorId, int]] = None,
    ) -> None:
        ProtocolDriver.__init__(self, network, scheme)
        self._init_quorums(read_quorum, write_quorum, votes)
        self._last_write_members = frozenset(self.initial_scheme)

    def _seed_initial_copies(self) -> None:
        """Weighted voting starts with a copy at every voting site
        (Gifford '79); seeding is uncharged like all initialization."""
        version = self.versions.next_version(writer=min(self.initial_scheme))
        for node_id in self.network.node_ids:
            self.network.node(node_id).seed_copy(version)
        self._latest_version = version

    def start_read(self, context: RequestContext) -> None:
        self.quorum_read(context)

    def start_write(
        self, context: RequestContext, version: ObjectVersion
    ) -> None:
        self.quorum_write(context, version)

    def handle_read_request(self, node, message: ReadRequest) -> None:
        self.quorum_serve_read(node, message)

    def handle_data_transfer(self, node, message: DataTransfer) -> None:
        if message.save_copy:
            self.quorum_store(node, message)
        else:
            self.quorum_read_response(node, message)
