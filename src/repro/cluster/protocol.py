"""Live protocol adapters: distsim's SA/DA logic over real sockets.

The discrete-event drivers in :mod:`repro.distsim.protocols` centralize
the protocol state machine in one object that handles every node's
messages.  A live cluster cannot: each node only owns *its* volatile
state (DA join-lists) and *its* database.  The adapters below therefore
distribute the drivers' responsibilities to the nodes that own them —
the serving member records joiners, each member of ``F`` walks its own
join-list on a write — while the decision rules themselves (execution
sets, invalidation targets, store targets) are imported from the
distsim modules (:func:`~repro.distsim.protocols.da_protocol.da_execution_set`,
:func:`~repro.distsim.protocols.da_protocol.da_invalidation_targets`,
:func:`~repro.distsim.protocols.sa_protocol.sa_store_targets`), so the
two realizations can never disagree about *what* to send.

Message-for-message the traffic is identical to the simulated drivers
(same senders, same receivers, same classes), which is what makes the
end-to-end parity claim exact: live counts == simulated counts ==
stepped accounting == kernel.

Completion tracking uses uncharged ``done`` frames (the wire analogue
of the simulator's ``on_delivered`` oracle) arranged hierarchically:
the origin node awaits the ``done`` of each direct send; a member of
``F`` that relays invalidations on behalf of a write acknowledges the
store only after its own invalidations are acknowledged.  Running each
request to quiescence before the next starts realizes the paper's
totally-ordered schedules exactly like the simulator does.
Every method here is a plain call: ``client_read`` and ``client_write``
start a request and leave a callback on its pending entry, which
reports to ``then(version, error)`` once the entry settles.  A message
lost on every attempt is settled by the node, not here.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Optional

from repro.distsim.messages import (
    DataTransfer,
    Invalidate,
    Message,
    ReadRequest,
    VersionInquiry,
    VersionReport,
)
from repro.distsim.protocols.da_protocol import (
    da_execution_set,
    da_invalidation_targets,
)
from repro.distsim.protocols.sa_protocol import sa_store_targets
from repro.exceptions import ClusterDegradedError, ClusterError, StorageError
from repro.storage.versions import ObjectVersion

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.node import NodeServer

#: Where a client request reports: ``then(version, error)``, exactly
#: once — the version read or written, or the error it failed with.
Then = Callable[[Optional[ObjectVersion], Optional[Exception]], None]


class LiveProtocol:
    """Base of the node-side protocol adapters."""

    name = "live-abstract"

    def __init__(self, node: "NodeServer") -> None:
        self.node = node
        self.scheme = frozenset(node.config.scheme)
        if len(self.scheme) < 2:
            raise ClusterError("the initial scheme must have t >= 2 members")

    @property
    def me(self) -> int:
        return self.node.node_id

    def update_scheme(self, members) -> None:
        """Adopt a repaired allocation scheme (admin ``set_scheme``)."""
        raise ClusterError(
            f"{self.name} does not support scheme updates"
        )

    def probe_candidates(self) -> List[int]:
        """Peers that may hold a valid copy, in failover order: a remote
        read walks them, and so does a recovering node asking one to
        vouch for its logged version (one control round trip each)."""
        return sorted(self.scheme - {self.me})

    def _handle_common(self, message: Message) -> bool:
        """Protocol-independent messages: the recovery freshness probe.

        A ``VersionInquiry`` is answered from the uncharged version peek
        (the paper prices the probe as the control round trip, not as
        I/O); a ``VersionReport`` resolves one of our own probes — with
        no value from a copyless peer, so the probe asks the next one.
        Returns True when the message was consumed here."""
        if isinstance(message, VersionInquiry):
            version = self.node.database.peek_version()
            self.node.transport.send_protocol(
                VersionReport(
                    self.me,
                    message.sender,
                    request_id=message.request_id,
                    version_number=(
                        version.number if version is not None else -1
                    ),
                    holds_copy=self.node.database.holds_valid_copy,
                )
            )
            return True
        if isinstance(message, VersionReport):
            report = (message.sender, message.version_number)
            self.node.resolve_pending(
                message.request_id, "p", report if message.holds_copy else None
            )
            return True
        return False

    def client_read(self, rid: int, then: Then) -> None:
        raise NotImplementedError

    def client_write(self, rid: int, version: ObjectVersion, then: Then) -> None:
        raise NotImplementedError

    def handle_message(self, message: Message) -> None:
        raise NotImplementedError

    # -- shared building blocks ------------------------------------------

    def _remote_read(self, rid: int, then: Then) -> None:
        """Request the object from the first peer that serves it: one
        walk of :meth:`probe_candidates` through
        :meth:`~repro.cluster.node.NodeServer.ask_in_turn`.  Fault-free,
        the first candidate is the paper's serving member, so traffic is
        the model's message for message."""
        self.node.ask_in_turn(
            rid,
            "r",
            self.probe_candidates(),
            lambda server: ReadRequest(self.me, server, request_id=rid),
            then,
        )

    def _serve_read(self, message: ReadRequest, save_copy: bool) -> None:
        """Input the object and ship it back to the requester."""
        try:
            version = self.node.input_object()
        except StorageError:
            # No valid local copy (e.g. freshly recovered, not yet
            # repaired): tell the reader its response is not coming so
            # it can fail over / fail fast instead of timing out.
            self.node.transport.send_done(
                message.sender, message.request_id, dropped=True
            )
            return
        self.node.transport.send_protocol(
            DataTransfer(
                self.me,
                message.sender,
                version=version,
                request_id=message.request_id,
                save_copy=save_copy,
            )
        )


class LiveStaticAllocation(LiveProtocol):
    """SA (§4.2.1) served live: read-one-write-all over a fixed ``Q``."""

    name = "SA-live"

    def update_scheme(self, members) -> None:
        """SA repair grows ``Q`` to cover repaired copy holders.

        The scheme is static under the paper's normal mode; repair is
        the one (failure-mode) mutation, broadcast by the repairer so
        every node routes stores to the full post-repair scheme."""
        scheme = frozenset(int(member) for member in members)
        if len(scheme) < 2:
            raise ClusterError("the scheme must keep t >= 2 members")
        self.scheme = scheme

    def client_read(self, rid: int, then: Then) -> None:
        if self.me in self.scheme and self.node.database.holds_valid_copy:
            then(self.node.input_object(), None)
        else:
            # Outsiders read remotely; so does a freshly recovered member
            # until a repair round restores its local copy.
            self._remote_read(rid, then)

    def client_write(self, rid: int, version: ObjectVersion, then: Then) -> None:
        targets = sa_store_targets(self.scheme, self.me)

        def settled(pending, error: Optional[Exception]) -> None:
            if error is not None:
                if self.me in self.scheme:
                    # Roll back the unacknowledged local copy so no
                    # replica serves a version newer than the last
                    # acknowledged one as if it were committed.
                    self.node.invalidate_object()
            elif (
                self.me not in self.scheme
                and targets
                and set(targets) <= pending.crash_settled
            ):
                error = ClusterDegradedError(
                    f"write {rid}: every scheme member is crashed; "
                    "no live replica holds the update"
                )
            then(version, error)

        self.node.open_pending(rid, "w", len(targets), settled)
        if self.me in self.scheme:
            self.node.output_object(version)
        for member in targets:
            self.node.transport.send_protocol(
                DataTransfer(
                    self.me, member, version=version, request_id=rid,
                    save_copy=True,
                )
            )

    def handle_message(self, message: Message) -> None:
        if self._handle_common(message):
            return
        if isinstance(message, ReadRequest):
            # Outsiders do not save the copy under SA.
            self._serve_read(message, save_copy=False)
        elif isinstance(message, DataTransfer):
            if self.node.resolve_pending(
                message.request_id, "r", message.version
            ):
                return  # my own read response; SA readers never save
            self.node.output_object(message.version)
            self.node.transport.send_done(
                message.sender, message.request_id
            )
        else:
            raise ClusterError(
                f"{self.name} got unexpected {message.describe()}"
            )


class LiveDynamicAllocation(LiveProtocol):
    """DA (§4.2.2) served live: save-on-read / invalidate-on-write."""

    name = "DA-live"

    def __init__(self, node: "NodeServer") -> None:
        super().__init__(node)
        primary = node.config.primary
        if primary is None:
            primary = max(self.scheme)
        if primary not in self.scheme:
            raise ClusterError(
                f"primary {primary} is not in the scheme {sorted(self.scheme)}"
            )
        self.primary = primary
        self.core = frozenset(self.scheme - {primary})
        if not self.core:
            raise ClusterError("F must be non-empty (t >= 2)")
        self.server = min(self.core)
        if self.me == self.server:
            # The primary starts as a recorded non-core holder, exactly
            # as the simulated driver seeds the server's join-list.
            node.join_list.add(self.primary)

    def probe_candidates(self) -> List[int]:
        # Core members ascending (the first is the serving member), then
        # the primary — it holds a copy whenever no core member does
        # (e.g. all of F crashed and was repaired).
        candidates = sorted(self.core - {self.me})
        if self.primary != self.me:
            candidates.append(self.primary)
        return candidates

    def client_read(self, rid: int, then: Then) -> None:
        if self.node.database.holds_valid_copy:
            then(self.node.input_object(), None)
        else:
            self._remote_read(rid, then)

    def client_write(self, rid: int, version: ObjectVersion, then: Then) -> None:
        execution_set = da_execution_set(self.core, self.primary, self.me)
        own_targets: List[int] = []
        if self.me in self.core:
            own_targets = da_invalidation_targets(
                self.node.join_list, execution_set, self.me
            )
        stores = sorted(execution_set - {self.me})

        def settled(pending, error: Optional[Exception]) -> None:
            if error is None and self.me not in self.core:
                core_stores = {member for member in stores if member in self.core}
                if core_stores and core_stores <= pending.crash_settled:
                    error = ClusterDegradedError(
                        f"write {rid}: every member of F crashed during the "
                        "store; reads routed through F would miss the update"
                    )
            if error is not None:
                # The update was not acknowledged; drop the local copy so
                # this node cannot serve it as if committed.
                self.node.invalidate_object()
            then(version, error)

        # Lazy discipline: a target leaves the join-list only once its
        # invalidation settles — its `done` arrives, acknowledged or
        # dropped by a crash (:meth:`NodeServer._handle_done`).
        # Clearing up front would forget a holder whose invalidation is
        # then lost for good.
        self.node.open_pending(
            rid, "w", len(stores) + len(own_targets), settled, targets=own_targets
        )
        self.node.output_object(version)
        if self.me in self.core:
            # Before the sends: a send can settle the entry at once.
            self._record_holders(execution_set)
        for member in stores:
            self.node.transport.send_protocol(
                DataTransfer(
                    self.me, member, version=version, request_id=rid,
                    save_copy=True,
                )
            )
        for target in own_targets:
            self.node.transport.send_protocol(
                Invalidate(
                    self.me, target, version_number=version.number,
                    request_id=rid,
                )
            )

    def _record_holders(self, execution_set) -> None:
        """The serving member (or a steward) records the execution set's
        non-core members — a write's stores just (re)validated them —
        for future invalidation.  Merged, never a restart: forgetting a
        holder of the version being written would be unsafe."""
        if self.me == self.server or self.node.steward:
            self.node.join_list.update(execution_set - self.core)

    def handle_message(self, message: Message) -> None:
        if self._handle_common(message):
            return
        if isinstance(message, ReadRequest):
            if message.sender not in self.core:
                self.node.join_list.add(message.sender)
            # The reader saves the copy: a saving-read.
            self._serve_read(message, save_copy=True)
        elif isinstance(message, DataTransfer):
            self._handle_data_transfer(message)
        elif isinstance(message, Invalidate):
            self.node.invalidate_object()
            self.node.transport.send_done(
                message.sender, message.request_id
            )
        else:
            raise ClusterError(
                f"{self.name} got unexpected {message.describe()}"
            )

    def _handle_data_transfer(self, message: DataTransfer) -> None:
        rid = message.request_id
        if self.node.resolve_pending(rid, "r", message.version):
            # My own read response.  A copy served by a member of F is
            # recorded in its join-list, so the reader keeps it.  One the
            # primary served after failover is recorded nowhere a write
            # walks: use it, but do not keep it.
            if message.sender in self.core:
                self.node.output_object(message.version)
            return
        # A store from a writer: output, then (members of F) walk the
        # join-list and invalidate stale holders before acknowledging.
        self.node.output_object(message.version)
        writer = message.sender
        targets: List[int] = []
        if self.me in self.core:
            execution_set = da_execution_set(self.core, self.primary, writer)
            targets = da_invalidation_targets(
                self.node.join_list, execution_set, writer
            )
            # Lazy discipline (see `client_write`): targets leave the
            # list per settled invalidation, never wholesale.
            self._record_holders(execution_set)

        def acknowledge(pending, error: Optional[Exception]) -> None:
            # A lost invalidation leaves a stale holder: the writer
            # must reject, not acknowledge.
            self.node.transport.send_done(writer, rid, failed=error is not None)

        # Relay the invalidations; the entry acknowledges the writer once
        # every one of them settled (at once, with none to relay).
        self.node.open_pending(rid, "i", len(targets), acknowledge, targets=targets)
        for target in targets:
            self.node.transport.send_protocol(
                Invalidate(
                    self.me, target,
                    version_number=message.version.number,
                    request_id=rid,
                )
            )


def make_live_protocol(name: str, node: "NodeServer") -> LiveProtocol:
    """Build a live adapter by the protocol's short name."""
    key = name.strip().upper()
    if key == "SA":
        return LiveStaticAllocation(node)
    if key == "DA":
        return LiveDynamicAllocation(node)
    raise ClusterError(f"unknown live protocol {name!r}; known: SA, DA")
