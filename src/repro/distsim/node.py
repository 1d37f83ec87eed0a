"""A processor node: local database + volatile protocol state.

Crash semantics follow the classic fail-stop model the paper's cited
recovery literature assumes: a crashed node drops incoming messages and
loses its volatile state (join-lists, pending-request bookkeeping);
stable storage survives, but the copy it holds must be treated as
suspect until recovery revalidates it (it may have missed writes).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict

from repro.exceptions import ProtocolError
from repro.storage.local_db import LocalDatabase
from repro.storage.versions import ObjectVersion
from repro.types import ProcessorId

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.distsim.messages import Message
    from repro.distsim.network import Network


class Node:
    """One processor of the distributed system."""

    def __init__(self, node_id: ProcessorId, network: "Network") -> None:
        self.node_id = node_id
        self.network = network
        self.database = LocalDatabase(node_id)
        self.alive = True
        #: Free-form volatile protocol state (lost on crash).
        self.volatile: Dict[str, Any] = {}
        self._handler = None

    # -- protocol wiring -------------------------------------------------------

    def attach_handler(self, handler) -> None:
        """Install the protocol's message handler:
        ``handler.on_message(node, message)`` is invoked per delivery."""
        self._handler = handler

    def deliver(self, message: "Message") -> None:
        """Called by the network when a message arrives."""
        if not self.alive:
            raise ProtocolError(
                f"network delivered a message to crashed node {self.node_id}"
            )
        if self._handler is None:
            raise ProtocolError(
                f"node {self.node_id} has no protocol handler attached"
            )
        self._handler.on_message(self, message)

    # -- charged I/O (counts into the network's statistics) ---------------------

    def input_object(self) -> ObjectVersion:
        """Read the object from the local database (charged I/O)."""
        version = self.database.input_object()
        self.network.stats.io_reads += 1
        return version

    def input_any_object(self) -> ObjectVersion:
        """Read whatever version is stored, valid or not (charged I/O;
        quorum reads judge freshness by version number)."""
        version = self.database.input_any_version()
        self.network.stats.io_reads += 1
        return version

    def output_object(self, version: ObjectVersion) -> None:
        """Write the object to the local database (charged I/O)."""
        self.database.output_object(version)
        self.network.stats.io_writes += 1

    # -- uncharged state changes --------------------------------------------------

    def invalidate_copy(self) -> None:
        self.database.invalidate()

    def seed_copy(self, version: ObjectVersion) -> None:
        """Install an initial copy without charging I/O (pre-schedule
        setup; the paper's costs start at the first request)."""
        self.database.output_object(version)

    @property
    def holds_valid_copy(self) -> bool:
        return self.database.holds_valid_copy

    # -- failures ------------------------------------------------------------------

    def crash(self) -> None:
        """Fail-stop: volatile state lost, stable storage kept."""
        self.alive = False
        self.volatile = {}
        self.database.crash()

    def recover(self) -> None:
        """The node rejoins; its copy stays invalid until a protocol
        revalidates it (missing-writes handling)."""
        self.alive = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "up" if self.alive else "DOWN"
        return f"<Node {self.node_id} {state}>"
