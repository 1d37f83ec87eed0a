"""The per-processor local database of the paper's model.

A :class:`LocalDatabase` stores (at most) one version of the replicated
object on the processor's stable storage (paper §3.1).  A copy can be
*invalidated* — marked obsolete by a write elsewhere — without being
physically removed; reading an invalidated copy is a protocol error,
which is exactly the bug class the legality checks exist to catch.

The database charges nothing: the node that owns it counts each input
and output into its run's I/O total (the paper's ``c_io``).
"""

from __future__ import annotations

from typing import Optional

from repro.exceptions import StorageError
from repro.storage.versions import ObjectVersion
from repro.types import ProcessorId


class LocalDatabase:
    """One processor's local database holding one replicated object."""

    def __init__(self, owner: ProcessorId) -> None:
        self.owner = owner
        #: The stored version (survives a crash); ``None`` until the
        #: first output.
        self._version: Optional[ObjectVersion] = None
        self._valid = False

    # -- state inspection -------------------------------------------------

    @property
    def holds_valid_copy(self) -> bool:
        """True iff this database holds a non-invalidated copy."""
        return self._valid

    def peek_version(self) -> Optional[ObjectVersion]:
        """The stored version, valid or not."""
        return self._version

    # -- input and output ----------------------------------------------------

    def input_object(self) -> ObjectVersion:
        """Input (read) the object from the local database.

        Raises :class:`StorageError` if there is no valid copy: a legal
        allocation schedule never reads an obsolete or absent copy.
        """
        if not self._valid:
            raise StorageError(
                f"processor {self.owner} has no valid copy to input"
            )
        return self._version

    def input_any_version(self) -> ObjectVersion:
        """Input whatever version is on stable storage.

        Quorum consensus determines freshness by comparing version
        timestamps across a quorum, not by DA's validity flag, so it
        may legitimately read a copy that DA-style bookkeeping marked
        suspect (e.g. after a crash).  Raises only when no copy exists.
        """
        if self._version is None:
            raise StorageError(
                f"processor {self.owner} has no copy on stable storage"
            )
        return self._version

    def output_object(self, version: ObjectVersion) -> None:
        """Output (write) the object to the local database."""
        self._version = version
        self._valid = True

    # -- validity ------------------------------------------------------------

    def invalidate(self) -> None:
        """Mark the local copy obsolete (costs only the control message
        that triggered it, which the network layer counts)."""
        self._valid = False

    def revalidate(self) -> None:
        """Mark the stored copy valid again.

        Used by recovery when the missing-writes handshake established
        that the stable copy is still the latest version; the handshake
        messages are charged by the caller."""
        if self._version is not None:
            self._valid = True

    def crash(self) -> None:
        """Volatile state is lost; the stored version survives, but the
        copy must be treated as suspect until recovery revalidates it."""
        self._valid = False
