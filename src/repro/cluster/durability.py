"""Per-node durable state: typed WAL records folded into recovery state.

This is the glue between the generic log machinery
(:mod:`repro.storage.wal`, :mod:`repro.storage.snapshot`) and the
cluster node's lifecycle.  A :class:`NodeDurability` owns one node's
``state-dir/node-<id>/`` directory (``wal.log`` plus the two checkpoint
slots ``snapshot.bin`` and ``snapshot.bin.1``) and exposes typed
appenders for every correctness-relevant transition:

===========  =============================================  ==========
kind         payload                                        folds into
===========  =============================================  ==========
``seed``     the launch-time version                        version, valid
``object``   a stored version (write/saving-read/repair)    version, valid
``inval``    —                                              valid=False
``join``     full join-list membership + steward flag       join_list
``scheme``   full allocation-scheme membership (SA grows)   scheme
``commit``   acked write's request id + version number      latest_commit
``note``     free-form audit breadcrumbs (recovery tiers)   nothing
===========  =============================================  ==========

Join-list and scheme records carry the *full* membership rather than
deltas, so folding is idempotent and a truncated suffix can only lose
recent changes, never corrupt older ones.

Cost accounting (the reason this module exists at all — see
``docs/durability.md``): appends and snapshots ride on the node's
already-charged ``c_io`` write (the database ``output_object``) and are
therefore **uncharged** — which is what keeps fault-free runs
bit-identical to the stepped simulator with durability enabled.  Replay
is charged at recovery time only, one ``io_read`` per folded record
plus one for a loaded snapshot, per the paper's "local ``c_io`` beats a
``c_d`` network copy" argument.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Mapping, Optional, Set, Tuple

from repro.cluster.metrics import NodeMetrics
from repro.storage.snapshot import SnapshotStore
from repro.storage.versions import ObjectVersion
from repro.storage.wal import WriteAheadLog

WAL_FILENAME = "wal.log"
SNAPSHOT_FILENAME = "snapshot.bin"

#: After this many appends the durable state is folded into a snapshot
#: and the log restarts, bounding replay length.
DEFAULT_SNAPSHOT_EVERY = 64


def node_state_dir(state_dir: str, node_id: int) -> str:
    """The per-node subdirectory inside a cluster's ``--state-dir``."""
    return os.path.join(state_dir, f"node-{node_id}")


def wal_path(state_dir: str, node_id: int) -> str:
    """Where a node's WAL lives (the chaos injectors target this)."""
    return os.path.join(node_state_dir(state_dir, node_id), WAL_FILENAME)


def snapshot_path(state_dir: str, node_id: int) -> str:
    return os.path.join(node_state_dir(state_dir, node_id), SNAPSHOT_FILENAME)


def version_to_wire(version: Optional[ObjectVersion]) -> Optional[dict]:
    """A version as the WAL and snapshot JSON store it."""
    if version is None:
        return None
    wire: Dict[str, Any] = {"number": version.number, "writer": version.writer}
    if version.payload is not None:
        wire["payload"] = version.payload
    return wire


def version_from_wire(wire: Optional[Mapping[str, Any]]) -> Optional[ObjectVersion]:
    if wire is None:
        return None
    return ObjectVersion(
        int(wire["number"]), int(wire["writer"]), wire.get("payload")
    )


@dataclass
class DurableState:
    """The folded result of one recovery pass (snapshot + log replay)."""

    version: Optional[ObjectVersion] = None
    valid: bool = False
    join_list: Set[int] = field(default_factory=set)
    steward: bool = False
    scheme: Optional[Tuple[int, ...]] = None
    latest_commit: int = 0
    last_seq: int = 0
    #: Records folded from the log (excludes the snapshot).
    replayed: int = 0
    truncated_bytes: int = 0
    damaged: bool = False
    from_snapshot: bool = False

    @property
    def empty(self) -> bool:
        """True when there was nothing durable to restore."""
        return self.last_seq == 0 and not self.from_snapshot

    @property
    def replay_cost(self) -> int:
        """Charged ``io_reads`` for this recovery (paper ``c_io``)."""
        return self.replayed + (1 if self.from_snapshot else 0)


class NodeDurability:
    """One node's write-ahead log + snapshot, with typed appenders.

    Built with no ``state_dir`` it is the journal of a *volatile* node:
    permanently muted, so every appender is a no-op, and
    :meth:`recover` finds nothing (an empty :class:`DurableState`)."""

    def __init__(
        self,
        node_id: int,
        state_dir: Optional[str],
        metrics: NodeMetrics,
        snapshot_every: int = DEFAULT_SNAPSHOT_EVERY,
    ) -> None:
        self.node_id = node_id
        self.metrics = metrics
        self.snapshot_every = int(snapshot_every)
        self._since_snapshot = 0
        #: Set by the node: returns the state dict a snapshot captures.
        self.snapshot_state: Optional[Callable[[], Dict[str, Any]]] = None
        self.durable = state_dir is not None
        self._muted = 0 if self.durable else 1
        if not self.durable:
            return
        self.directory = node_state_dir(state_dir, node_id)
        os.makedirs(self.directory, exist_ok=True)
        self.wal = WriteAheadLog(os.path.join(self.directory, WAL_FILENAME))
        self.snapshots = SnapshotStore(
            os.path.join(self.directory, SNAPSHOT_FILENAME)
        )

    # -- mute (restore paths must not re-log what they replay) -------------

    @contextmanager
    def muted(self):
        self._muted += 1
        try:
            yield self
        finally:
            self._muted -= 1

    # -- appending ---------------------------------------------------------

    def record(self, kind: str, payload: Optional[Mapping[str, Any]] = None) -> None:
        if self._muted:
            return
        self.wal.append(kind, payload)
        self.metrics.wal_appends += 1
        self._since_snapshot += 1
        if (
            self.snapshot_every > 0
            and self._since_snapshot >= self.snapshot_every
            and self.snapshot_state is not None
        ):
            self.take_snapshot()

    def log_seed(self, version: ObjectVersion) -> None:
        if not self._muted:
            self.record("seed", {"version": version_to_wire(version)})

    def log_object(self, version: ObjectVersion) -> None:
        if not self._muted:
            self.record("object", {"version": version_to_wire(version)})

    def log_invalidate(self) -> None:
        self.record("inval")

    def log_join(self, members, steward: bool) -> None:
        if not self._muted:
            members = sorted(int(n) for n in members)
            self.record("join", {"members": members, "steward": bool(steward)})

    def log_scheme(self, members) -> None:
        if not self._muted:
            self.record("scheme", {"members": sorted(int(n) for n in members)})

    def log_commit(self, rid: int, number: int) -> None:
        if not self._muted:
            self.record("commit", {"rid": int(rid), "number": int(number)})

    def log_note(self, note: str, **payload: Any) -> None:
        self.record("note", {"note": note, **payload})

    # -- snapshots ---------------------------------------------------------

    def take_snapshot(self) -> None:
        """Fold the current node state into a checkpoint, written over the
        older slot in place; then truncate the log in place."""
        if self.snapshot_state is None:
            return
        state = dict(self.snapshot_state())
        state["last_seq"] = self.wal.last_seq
        self.snapshots.save(state)
        self.wal.reset()
        self._since_snapshot = 0
        self.metrics.snapshots_written += 1

    # -- recovery ----------------------------------------------------------

    def recover(self) -> DurableState:
        """Fold checkpoint + log into the state a restarting node resumes.

        Damage handling is the WAL's truncate-at-damage rule.  Records at
        or below the checkpoint's ``last_seq`` are inside it, so they are
        skipped and not charged; a log starting past ``last_seq + 1`` is
        ``damaged``.  With no valid checkpoint, recovery degrades to pure
        log replay.  The caller charges
        ``state.replay_cost`` into ``io_reads`` and decides the recovery
        tier (fresh / stale) by probing a peer — this method is purely
        local.
        """
        state = DurableState()
        if not self.durable:
            return state
        snapshot = self.snapshots.load()
        if snapshot is not None:
            self._fold_snapshot(snapshot, state)
        result = self.wal.replay()
        records = [r for r in result.records if r.seq > state.last_seq]
        for record in records:
            self._fold_record(record, state)
        state.replayed = len(records)
        state.truncated_bytes = result.truncated_bytes
        gap = state.from_snapshot and records and records[0].seq > state.last_seq + 1
        state.damaged = result.damaged or bool(gap)
        if records:
            state.last_seq = records[-1].seq
        self.wal.resume_from(max(state.last_seq, 0) + 1)
        self.metrics.wal_replayed += state.replayed
        if state.damaged:
            self.metrics.wal_truncations += 1
        return state

    @staticmethod
    def _fold_snapshot(snapshot: Mapping[str, Any], state: DurableState) -> None:
        try:
            state.version = version_from_wire(snapshot.get("version"))
            state.valid = bool(snapshot.get("valid", False))
            state.join_list = {int(n) for n in snapshot.get("join_list", ())}
            state.steward = bool(snapshot.get("steward", False))
            scheme = snapshot.get("scheme")
            if scheme:
                state.scheme = tuple(sorted(int(n) for n in scheme))
            state.latest_commit = int(snapshot.get("latest_commit", 0))
            state.last_seq = int(snapshot.get("last_seq", 0))
        except (TypeError, ValueError, KeyError):
            # A structurally-odd snapshot is treated as absent; the log
            # alone still yields a consistent (if older) state.
            state.__init__()  # type: ignore[misc]
            return
        state.from_snapshot = True

    @staticmethod
    def _fold_record(record, state: DurableState) -> None:
        kind, payload = record.kind, record.payload
        if kind in ("seed", "object"):
            version = version_from_wire(payload.get("version"))
            if version is not None:
                state.version = version
                state.valid = True
        elif kind == "inval":
            state.valid = False
        elif kind == "join":
            try:
                state.join_list = {int(n) for n in payload.get("members", ())}
            except (TypeError, ValueError):
                return
            state.steward = bool(payload.get("steward", False))
        elif kind == "scheme":
            try:
                state.scheme = tuple(
                    sorted(int(n) for n in payload.get("members", ()))
                )
            except (TypeError, ValueError):
                return
        elif kind == "commit":
            try:
                state.latest_commit = max(
                    state.latest_commit, int(payload.get("number", 0))
                )
            except (TypeError, ValueError):
                return
        # Unknown kinds (e.g. "note", or records from a newer release)
        # fold to nothing: forward compatibility by construction.

    def close(self) -> None:
        if self.durable:
            self.wal.close()
