"""Versioned per-processor storage: the paper's "local database".

Also home to the durable-node machinery (PR 5): a CRC-checksummed
append-only :class:`~repro.storage.wal.WriteAheadLog` and a two-slot,
overwritten-in-place :class:`~repro.storage.snapshot.SnapshotStore`, which
:mod:`repro.cluster.durability` folds into crash recovery.
"""

from repro.storage.local_db import LocalDatabase
from repro.storage.snapshot import SnapshotStore
from repro.storage.versions import ObjectVersion, VersionCounter
from repro.storage.wal import (
    ReplayResult,
    WalRecord,
    WriteAheadLog,
    inject_tail_corruption,
    inject_torn_tail,
)

__all__ = [
    "LocalDatabase",
    "ObjectVersion",
    "ReplayResult",
    "SnapshotStore",
    "VersionCounter",
    "WalRecord",
    "WriteAheadLog",
    "inject_tail_corruption",
    "inject_torn_tail",
]
