"""Point-in-time checkpoints that bound WAL replay length.

A checkpoint is the folded durable state of a node at one log sequence
number, written as a single CRC-framed JSON document::

    [4-byte big-endian length][4-byte big-endian CRC32 of body][body]

— the same frame the WAL uses for records, so one validation discipline
covers both files.  The body's ``last_seq`` orders checkpoints.

Two slot files, ``<path>`` and ``<path>.1``, are overwritten in place
(one positional write of the frame, then a cut to its length), always
the slot not holding the newest valid checkpoint: a crash mid-save
tears only that slot and leaves the previous checkpoint intact.  A
load takes the newest slot that passes its CRC; with neither valid,
recovery falls back to pure log replay.

After a successful checkpoint the WAL is reset: replay then costs one
checkpoint load plus however many records accrued since, instead of the
whole history.
"""

from __future__ import annotations

import json
import os
import zlib
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.exceptions import StorageError
from repro.storage.wal import _ENCODER, _HEADER

#: Same plausibility bound as WAL records (see :mod:`repro.storage.wal`).
MAX_SNAPSHOT_BYTES = 4 * 1024 * 1024


class SnapshotStore:
    """Two in-place checkpoint slots with CRC validation; newest wins."""

    def __init__(self, path: str) -> None:
        self.paths = (str(path), f"{path}.1")
        #: The slot the next save overwrites; None until a load or save
        #: has looked at the disk.
        self._target: Optional[int] = None

    def save(self, state: Mapping[str, Any], sync: bool = False) -> None:
        """Overwrite the older slot with ``state``, in place."""
        body = _ENCODER.encode(dict(state)).encode("utf-8")
        if len(body) > MAX_SNAPSHOT_BYTES:
            raise StorageError(
                f"snapshot of {len(body)} bytes exceeds the "
                f"{MAX_SNAPSHOT_BYTES}-byte limit"
            )
        if self._target is None:
            self.load()
        frame = _HEADER.pack(len(body), zlib.crc32(body)) + body
        path = self.paths[self._target]
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o644)
        try:
            if os.pwrite(fd, frame, 0) != len(frame):
                raise StorageError(f"short write to snapshot slot {path!r}")
            os.ftruncate(fd, len(frame))
            if sync:
                os.fsync(fd)
        finally:
            os.close(fd)
        self._target = 1 - self._target

    def load(self) -> Optional[Dict[str, Any]]:
        """The newest valid checkpoint, or None if neither slot holds one.

        A bad slot never raises: it is skipped, and with both bad
        recovery degrades to replaying the log from its start, which is
        always safe (just slower).
        """
        newest, newest_slot = None, None
        for slot, path in enumerate(self.paths):
            found = _read_frame(path)
            if found is not None and (newest is None or found[0] > newest[0]):
                newest, newest_slot = found, slot
        self._target = 0 if newest_slot is None else 1 - newest_slot
        return None if newest is None else newest[1]

    def delete(self) -> None:
        """Remove both slots."""
        for path in self.paths:
            try:
                os.remove(path)
            except FileNotFoundError:
                pass
        self._target = None


def _read_frame(path: str) -> Optional[Tuple[int, Dict[str, Any]]]:
    """One slot's ``(last_seq, checkpoint)``, or None if the slot is
    missing, torn, or corrupt."""
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError:
        return None
    if len(data) < _HEADER.size:
        return None
    length, crc = _HEADER.unpack_from(data, 0)
    if length == 0 or length > MAX_SNAPSHOT_BYTES:
        return None
    body = data[_HEADER.size : _HEADER.size + length]
    if len(body) != length or zlib.crc32(body) != crc:
        return None
    try:
        decoded = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None
    if not isinstance(decoded, dict):
        return None
    stamp = decoded.get("last_seq", 0)
    if not isinstance(stamp, int):
        return None
    return stamp, decoded
