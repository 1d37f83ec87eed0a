"""Write-ahead log: append-only, checksummed, replayable stable storage.

The paper's §3.1 model puts objects on *stable storage* that survives
processor crashes; the live cluster realizes that with a per-node
write-ahead log.  Every record is one length-prefixed frame::

    [4-byte big-endian length][4-byte big-endian CRC32 of body][body]

where the body is a sorted-key UTF-8 JSON object carrying a monotonic
sequence number, a typed ``kind`` and a small payload — decodable with
``struct`` + ``json`` alone, like the cluster wire format
(:mod:`repro.cluster.rpc`).  The log stays JSON; only the wire's four
hot frame types use fixed binary layouts.

Replay is deterministic and damage-tolerant: records are folded in
sequence order until the first sign of damage — a torn tail (fewer
bytes than the header promises), a CRC mismatch (a partially-fsynced
or scribbled record), an implausible length, or a sequence regression —
at which point the log is truncated to the end of the valid prefix and
the replay reports what was lost.  A crash can therefore cost at most
the *suffix* of un-synced records, never the whole log.

The module also hosts the fault injectors the chaos harness uses to
manufacture exactly those damage shapes (:func:`inject_torn_tail`,
:func:`inject_tail_corruption`), so the unit tests and the chaos runs
damage logs the same way.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.exceptions import StorageError

#: ``(length, crc32)`` header in front of every record body.
_HEADER = struct.Struct(">II")

#: One encoder for every record (and checkpoint): ``json.dumps`` would
#: build a new one per call.  Sorted keys make the bytes stable.
_ENCODER = json.JSONEncoder(separators=(",", ":"), sort_keys=True)

#: Records larger than this are rejected on append and treated as
#: damage on replay: WAL payloads are tiny typed state transitions, so
#: a huge length prefix means corruption, not a legitimate record.
MAX_RECORD_BYTES = 1 * 1024 * 1024


@dataclass(frozen=True)
class WalRecord:
    """One typed, sequenced state transition on the log."""

    seq: int
    kind: str
    payload: Dict[str, Any]

    def describe(self) -> str:
        return f"wal[{self.seq}] {self.kind} {self.payload}"


@dataclass(frozen=True)
class ReplayResult:
    """What one replay pass recovered — and what it had to give up."""

    records: Tuple[WalRecord, ...]
    #: Bytes cut off the tail because they failed validation.
    truncated_bytes: int = 0
    #: True when damage was detected (the log was truncated to the
    #: valid prefix; ``truncated_bytes`` says how much was lost).
    damaged: bool = False

    @property
    def last_seq(self) -> int:
        return self.records[-1].seq if self.records else 0


class WriteAheadLog:
    """An append-only log of typed records with CRC-checked replay.

    ``sync=True`` fsyncs every append (durable against OS crashes);
    the default flushes only, which is durable against *process*
    crashes — the failure model of the cluster's fail-stop nodes — and
    keeps the fault-free request path fast.
    """

    def __init__(self, path: str, sync: bool = False) -> None:
        self.path = str(path)
        self.sync = bool(sync)
        self._file = None
        self._next_seq = 1

    # -- state inspection --------------------------------------------------

    @property
    def next_seq(self) -> int:
        """The sequence number the next append will carry."""
        return self._next_seq

    @property
    def last_seq(self) -> int:
        """The sequence number of the last appended/replayed record."""
        return self._next_seq - 1

    def size(self) -> int:
        """Current on-disk size in bytes (0 if the log does not exist)."""
        try:
            return os.path.getsize(self.path)
        except OSError:
            return 0

    # -- appending ---------------------------------------------------------

    def _handle(self):
        if self._file is None or self._file.closed:
            directory = os.path.dirname(self.path)
            if directory:
                os.makedirs(directory, exist_ok=True)
            self._file = open(self.path, "ab")
        return self._file

    def append(
        self, kind: str, payload: Optional[Mapping[str, Any]] = None
    ) -> WalRecord:
        """Append one typed record; returns it with its sequence number."""
        record = WalRecord(
            seq=self._next_seq,
            kind=str(kind),
            payload=dict(payload or {}),
        )
        body = _ENCODER.encode(
            {"kind": record.kind, "payload": record.payload, "seq": record.seq}
        ).encode("utf-8")
        if len(body) > MAX_RECORD_BYTES:
            raise StorageError(
                f"WAL record of {len(body)} bytes exceeds the "
                f"{MAX_RECORD_BYTES}-byte limit"
            )
        handle = self._handle()
        handle.write(_HEADER.pack(len(body), zlib.crc32(body)) + body)
        handle.flush()
        if self.sync:
            os.fsync(handle.fileno())
        self._next_seq += 1
        return record

    # -- replay ------------------------------------------------------------

    def replay(self) -> ReplayResult:
        """Fold the log from disk; truncate at the first sign of damage.

        Valid records are returned in order.  The first torn frame, CRC
        mismatch, malformed body or sequence regression marks the
        damage point: everything from there on is cut off the file so
        later appends continue from a clean prefix.  The in-memory
        sequence counter resumes after the last valid record.
        """
        try:
            with open(self.path, "rb") as handle:
                data = handle.read()
        except FileNotFoundError:
            return ReplayResult(records=())
        records = []
        offset = 0
        damaged = False
        while True:
            if offset + _HEADER.size > len(data):
                damaged = offset != len(data)  # a torn header
                break
            length, crc = _HEADER.unpack_from(data, offset)
            if length == 0 or length > MAX_RECORD_BYTES:
                damaged = True
                break
            start = offset + _HEADER.size
            end = start + length
            if end > len(data):
                damaged = True  # a torn body
                break
            body = data[start:end]
            if zlib.crc32(body) != crc:
                damaged = True  # a partially-fsynced / scribbled record
                break
            record = self._decode(body)
            if record is None:
                damaged = True
                break
            if records and record.seq != records[-1].seq + 1:
                damaged = True  # sequence regression: records reordered
                break
            records.append(record)
            offset = end
        truncated = len(data) - offset
        if damaged and truncated > 0:
            self._truncate_to(offset)
        if records:
            self._next_seq = records[-1].seq + 1
        return ReplayResult(
            records=tuple(records),
            truncated_bytes=truncated if damaged else 0,
            damaged=damaged,
        )

    @staticmethod
    def _decode(body: bytes) -> Optional[WalRecord]:
        try:
            decoded = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            return None
        if not isinstance(decoded, dict):
            return None
        try:
            seq = int(decoded["seq"])
            kind = str(decoded["kind"])
        except (KeyError, TypeError, ValueError):
            return None
        payload = decoded.get("payload")
        if payload is None:
            payload = {}
        if not isinstance(payload, dict) or seq < 1:
            return None
        return WalRecord(seq=seq, kind=kind, payload=payload)

    # -- maintenance -------------------------------------------------------

    def resume_from(self, next_seq: int) -> None:
        """Continue numbering from ``next_seq`` (after a snapshot load)."""
        if next_seq < 1:
            raise StorageError("WAL sequence numbers start at 1")
        self._next_seq = int(next_seq)

    def reset(self) -> None:
        """Drop the log content (after its state moved to a checkpoint).

        The open handle is truncated in place; appends continue through
        it.  Sequence numbers keep counting: the checkpoint records the
        last folded sequence number, so recovery can verify the log
        continues where the checkpoint left off.
        """
        handle = self._handle()
        handle.seek(0)
        handle.truncate()

    def _truncate_to(self, size: int) -> None:
        self.close()
        try:
            os.truncate(self.path, size)
        except OSError as error:  # pragma: no cover - exotic filesystems
            raise StorageError(
                f"cannot truncate damaged WAL {self.path!r}: {error}"
            ) from error

    def close(self) -> None:
        if self._file is not None and not self._file.closed:
            self._file.close()
        self._file = None


# -- fault injection ---------------------------------------------------------


def inject_torn_tail(path: str, nbytes: int) -> int:
    """Tear the last ``nbytes`` off a log, as an interrupted write would.

    Returns how many bytes were actually removed (capped at the file
    size).  Used by the chaos harness and the WAL unit tests so both
    damage logs identically.
    """
    if nbytes < 1:
        raise StorageError("a torn write must remove at least one byte")
    try:
        size = os.path.getsize(path)
    except OSError as error:
        raise StorageError(f"no WAL at {path!r} to tear: {error}") from error
    cut = min(int(nbytes), size)
    if cut > 0:
        os.truncate(path, size - cut)
    return cut


def inject_tail_corruption(path: str, offset_from_end: int = 1) -> bool:
    """Flip one byte near the tail — a partial fsync leaving garbage.

    The record keeps its length but fails its CRC, which is the damage
    shape :meth:`WriteAheadLog.replay` must catch without shortening
    the file first.  Returns False when the file is too small to
    corrupt at that offset.
    """
    if offset_from_end < 1:
        raise StorageError("the corruption offset counts back from EOF, >= 1")
    try:
        size = os.path.getsize(path)
    except OSError as error:
        raise StorageError(f"no WAL at {path!r} to corrupt: {error}") from error
    if size < offset_from_end:
        return False
    with open(path, "r+b") as handle:
        handle.seek(size - offset_from_end)
        original = handle.read(1)
        handle.seek(size - offset_from_end)
        handle.write(bytes([original[0] ^ 0xFF]))
    return True
