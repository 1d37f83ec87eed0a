"""Wire format of the live cluster: length-prefixed binary or JSON frames.

Every frame on a cluster connection — client requests, peer protocol
messages, completion notifications, admin commands — is a body
prefixed with a 4-byte big-endian length.  The body's first byte
selects its layout.  ``{`` opens a UTF-8 JSON object with sorted keys:
the admin plane, ``repair``, and any ``exec``, ``result`` or ``done``
frame whose fields its binary layout cannot carry exactly (a string
``rid``, an int beyond int64, a key with no slot).  Any other byte is
a tag naming one fixed big-endian :mod:`struct` layout, ``q`` for an
int and ``?`` for a bool: a read and a write ``exec``, an answered and
a failed ``result``, ``done``, and one per class in
:data:`MESSAGE_TYPES`, derived from its dataclass fields.  A version's
payload (as JSON), or a failure's error text, follows as a tail.

Decoding a binary body gives the mapping that decoding its JSON form
would.  A ``msg`` frame is binary only: its mapping is ``{"type":
"msg", "rid": R, "message": M}``, and a message with a field its
layout cannot carry raises ``ClusterError`` at encode.  A truncated
binary body, an unknown tag, trailing bytes and a JSON ``msg`` are
malformed.  A captured stream decodes with ``struct`` + ``json`` alone.

Frame families (the ``type`` field):

``exec`` / ``result``
    The client plane: a read/write request routed to the issuing
    processor's node, and its reply.
``msg``
    The peer plane: one of the :mod:`repro.distsim.messages` protocol
    messages in transit.  These are the *charged* frames — the node
    metrics count them by paper class (control vs data) exactly like
    the simulated network does.
``done``
    The completion oracle: an **uncharged** notification that a unit of
    work finished downstream.  It plays the role of the simulator's
    ``on_delivered`` hook (see :mod:`repro.distsim.network`): the paper
    does not charge acknowledgements, so neither does the cluster.
``repair``
    A scheme-repair copy from a donor node: charged as one data
    message, answered by ``done`` like a store.
``ping`` / ``metrics`` / ``status`` / ``set_peers`` / ``fault`` /
``resilience`` / ``adopt`` / ``set_scheme`` / ``repair_send`` /
``reset_metrics`` / ``crash`` / ``recover`` / ``shutdown``
    The admin plane, used by launchers, the repairer, tests and the
    CLI.  A request carries an ``id`` that every reply, ``error``
    included, echoes.

Every connection — node, peer link, client and admin — is a
:class:`FrameConnection` protocol that serves each frame the moment its
bytes arrive.  A node serves every frame within that callback; a frame
that waits on peers leaves a continuation behind (see
:mod:`repro.cluster.node`).
"""

from __future__ import annotations

import asyncio
import json
import struct
from dataclasses import fields
from operator import attrgetter
from typing import Any, Callable, Dict, Mapping, Optional, Tuple
from typing import get_type_hints

from repro.distsim.messages import (
    DataTransfer,
    Invalidate,
    Message,
    ReadRequest,
    VersionInquiry,
    VersionReport,
)
from repro.exceptions import ClusterError, ConfigurationError
from repro.storage.versions import ObjectVersion

_HEADER = struct.Struct(">I")

#: Frames larger than this are rejected: the replicated object payloads
#: of the reproduction are small, so a huge length prefix means a
#: corrupt or hostile stream, not a legitimate message.
MAX_FRAME_BYTES = 4 * 1024 * 1024


# -- framing ---------------------------------------------------------------

#: One encoder for every frame: ``json.dumps`` would build a new one per
#: call.  Sorted keys make the bytes stable for a given payload.
_ENCODER = json.JSONEncoder(separators=(",", ":"), sort_keys=True)


def encode_frame(payload: Mapping[str, Any]) -> bytes:
    """Serialize one frame: 4-byte length prefix + body.  A payload its
    type's binary layout carries exactly packs to that layout; any other
    is JSON.  One that neither can carry raises ``ClusterError``."""
    pack = _PACKERS.get(payload.get("type"))
    try:
        data = None if pack is None else pack(payload)
    except (_Misfit, struct.error, UnicodeEncodeError):
        data = None  # JSON carries what the layout cannot
    if data is None:
        try:
            data = _ENCODER.encode(payload).encode("utf-8")
        except TypeError as error:
            raise ClusterError(
                f"no wire encoding for a {payload.get('type')!r} frame: {error}"
            ) from error
    if len(data) > MAX_FRAME_BYTES:
        raise ClusterError(
            f"frame of {len(data)} bytes exceeds the {MAX_FRAME_BYTES}-byte limit"
        )
    return _HEADER.pack(len(data)) + data


def _decode_body(body: bytes) -> Dict[str, Any]:
    """Parse one frame body; a malformed one raises ``ClusterError``."""
    if body[:1] != b"{":
        unpack = _UNPACKERS.get(body[0]) if body else None
        if unpack is None:
            raise ClusterError(
                "every frame must be a JSON object with a 'type' or a "
                f"binary body with a known tag, not {bytes(body[:1])!r}"
            )
        try:
            return unpack(body)
        except (struct.error, ValueError, ConfigurationError) as error:
            raise ClusterError(f"malformed binary frame body: {error}") from error
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ClusterError(f"malformed frame body: {error}") from error
    if not isinstance(payload, dict) or "type" not in payload:
        raise ClusterError("every frame must be a JSON object with a 'type'")
    if payload["type"] == "msg":
        raise ClusterError("a msg frame has no JSON form")
    return payload


class FrameConnection(asyncio.Protocol):
    """One connection of the cluster, serving frames as they arrive.

    ``data_received`` splits the byte stream into frames and hands each
    to ``on_frame(connection, frame)`` at once, in arrival order — no
    read pump, no task per frame.  A frame the sink raises on is
    reported to the loop's exception handler and the next frame is
    still served.  An oversize length or a malformed body closes the
    connection without serving it or anything after it.  ``send`` and
    ``write`` go straight to the transport: no lock and no ``drain()``.
    ``on_close(connection, error)`` runs once when the connection is
    gone; ``error`` is the framing error that closed it, if any."""

    def __init__(
        self,
        on_frame: Callable[["FrameConnection", Dict[str, Any]], None],
        on_close: Optional[
            Callable[["FrameConnection", Optional[Exception]], None]
        ] = None,
    ) -> None:
        self.transport: Optional[asyncio.Transport] = None
        self._on_frame = on_frame
        self._on_close = on_close
        self._buffer = bytearray()
        self._error: Optional[Exception] = None

    @property
    def closed(self) -> bool:
        return self.transport is None or self.transport.is_closing()

    def send(self, payload: Mapping[str, Any]) -> None:
        """Encode and write one frame (see :meth:`write`)."""
        self.write(encode_frame(payload))

    def write(self, data: bytes) -> None:
        """Write one encoded frame; ``ConnectionError`` if the connection
        was closed, or the write found it broken (the frame is lost)."""
        if self.closed:
            raise ConnectionResetError("the connection is closed")
        self.transport.write(data)
        if self.transport.is_closing():
            raise ConnectionResetError("the connection broke on write")

    def close(self) -> None:
        if self.transport is not None:
            self.transport.close()

    # -- asyncio.Protocol ----------------------------------------------------

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = transport

    def data_received(self, data: bytes) -> None:
        buffer = self._buffer
        buffer += data
        size = len(buffer)
        start = 0
        while size - start >= _HEADER.size and not self.closed:
            (length,) = _HEADER.unpack_from(buffer, start)
            end = start + _HEADER.size + length
            try:
                if length > MAX_FRAME_BYTES:
                    raise ClusterError(
                        f"incoming frame of {length} bytes exceeds the "
                        f"{MAX_FRAME_BYTES}-byte limit"
                    )
                if end > size:
                    break
                frame = _decode_body(buffer[start + _HEADER.size : end])
            except ClusterError as error:
                self._error = error
                buffer.clear()
                self.transport.close()
                return
            start = end
            try:
                self._on_frame(self, frame)
            except Exception as error:
                asyncio.get_running_loop().call_exception_handler(
                    {
                        "message": f"serving a {frame['type']!r} frame failed",
                        "exception": error,
                        "protocol": self,
                    }
                )
        del buffer[:start]

    def connection_lost(self, exc: Optional[Exception]) -> None:
        if self._on_close is not None:
            self._on_close(self, self._error or exc)


# -- object versions -------------------------------------------------------


def version_to_wire(version: Optional[ObjectVersion]) -> Optional[dict]:
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


# -- binary layouts --------------------------------------------------------

#: Every protocol message the cluster ships.  Each has a binary layout
#: derived from its dataclass fields; a message class missing here has
#: no wire form.
MESSAGE_TYPES = (
    ReadRequest,
    Invalidate,
    VersionInquiry,
    VersionReport,
    DataTransfer,
)

#: The fixed fields of the client plane and of ``done``, tag first.
#: ``exec``: a read's rid, or a write's rid and version number and
#: writer.  ``result``: an answer's rid and optional version, or a
#: failure's rid and degraded flag.  ``done``: rid, from, dropped, failed.
_READ, _WRITE = struct.Struct(">Bq"), struct.Struct(">Bqqq")
_OK, _FAILED = struct.Struct(">Bq?qq"), struct.Struct(">Bq?")
_DONE = struct.Struct(">Bqq??")
_READ_TAG, _WRITE_TAG, _OK_TAG, _FAILED_TAG, _DONE_TAG = range(1, 6)
#: A message field's code by its type.  An optional version is a
#: presence flag, number and writer, with its payload as a JSON tail.
_FIELD_CODES = {int: "q", bool: "?", Optional[ObjectVersion]: "?qq"}


class _Misfit(Exception):
    """A payload its type's binary layout cannot carry exactly."""


def _fit(fits: bool) -> None:
    if not fits:
        raise _Misfit


def _split(layout: struct.Struct, body: bytes) -> Tuple[tuple, bytes]:
    """A binary body's fixed fields and the tail after them."""
    return layout.unpack_from(body), body[layout.size :]


def _no_tail(tail: bytes) -> None:
    if tail:
        raise ClusterError(f"{len(tail)} trailing bytes after a binary frame")


def _pack_version(wire: Any) -> tuple:
    """A version mapping as ``(present, number, writer, payload tail)``."""
    if wire is None:
        return False, 0, 0, b""
    _fit(type(wire) is dict and len(wire) == 2 + ("payload" in wire))
    number, writer = wire.get("number"), wire.get("writer")
    _fit(type(number) is int and type(writer) is int)
    tail = _ENCODER.encode(wire["payload"]).encode() if "payload" in wire else b""
    return True, number, writer, tail


def _unpack_version(present: bool, number: int, writer: int, tail: bytes) -> Any:
    if not present:
        _no_tail(tail)
        return None
    wire: Dict[str, Any] = {"number": number, "writer": writer}
    if tail:
        wire["payload"] = json.loads(tail)
    return wire


def _pack_exec(frame: Mapping[str, Any]) -> bytes:
    rid, op, version = frame.get("rid"), frame.get("op"), frame.get("version")
    _fit(type(rid) is int and len(frame) == 3 + (version is not None))
    if op == "read" and version is None:
        return _READ.pack(_READ_TAG, rid)
    present, number, writer, tail = _pack_version(version)
    _fit(op == "write" and present)
    return _WRITE.pack(_WRITE_TAG, rid, number, writer) + tail


def _unpack_read(body: bytes) -> Dict[str, Any]:
    (_, rid), tail = _split(_READ, body)
    _no_tail(tail)
    return {"type": "exec", "rid": rid, "op": "read"}


def _unpack_write(body: bytes) -> Dict[str, Any]:
    (_, rid, number, writer), tail = _split(_WRITE, body)
    version = _unpack_version(True, number, writer, tail)
    return {"type": "exec", "rid": rid, "op": "write", "version": version}


def _pack_result(frame: Mapping[str, Any]) -> bytes:
    rid, ok, error = frame.get("rid"), frame.get("ok"), frame.get("error")
    _fit(type(rid) is int)
    if ok is True:
        _fit(len(frame) == 4 and "version" in frame)
        *fixed, tail = _pack_version(frame["version"])
        return _OK.pack(_OK_TAG, rid, *fixed) + tail
    degraded = "degraded" in frame
    _fit(ok is False and type(error) is str and len(frame) == 4 + degraded)
    _fit(frame.get("degraded", True) is True)
    return _FAILED.pack(_FAILED_TAG, rid, degraded) + error.encode()


def _unpack_ok(body: bytes) -> Dict[str, Any]:
    (_, rid, *fixed), tail = _split(_OK, body)
    version = _unpack_version(*fixed, tail)
    return {"type": "result", "rid": rid, "ok": True, "version": version}


def _unpack_failed(body: bytes) -> Dict[str, Any]:
    (_, rid, degraded), tail = _split(_FAILED, body)
    frame = {"type": "result", "rid": rid, "ok": False, "error": tail.decode()}
    if degraded:
        frame["degraded"] = True
    return frame


def _pack_done(frame: Mapping[str, Any]) -> bytes:
    rid, source, dropped = frame.get("rid"), frame.get("from"), frame.get("dropped")
    failed = "failed" in frame
    _fit(type(rid) is int and type(source) is int and type(dropped) is bool)
    _fit(frame.get("failed", True) is True and len(frame) == 4 + failed)
    return _DONE.pack(_DONE_TAG, rid, source, dropped, failed)


def _unpack_done(body: bytes) -> Dict[str, Any]:
    (_, rid, source, dropped, failed), tail = _split(_DONE, body)
    _no_tail(tail)
    frame = {"type": "done", "rid": rid, "from": source, "dropped": dropped}
    if failed:
        frame["failed"] = True
    return frame


def _message_codec(tag: int, cls: type) -> Tuple[Callable, Callable]:
    """The packer and unpacker of one message class: its tag, then its
    dataclass fields in order, each by :data:`_FIELD_CODES`."""
    hints = get_type_hints(cls)
    names = [f.name for f in fields(cls)]
    layout = struct.Struct(">B" + "".join(_FIELD_CODES[hints[n]] for n in names))
    values_of = attrgetter(*names)
    versions = [hints[name] == Optional[ObjectVersion] for name in names]
    at = versions.index(True) if any(versions) else None

    def pack(message: Message) -> bytes:
        values = values_of(message)
        if at is None:
            return layout.pack(tag, *values)
        *fixed, tail = _pack_version(version_to_wire(values[at]))
        return layout.pack(tag, *values[:at], *fixed, *values[at + 1 :]) + tail

    def unpack(body: bytes) -> Dict[str, Any]:
        values, tail = _split(layout, body)
        args = list(values[1:])
        if at is None:
            _no_tail(tail)
        else:
            wire = _unpack_version(*args[at : at + 3], tail)
            args[at : at + 3] = [version_from_wire(wire)]
        message = cls(*args)
        return {"type": "msg", "rid": message.request_id, "message": message}

    return pack, unpack


def _pack_msg(frame: Mapping[str, Any]) -> bytes:
    message = frame.get("message")
    pack = _MESSAGE_PACKERS.get(type(message))
    _fit(pack is not None and len(frame) == 3)
    _fit(frame.get("rid") == message.request_id)
    try:
        return pack(message)
    except struct.error as error:
        raise ClusterError(f"no wire encoding for {message.describe()}: {error}")


_PACKERS = {
    "exec": _pack_exec,
    "result": _pack_result,
    "done": _pack_done,
    "msg": _pack_msg,
}
_UNPACKERS = {
    _READ_TAG: _unpack_read,
    _WRITE_TAG: _unpack_write,
    _OK_TAG: _unpack_ok,
    _FAILED_TAG: _unpack_failed,
    _DONE_TAG: _unpack_done,
}
_MESSAGE_PACKERS = {}
for _tag, _cls in enumerate(MESSAGE_TYPES, start=_DONE_TAG + 1):
    _MESSAGE_PACKERS[_cls], _UNPACKERS[_tag] = _message_codec(_tag, _cls)
