"""Wire format of the live cluster: length-prefixed JSON frames.

Every frame on a cluster connection — client requests, peer protocol
messages, completion notifications, admin commands — is one JSON object
encoded as UTF-8 and prefixed with a 4-byte big-endian length.  The
framing is deliberately tiny: it can be reimplemented in a dozen lines
of any language, and a captured byte stream is human-decodable with
``struct`` + ``json`` alone.

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

The ``msg`` codec is derived from the fields of the
:class:`~repro.distsim.messages.Message` classes in
:data:`MESSAGE_TYPES`, so the live transport ships the *same* protocol
vocabulary the discrete-event simulator uses: ``{"type": "msg", "rid":
R, "m": [tag, sender, receiver, ...]}``, the remaining fields following
in dataclass order.

Every connection — node, peer link, client and admin — is a
:class:`FrameConnection` protocol that serves each frame the moment its
bytes arrive.  A node serves every frame within that callback; a frame
that waits on peers leaves a continuation behind (see
:mod:`repro.cluster.node`).
"""

from __future__ import annotations

import asyncio
import json
import re
import struct
from dataclasses import fields
from typing import Any, Callable, Dict, List, Mapping, Optional
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
    """Serialize one frame: 4-byte length prefix + UTF-8 JSON."""
    data = _ENCODER.encode(payload).encode("utf-8")
    if len(data) > MAX_FRAME_BYTES:
        raise ClusterError(
            f"frame of {len(data)} bytes exceeds the {MAX_FRAME_BYTES}-byte limit"
        )
    return _HEADER.pack(len(data)) + data


def _decode_body(body: bytes) -> Dict[str, Any]:
    """Parse one frame body; a malformed or non-object body raises."""
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ClusterError(f"malformed frame body: {error}") from error
    if not isinstance(payload, dict) or "type" not in payload:
        raise ClusterError("every frame must be a JSON object with a 'type'")
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


# -- protocol-message codec -------------------------------------------------

#: Every protocol message the cluster ships.  The codec is derived from
#: their dataclass fields; a message class missing here has no wire form.
MESSAGE_TYPES = (
    ReadRequest,
    Invalidate,
    VersionInquiry,
    VersionReport,
    DataTransfer,
)


def _layout(cls: type) -> tuple:
    """A class's wire tag (its name in snake case), the names and types
    of its fields in dataclass order (an optional version's type is
    ``ObjectVersion``), and where ``request_id`` sits among them: it
    travels as the frame's ``rid``."""
    hints = get_type_hints(cls)
    names = tuple(f.name for f in fields(cls))
    types = tuple(
        ObjectVersion if hints[name] == Optional[ObjectVersion] else hints[name]
        for name in names
    )
    tag = re.sub(r"(?<=[a-z])(?=[A-Z])", "_", cls.__name__).lower()
    return tag, names, types, names.index("request_id")


_LAYOUTS = {cls: _layout(cls) for cls in MESSAGE_TYPES}
_BY_TAG = {layout[0]: (cls, *layout[1:]) for cls, layout in _LAYOUTS.items()}


def message_to_wire(message: Message) -> Dict[str, Any]:
    """Encode a protocol message as a ``msg`` frame payload:
    ``{"type": "msg", "rid": R, "m": [tag, sender, receiver, ...]}``."""
    layout = _LAYOUTS.get(type(message))
    if layout is None:
        raise ClusterError(
            f"no wire encoding for message type {type(message).__name__}"
        )
    tag, names, types, rid_at = layout
    body: List[Any] = [tag]
    for name, kind in zip(names, types):
        value = getattr(message, name)
        body.append(version_to_wire(value) if kind is ObjectVersion else value)
    rid = body.pop(rid_at + 1)
    return {"type": "msg", "rid": rid, "m": body}


def wire_to_message(wire: Mapping[str, Any]) -> Message:
    """Decode a ``msg`` frame payload back into a protocol message.  An
    unknown tag, a wrong field count, a field of the wrong type or a
    bad version raises :class:`ClusterError`."""
    body = wire.get("m")
    try:
        cls, names, types, rid_at = _BY_TAG[body[0]]
    except (KeyError, TypeError, IndexError):
        raise ClusterError(f"unknown protocol message {body!r}") from None
    args = body[1:]
    if len(args) != len(names) - 1:
        raise ClusterError(
            f"a {body[0]} message has {len(names) - 1} fields, got {len(args)}"
        )
    args.insert(rid_at, wire.get("rid"))
    try:
        for index, kind in enumerate(types):
            value = args[index]
            if type(value) is not kind:
                if kind is not ObjectVersion:
                    raise TypeError(f"{names[index]} {value!r} is not {kind.__name__}")
                args[index] = version_from_wire(value)
    except (KeyError, TypeError, ValueError, ConfigurationError) as error:
        raise ClusterError(f"malformed {body[0]} message: {error}") from error
    return cls(*args)
