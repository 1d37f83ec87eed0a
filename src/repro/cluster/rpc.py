"""Wire format of the live cluster: one binary layout per frame type,
JSON for the admin plane only.

Every frame on a cluster connection — client requests, peer protocol
messages, completion notifications, admin commands — is a body
prefixed with a 4-byte big-endian length.  The body's first byte
selects its layout.  ``{`` opens a UTF-8 JSON object with sorted keys:
an admin frame.  Any other byte is a tag naming one fixed big-endian
:mod:`struct` layout, ``q`` for an int and ``?`` for a bool, built from
one table of fields: a read and a write ``exec``, an answered and a
failed ``result``, ``done``, ``repair``, and one per class in
:data:`MESSAGE_TYPES`, derived from its dataclass fields.  A version's
payload (as JSON), or a failure's error text, follows as a tail.

A decoded frame is a mapping with ``type`` and ``rid`` holding every
field of its layout, as objects: ``exec``, ``result`` and ``repair``
carry an :class:`~repro.storage.versions.ObjectVersion` (``None`` for a
read, or an answer without a copy), a ``msg`` its protocol message as
``message``; ``done`` always carries ``failed``, and a failed
``result`` ``degraded``.  A frame its layout cannot carry raises
``ClusterError`` at encode.  A JSON body whose ``type`` has a layout, a
truncated binary body, an unknown tag and trailing bytes are malformed.
A captured stream decodes with ``struct`` + ``json`` alone.

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
from operator import attrgetter, itemgetter
from typing import Any, Callable, Dict, Mapping, Optional
from typing import get_type_hints

from repro.distsim.messages import (
    DataTransfer,
    Invalidate,
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
    """Serialize one frame: 4-byte length prefix + body.  A frame of a
    type with a layout packs to it; any other is admin-plane JSON.  One
    that its layout, or JSON, cannot carry raises ``ClusterError``."""
    kind = payload.get("type")
    try:
        if kind == "msg":
            data = _BY_CLASS[type(payload["message"])].pack(payload)
        elif kind in _BY_TYPE:
            for layout in _BY_TYPE[kind]:
                if layout.selects(payload):
                    break
            else:
                raise ClusterError(f"no layout of a {kind!r} frame carries it")
            data = layout.pack(payload)
        else:
            data = _ENCODER.encode(payload).encode("utf-8")
    except (LookupError, AttributeError, TypeError, ValueError, struct.error) as error:
        raise ClusterError(
            f"no wire encoding for a {kind!r} frame: {error!r}"
        ) from error
    if len(data) > MAX_FRAME_BYTES:
        raise ClusterError(
            f"frame of {len(data)} bytes exceeds the {MAX_FRAME_BYTES}-byte limit"
        )
    return _HEADER.pack(len(data)) + data


def _decode_body(body: bytes) -> Dict[str, Any]:
    """Parse one frame body; a malformed one raises ``ClusterError``."""
    if body[:1] != b"{":
        layout = _BY_TAG.get(body[0]) if body else None
        if layout is None:
            raise ClusterError(
                "every frame must be a JSON object with a 'type' or a "
                f"binary body with a known tag, not {bytes(body[:1])!r}"
            )
        try:
            return layout.unpack(body)
        except (struct.error, ValueError, ConfigurationError) as error:
            raise ClusterError(f"malformed binary frame body: {error}") from error
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ClusterError(f"malformed frame body: {error}") from error
    if not isinstance(payload, dict) or "type" not in payload:
        raise ClusterError("every frame must be a JSON object with a 'type'")
    if payload["type"] in _LAID_OUT:
        raise ClusterError(f"a {payload['type']} frame has no JSON form")
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


# -- binary layouts --------------------------------------------------------

#: Every protocol message the cluster ships, tagged 6 on in this order.
#: A message class missing here has no wire form.
MESSAGE_TYPES = (
    ReadRequest,
    Invalidate,
    VersionInquiry,
    VersionReport,
    DataTransfer,
)

#: Every other frame type's layouts: tag, type, the constant fields that
#: select the layout (and that its decoded frames carry), and the fields
#: it packs after the tag, in order.
_FRAME_LAYOUTS = (
    (1, "exec", {"op": "read", "version": None}, {"rid": int}),
    (2, "exec", {"op": "write"}, {"rid": int, "version": ObjectVersion}),
    (3, "result", {"ok": True}, {"rid": int, "version": Optional[ObjectVersion]}),
    (4, "result", {"ok": False}, {"rid": int, "degraded": bool, "error": str}),
    (5, "done", {}, {"rid": int, "from": int, "dropped": bool, "failed": bool}),
    (11, "repair", {}, {"rid": int, "from": int, "version": ObjectVersion}),
)

#: A field's struct code by its type.  A version is its number and
#: writer, behind a presence flag when optional; a ``str`` is all tail.
_CODES = {
    int: "q",
    bool: "?",
    str: "",
    ObjectVersion: "qq",
    Optional[ObjectVersion]: "?qq",
}


def _no_tail(tail: bytes) -> None:
    if tail:
        raise ClusterError(f"{len(tail)} trailing bytes after a binary frame")


def _pack_version(version: ObjectVersion) -> tuple:
    payload = version.payload
    tail = b"" if payload is None else _ENCODER.encode(payload).encode()
    return version.number, version.writer, tail


def _unpack_version(number: int, writer: int, tail: bytes) -> ObjectVersion:
    return ObjectVersion(number, writer, json.loads(tail) if tail else None)


def _pack_optional(version: Optional[ObjectVersion]) -> tuple:
    return (False, 0, 0, b"") if version is None else (True, *_pack_version(version))


def _unpack_optional(present: bool, number: int, writer: int, tail: bytes) -> Any:
    if present:
        return _unpack_version(number, writer, tail)
    _no_tail(tail)
    return None


#: The field types with a tail: how each packs to its fixed codes plus
#: the tail, and how it unpacks from them.
_TAILS = {
    ObjectVersion: (_pack_version, _unpack_version),
    Optional[ObjectVersion]: (_pack_optional, _unpack_optional),
    str: (lambda text: (text.encode(),), lambda tail: tail.decode()),
}


class _Layout:
    """One frame layout: the tag, then each field by its :data:`_CODES`,
    then the tail of the one field (at most) with a tail.  A message
    layout (``cls`` set) reads its fields off the frame's ``message``
    and decodes to an instance of ``cls``."""

    def __init__(
        self,
        tag: int,
        kind: str,
        spec: Mapping[str, Any],
        constants: Mapping[str, Any],
        cls: Optional[type] = None,
    ) -> None:
        self.tag, self.kind, self.cls = tag, kind, cls
        self.constants = dict(constants)
        self._base = {"type": kind, **constants}
        names, types = tuple(spec), list(spec.values())
        codes = "".join(_CODES[t] for t in types)
        self._packer = struct.Struct(">B" + codes)
        self._unpacker = struct.Struct(">" + codes)
        self._names = names
        read = attrgetter(*names) if cls else itemgetter(*names)
        self._read = read if len(names) > 1 else lambda frame: (read(frame),)
        tailed = [index for index, t in enumerate(types) if t in _TAILS]
        self._at = tailed[0] if tailed else None
        if tailed:
            self._width = len(_CODES[types[self._at]])
            self._pack_tail, self._unpack_tail = _TAILS[types[self._at]]

    def selects(self, frame: Mapping[str, Any]) -> bool:
        for key, value in self.constants.items():
            if frame.get(key) != value:
                return False
        return True

    def pack(self, frame: Mapping[str, Any]) -> bytes:
        values = self._read(frame if self.cls is None else frame["message"])
        at = self._at
        if at is None:
            return self._packer.pack(self.tag, *values)
        *fixed, tail = self._pack_tail(values[at])
        rest = values[at + 1 :]
        return self._packer.pack(self.tag, *values[:at], *fixed, *rest) + tail

    def unpack(self, body: bytes) -> Dict[str, Any]:
        values = self._unpacker.unpack_from(body, 1)
        tail = body[self._packer.size :]
        at = self._at
        if at is None:
            _no_tail(tail)
        else:
            end = at + self._width
            value = self._unpack_tail(*values[at:end], tail)
            values = (*values[:at], value, *values[end:])
        if self.cls is not None:
            message = self.cls(*values)
            return {"type": "msg", "rid": message.request_id, "message": message}
        frame = self._base.copy()
        frame.update(zip(self._names, values))
        return frame


def _message_spec(cls: type) -> Dict[str, Any]:
    hints = get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls)}


_LAYOUTS = [_Layout(tag, kind, spec, const) for tag, kind, const, spec in _FRAME_LAYOUTS]
_LAYOUTS += [
    _Layout(tag, "msg", _message_spec(cls), {}, cls)
    for tag, cls in enumerate(MESSAGE_TYPES, start=6)
]
_BY_TAG = {layout.tag: layout for layout in _LAYOUTS}
_BY_CLASS = {layout.cls: layout for layout in _LAYOUTS if layout.cls}
_BY_TYPE: Dict[str, list] = {}
for _layout in _LAYOUTS:
    if _layout.cls is None:
        _BY_TYPE.setdefault(_layout.kind, []).append(_layout)
#: The frame types with a layout: none of them has a JSON form.
_LAID_OUT = ("msg", *_BY_TYPE)
