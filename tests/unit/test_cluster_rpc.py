"""Unit: the live cluster's wire format (framing + binary layouts)."""

from __future__ import annotations

import asyncio
import json
import struct
from dataclasses import fields
from typing import Optional, get_type_hints

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cluster.durability import version_from_wire, version_to_wire
from repro.cluster.metrics import NodeMetrics
from repro.cluster.rpc import (
    MAX_FRAME_BYTES,
    MESSAGE_TYPES,
    FrameConnection,
    encode_frame,
)
from repro.cluster.transport import Address, PeerTransport
from repro.distsim import messages
from repro.distsim.messages import (
    DataTransfer,
    Invalidate,
    Message,
    ReadRequest,
    VersionInquiry,
    VersionReport,
)
from repro.exceptions import ClusterError
from repro.storage.versions import ObjectVersion
from tests.integration.raw_frames import json_frame


class FakeTransport:
    """The slice of ``asyncio.Transport`` a FrameConnection uses."""

    def __init__(self) -> None:
        self.written = bytearray()
        self.closing = False

    def write(self, data) -> None:
        self.written.extend(data)

    def is_closing(self) -> bool:
        return self.closing

    def close(self) -> None:
        self.closing = True


def served_connection(sink=None):
    """A connected FrameConnection and the list of frames it served."""
    served = []

    def on_frame(connection, frame):
        served.append(frame)
        if sink is not None:
            sink(frame)

    connection = FrameConnection(on_frame)
    connection.connection_made(FakeTransport())
    return connection, served


def read_all_frames(data: bytes) -> list:
    """Feed bytes to a FrameConnection: the frames it served, or the
    framing error that closed it, raised."""
    served, errors = [], []
    connection = FrameConnection(
        lambda conn, frame: served.append(frame),
        lambda conn, error: errors.append(error),
    )
    connection.connection_made(FakeTransport())
    connection.data_received(data)
    if connection.closed:
        connection.connection_lost(None)
        raise errors[0]
    return served


def read_one_frame(data: bytes):
    frames = read_all_frames(data)
    return frames[0] if frames else None


class TestFraming:
    def test_round_trip(self):
        payload = {"type": "ping", "nested": {"a": [1, 2, 3]}}
        assert read_one_frame(encode_frame(payload)) == payload

    def test_multiple_frames_in_one_stream(self):
        frames = [{"type": "ping", "n": n} for n in range(3)]
        data = b"".join(encode_frame(frame) for frame in frames)
        assert read_all_frames(data) == frames

    def test_oversize_frame_rejected(self):
        with pytest.raises(ClusterError, match="exceeds"):
            read_one_frame(struct.pack(">I", MAX_FRAME_BYTES + 1))

    def test_malformed_json_rejected(self):
        body = b"{not json"
        with pytest.raises(ClusterError, match="malformed"):
            read_one_frame(struct.pack(">I", len(body)) + body)

    def test_non_object_payload_rejected(self):
        body = b"[1,2,3]"
        with pytest.raises(ClusterError, match="'type'"):
            read_one_frame(struct.pack(">I", len(body)) + body)

    def test_write_frame_to_stream(self):
        connection, _ = served_connection()
        connection.send({"type": "ping"})
        written = bytes(connection.transport.written)
        assert read_one_frame(written) == {"type": "ping"}


FRAMES = [{"type": "ping", "n": n, "pad": "x" * n} for n in range(4)]
STREAM = b"".join(encode_frame(frame) for frame in FRAMES)

#: A binary ``exec`` read: tag 1, then its rid as an int64.
READ_BODY = struct.pack(">Bq", 1, 4)


def framed(body: bytes) -> bytes:
    return struct.pack(">I", len(body)) + body


class TestFrameConnection:
    def test_one_byte_at_a_time(self):
        connection, served = served_connection()
        for index in range(len(STREAM)):
            connection.data_received(STREAM[index : index + 1])
        assert served == FRAMES
        assert not connection.closed

    def test_several_frames_in_one_chunk(self):
        connection, served = served_connection()
        connection.data_received(STREAM)
        assert served == FRAMES

    def test_header_split_across_chunks(self):
        connection, served = served_connection()
        data = encode_frame(FRAMES[2])
        connection.data_received(data[:2])
        assert served == []
        connection.data_received(data[2:])
        assert served == [FRAMES[2]]

    @pytest.mark.parametrize(
        "data",
        [
            struct.pack(">I", MAX_FRAME_BYTES + 1),
            struct.pack(">I", 9) + b"{not json",
            struct.pack(">I", 7) + b"[1,2,3]",
            struct.pack(">I", 7) + b'{"a":1}',
            framed(READ_BODY[:-1]),
            framed(b"\xee" + READ_BODY[1:]),
            framed(READ_BODY + b"\x00"),
            framed(b'{"m":["read_request",4,1],"rid":9,"type":"msg"}'),
            json_frame({"type": "exec", "rid": 4, "op": "read"}),
            json_frame({"type": "result", "rid": 4, "ok": False, "error": "x",
                         "degraded": False}),
            json_frame({"type": "done", "rid": 4, "from": 2, "dropped": False,
                         "failed": False}),
            json_frame({"type": "repair", "rid": 4, "from": 2,
                         "version": {"number": 1, "writer": 2}}),
        ],
        ids=[
            "oversize",
            "malformed",
            "non-object",
            "typeless",
            "truncated-layout",
            "unknown-tag",
            "trailing-bytes",
            "json-msg",
            "json-exec",
            "json-result",
            "json-done",
            "json-repair",
        ],
    )
    def test_bad_frame_closes_without_serving(self, data):
        closed = []
        connection = FrameConnection(
            lambda conn, frame: pytest.fail(f"served {frame}"),
            lambda conn, error: closed.append(error),
        )
        connection.connection_made(FakeTransport())
        connection.data_received(data + encode_frame({"type": "ping"}))
        assert connection.closed
        connection.connection_lost(None)
        assert len(closed) == 1 and isinstance(closed[0], ClusterError)

    def test_binary_frame_split_at_every_offset_is_served_once(self):
        message = DataTransfer(1, 4, ObjectVersion(2, 1, {"k": [1]}), 7, True)
        frame = {"type": "msg", "rid": 7, "message": message}
        data = encode_frame(frame)
        for cut in range(len(data) + 1):
            connection, served = served_connection()
            connection.data_received(data[:cut])
            connection.data_received(data[cut:])
            assert served == [frame]
            assert not connection.closed

    def test_frame_after_a_raising_handler_is_served(self):
        def sink(frame):
            if frame["n"] == 0:
                raise ClusterError("addressed to someone else")

        async def go():
            reported = []
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: reported.append(context["exception"])
            )
            connection, served = served_connection(sink)
            connection.data_received(STREAM[: len(encode_frame(FRAMES[0])) + 1])
            connection.data_received(STREAM[len(encode_frame(FRAMES[0])) + 1 :])
            return reported, served, connection

        reported, served, connection = asyncio.run(go())
        assert served == FRAMES
        assert [str(error) for error in reported] == ["addressed to someone else"]
        assert not connection.closed

    def test_send_writes_one_frame(self):
        connection, _ = served_connection()
        connection.send({"type": "ping"})
        assert bytes(connection.transport.written) == encode_frame({"type": "ping"})

    def test_send_on_a_closed_connection_raises(self):
        connection, _ = served_connection()
        connection.close()
        with pytest.raises(ConnectionError):
            connection.send({"type": "ping"})
        with pytest.raises(ConnectionError):
            FrameConnection(lambda conn, frame: None).send({"type": "ping"})

    def test_a_write_that_breaks_the_connection_raises(self):
        class BrokenPipe(FakeTransport):
            def write(self, data) -> None:
                self.closing = True  # what a failed socket send does

        connection = FrameConnection(lambda conn, frame: None)
        connection.connection_made(BrokenPipe())
        with pytest.raises(ConnectionError, match="broke on write"):
            connection.send({"type": "ping"})


class TestVersionCodec:
    def test_round_trip(self):
        version = ObjectVersion(7, 3, payload="blob")
        assert version_from_wire(version_to_wire(version)) == version

    def test_payload_free_round_trip(self):
        version = ObjectVersion(0, 1)
        wire = version_to_wire(version)
        assert "payload" not in wire
        assert version_from_wire(wire) == version

    def test_none_passes_through(self):
        assert version_to_wire(None) is None
        assert version_from_wire(None) is None


MESSAGES = [
    ReadRequest(4, 1, request_id=9),
    Invalidate(2, 5, version_number=3, request_id=11),
    VersionInquiry(3, 1, request_id=6),
    VersionReport(1, 3, request_id=6, version_number=8, holds_copy=True),
    DataTransfer(
        1, 4, version=ObjectVersion(2, 1), request_id=7, save_copy=True
    ),
    DataTransfer(
        1, 4, version=ObjectVersion(2, 1), request_id=7, save_copy=False
    ),
]

#: Every protocol message class: one without a wire form fails below.
MESSAGE_CLASSES = [
    cls
    for cls in vars(messages).values()
    if isinstance(cls, type) and issubclass(cls, Message) and cls is not Message
]

INT64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)

#: What JSON carries unchanged: no tuples, NaN or infinities.
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=8,
)

VERSIONS = st.builds(
    ObjectVersion,
    st.integers(min_value=0, max_value=2**63 - 1),
    INT64,
    st.none() | JSON_VALUES,
)

#: A strategy per field type of the message classes.
FIELD_VALUES = {
    int: INT64,
    bool: st.booleans(),
    Optional[ObjectVersion]: st.none() | VERSIONS,
}


def messages_of(cls):
    hints = get_type_hints(cls)
    return st.builds(
        cls, **{f.name: FIELD_VALUES[hints[f.name]] for f in fields(cls)}
    )


def msg_frame(message):
    return {"type": "msg", "rid": message.request_id, "message": message}


#: ``msg`` frames as JSON positional lists, well-formed or not.
LIST_FORMS = [
    {"type": "msg", "rid": 1, "m": ["gossip", 1, 2]},
    {"type": "msg", "rid": 1},
    {"type": "msg", "rid": 1, "m": []},
    {"type": "msg", "rid": 1, "m": [["read_request"], 1, 2]},
    {"type": "msg", "rid": 1, "m": ["read_request", 1]},
    {"type": "msg", "rid": 1, "m": ["read_request", 1, 2, 3]},
    {"type": "msg", "rid": 1, "m": ["read_request", "1", 2]},
    {"type": "msg", "rid": "1", "m": ["read_request", 1, 2]},
    {"type": "msg", "m": ["read_request", 1, 2]},
    {"type": "msg", "rid": 1, "m": ["invalidate", 1, 2, 3.5]},
    {"type": "msg", "rid": 1, "m": ["version_report", 1, 2, 3, 1]},
    {"type": "msg", "rid": 1, "m": ["data_transfer", 1, 2, [3, 1], True]},
    {"type": "msg", "rid": 1,
     "m": ["data_transfer", 1, 2, {"writer": 1}, True]},
    {"type": "msg", "rid": 1,
     "m": ["data_transfer", 1, 2, {"number": "x", "writer": 1}, True]},
]


class TestMessageCodec:
    @pytest.mark.parametrize(
        "message", MESSAGES, ids=lambda m: type(m).__name__
    )
    def test_round_trip(self, message):
        data = encode_frame(msg_frame(message))
        assert data[4:5] != b"{"
        assert read_one_frame(data) == msg_frame(message)

    @pytest.mark.parametrize("cls", MESSAGE_CLASSES, ids=lambda c: c.__name__)
    @given(data=st.data())
    def test_round_trip_property(self, cls, data):
        message = data.draw(messages_of(cls))
        frame = read_one_frame(encode_frame(msg_frame(message)))
        assert frame == msg_frame(message)
        assert frame["rid"] == message.request_id

    def test_positional_layout(self):
        """Tag, then every dataclass field in order: the version as a
        presence flag, number and writer."""
        message = DataTransfer(
            1, 2, version=ObjectVersion(3, 1), request_id=7, save_copy=True
        )
        body = struct.pack(">Bqq?qqq?", 10, 1, 2, True, 3, 1, 7, True)
        assert encode_frame(msg_frame(message)) == framed(body)

    def test_wire_form_is_json_clean(self):
        """The only JSON in a ``msg`` body is a version's payload, the
        tail after the fixed fields; a version without one has none."""
        payload = {"b": [1, "é"], "a": None}
        message = DataTransfer(1, 2, ObjectVersion(3, 1, payload), 7, True)
        tail = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        data = encode_frame(msg_frame(message))
        assert data.endswith(struct.pack(">q?", 7, True) + tail.encode())
        for message in MESSAGES:
            assert b"{" not in encode_frame(msg_frame(message))

    @pytest.mark.parametrize(
        "wire",
        LIST_FORMS,
        ids=[
            "unknown-tag",
            "no-body",
            "empty",
            "unhashable-tag",
            "short",
            "long",
            "string-sender",
            "string-rid",
            "no-rid",
            "float-version-number",
            "int-holds-copy",
            "non-mapping-version",
            "version-without-number",
            "string-version-number",
        ],
    )
    def test_malformed_message_rejected(self, wire):
        """A ``msg`` has no JSON form: a list-codec body, well-formed or
        not, closes the connection."""
        with pytest.raises(ClusterError, match="no JSON form"):
            read_one_frame(json_frame(wire))

    @pytest.mark.parametrize(
        "body",
        [
            b"",
            b"\x00",
            b"\xee" + READ_BODY[1:],
            struct.pack(">Bqq", 6, 4, 1),
            struct.pack(">Bqqq", 6, 4, 1, 9) + b"\x00",
            struct.pack(">Bqq?qqq?", 10, 1, 2, False, 0, 0, 7, True) + b"1",
            struct.pack(">Bqq?qqq?", 10, 1, 2, True, 3, 1, 7, True) + b"{",
            struct.pack(">Bqq?qqq?", 10, 1, 2, True, -1, 1, 7, True),
            struct.pack(">Bqqq", 2, 4, 2, 1) + b"\xff",
            struct.pack(">Bq?", 4, 5, True) + b"\xff",
            struct.pack(">Bqq??", 5, 3, 2, False, False) + b"\x00",
            struct.pack(">Bqqqq", 11, 1, 2, -1, 2),
            struct.pack(">Bqqq", 11, 1, 2, 3),
        ],
        ids=[
            "empty",
            "tag-zero",
            "unknown-tag",
            "truncated",
            "trailing",
            "tail-without-version",
            "bad-payload-json",
            "negative-version-number",
            "bad-payload-utf8",
            "bad-error-utf8",
            "done-trailing",
            "repair-negative-version-number",
            "repair-truncated",
        ],
    )
    def test_malformed_binary_rejected(self, body):
        with pytest.raises(ClusterError):
            read_one_frame(framed(body))

    def test_every_message_class_has_a_layout(self):
        assert set(MESSAGE_CLASSES) <= set(MESSAGE_TYPES)
        tags = {
            encode_frame(msg_frame(cls(1, 2)))[4] for cls in MESSAGE_TYPES
        }
        assert len(tags) == len(MESSAGE_TYPES) and ord("{") not in tags

    def test_unregistered_type_rejected(self):
        class Exotic(ReadRequest):
            pass

        with pytest.raises(ClusterError, match="no wire encoding"):
            encode_frame(msg_frame(Exotic(1, 2)))

    @pytest.mark.parametrize(
        "message",
        [
            ReadRequest(1, 2, request_id=2**63),
            Invalidate(1, 2, version_number=-(2**63) - 1),
            DataTransfer(1, 2, ObjectVersion(2**64, 1)),
        ],
        ids=["rid", "version-number", "object-version"],
    )
    def test_out_of_range_field_raises_before_charge(self, message):
        metrics = NodeMetrics(1)
        transport = PeerTransport(1, metrics, lambda receiver, rid: None)
        with pytest.raises(ClusterError, match="no wire encoding"):
            transport.send_protocol(message)
        assert metrics.to_wire() == NodeMetrics(1).to_wire()


#: Client-plane, ``done`` and ``repair`` frames as their producers
#: build them, and the body each packs to.
HOT_FRAMES = [
    (
        {"type": "exec", "rid": 3, "op": "write",
         "version": ObjectVersion(2, 1, payload="é")},
        struct.pack(">Bqqq", 2, 3, 2, 1) + b'"\\u00e9"',
    ),
    (
        {"type": "exec", "rid": 4, "op": "read", "version": None},
        struct.pack(">Bq", 1, 4),
    ),
    (
        {"type": "result", "rid": 3, "ok": True, "version": ObjectVersion(2, 1)},
        struct.pack(">Bq?qq", 3, 3, True, 2, 1),
    ),
    (
        {"type": "result", "rid": 3, "ok": True, "version": None},
        struct.pack(">Bq?qq", 3, 3, False, 0, 0),
    ),
    (
        {"type": "result", "rid": 5, "ok": False, "error": "boom",
         "degraded": True},
        struct.pack(">Bq?", 4, 5, True) + b"boom",
    ),
    (
        {"type": "result", "rid": 5, "ok": False, "error": "né",
         "degraded": False},
        struct.pack(">Bq?", 4, 5, False) + "né".encode(),
    ),
    (
        {"type": "done", "rid": 3, "from": 2, "dropped": False, "failed": False},
        struct.pack(">Bqq??", 5, 3, 2, False, False),
    ),
    (
        {"type": "done", "rid": 3, "from": 2, "dropped": True, "failed": True},
        struct.pack(">Bqq??", 5, 3, 2, True, True),
    ),
    (
        {"type": "repair", "rid": 1_000_000_001, "from": 1,
         "version": ObjectVersion(7, 2, payload=[1])},
        struct.pack(">Bqqqq", 11, 1_000_000_001, 1, 7, 2) + b"[1]",
    ),
]

#: Frames of every binary layout, each field across its int64 range.
LAID_OUT = st.one_of(
    st.fixed_dictionaries({"type": st.just("exec"), "rid": INT64,
                           "op": st.just("read"), "version": st.none()}),
    st.fixed_dictionaries({"type": st.just("exec"), "rid": INT64,
                           "op": st.just("write"), "version": VERSIONS}),
    st.fixed_dictionaries({"type": st.just("result"), "rid": INT64,
                           "ok": st.just(True),
                           "version": st.none() | VERSIONS}),
    st.fixed_dictionaries({"type": st.just("result"), "rid": INT64,
                           "ok": st.just(False), "error": st.text(),
                           "degraded": st.booleans()}),
    st.fixed_dictionaries({"type": st.just("done"), "rid": INT64,
                           "from": INT64, "dropped": st.booleans(),
                           "failed": st.booleans()}),
    st.fixed_dictionaries({"type": st.just("repair"), "rid": INT64,
                           "from": INT64, "version": VERSIONS}),
    *(messages_of(cls).map(msg_frame) for cls in MESSAGE_TYPES),
)

#: Values a hand-written frame may carry, in and out of the layouts' range.
ODD_VALUES = (
    st.integers()
    | st.booleans()
    | st.sampled_from(["read", "write"])
    | st.none()
    | st.text(max_size=3)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.dictionaries(st.sampled_from(["number", "writer"]), st.integers())
    | VERSIONS
)


class TestBinaryLayouts:
    @pytest.mark.parametrize(
        "frame, body",
        HOT_FRAMES,
        ids=["write", "read", "ok", "ok-none", "degraded", "failed", "done",
             "done-failed", "repair"],
    )
    def test_hot_frames_pack_to_their_layouts(self, frame, body):
        assert encode_frame(frame) == framed(body)
        assert read_one_frame(framed(body)) == frame

    @given(frame=LAID_OUT)
    def test_round_trip_property(self, frame):
        data = encode_frame(frame)
        assert data[4:5] != b"{"
        assert read_one_frame(data) == frame

    @given(
        kind=st.sampled_from(["exec", "result", "done", "repair"]),
        extra=st.dictionaries(
            st.sampled_from(["rid", "op", "ok", "from", "dropped", "failed",
                             "degraded", "error", "version", "x"]),
            ODD_VALUES,
        ),
    )
    def test_a_frame_of_a_laid_out_type_is_never_json(self, kind, extra):
        """A hand-written frame packs to its type's layout, or raises
        ``ClusterError`` when no layout carries it: nothing falls back to
        JSON, and what is sent decodes as a frame of its type."""
        frame = {**extra, "type": kind}
        try:
            data = encode_frame(frame)
        except ClusterError:
            return
        assert data[4:5] != b"{"
        decoded = read_one_frame(data)
        assert decoded["type"] == kind and type(decoded["rid"]) is int

    def test_every_layout_has_its_own_tag(self):
        tags = [encode_frame(frame)[4] for frame, _ in HOT_FRAMES]
        tags += [encode_frame(msg_frame(cls(1, 2)))[4] for cls in MESSAGE_TYPES]
        assert sorted(set(tags)) == list(range(1, 12))

    @pytest.mark.parametrize(
        "frame",
        [
            {"type": "exec", "rid": 4, "op": "delete", "version": None},
            {"type": "exec", "rid": 4, "op": "read",
             "version": ObjectVersion(1, 1)},
            {"type": "exec", "rid": 4, "op": "write", "version": None},
            {"type": "exec", "rid": "4", "op": "read", "version": None},
            {"type": "result", "rid": 2**63, "ok": True, "version": None},
            {"type": "result", "rid": 5, "ok": False, "error": "boom"},
            {"type": "done", "rid": 3, "from": 2, "dropped": False},
            {"type": "repair", "rid": 1, "from": 2,
             "version": {"number": 1, "writer": 2}},
            {"type": "msg", "rid": 9, "m": ["read_request", 4, 1]},
        ],
        ids=["unknown-op", "read-with-version", "write-without-version",
             "string-rid", "rid-beyond-int64", "failed-without-degraded",
             "done-without-failed", "wire-dict-version", "list-form-msg"],
    )
    def test_a_frame_its_layout_cannot_carry_raises(self, frame):
        with pytest.raises(ClusterError, match="no (wire encoding|layout)"):
            encode_frame(frame)


class TestEncoder:
    """The shared encoder writes exactly what ``json.dumps`` would, for
    every admin-plane frame."""

    @pytest.mark.parametrize(
        "payload",
        [
            {"type": "metrics_report", "metrics": NodeMetrics(4).to_wire()},
            {"type": "set_peers", "peers": {"2": "unix:/tmp/n2"}, "id": 3},
            {"type": "status", "node": 1, "version": {"number": 2,
                                                     "writer": 1}},
        ],
        ids=lambda payload: payload["type"],
    )
    def test_bytes_match_json_dumps(self, payload):
        body = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        data = body.encode("utf-8")
        assert encode_frame(payload) == struct.pack(">I", len(data)) + data

    def test_bytes_are_key_order_independent(self):
        left = encode_frame({"b": 1, "a": 2, "type": "x"})
        right = encode_frame({"a": 2, "type": "x", "b": 1})
        assert left == right  # sorted keys: byte-stable on the wire


class TestAddress:
    def test_tcp_render_parse(self):
        address = Address("tcp", host="127.0.0.1", port=4001)
        assert address.render() == "tcp:127.0.0.1:4001"
        assert Address.parse(address.render()) == address

    def test_unix_render_parse(self):
        address = Address("unix", path="/tmp/node-1.sock")
        assert address.render() == "unix:/tmp/node-1.sock"
        assert Address.parse(address.render()) == address

    @pytest.mark.parametrize(
        "text", ["", "tcp:", "tcp:host:", "tcp:host:notaport", "unix:", "smoke:1"]
    )
    def test_garbage_rejected(self, text):
        with pytest.raises(ClusterError):
            Address.parse(text)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ClusterError):
            Address("carrier-pigeon")

    def test_unix_requires_path(self):
        with pytest.raises(ClusterError):
            Address("unix")
