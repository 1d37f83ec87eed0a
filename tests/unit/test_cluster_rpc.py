"""Unit: the live cluster's wire format (framing + message codec)."""

from __future__ import annotations

import asyncio
import json
import struct
from dataclasses import fields
from typing import Optional, get_type_hints

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cluster.metrics import NodeMetrics
from repro.cluster.rpc import (
    MAX_FRAME_BYTES,
    FrameConnection,
    encode_frame,
    message_to_wire,
    version_from_wire,
    version_to_wire,
    wire_to_message,
)
from repro.cluster.transport import Address
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
        ],
        ids=["oversize", "malformed", "non-object", "typeless"],
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

#: A strategy per field type of the message classes.
FIELD_VALUES = {
    int: st.integers(),
    bool: st.booleans(),
    Optional[ObjectVersion]: st.none()
    | st.builds(
        ObjectVersion,
        st.integers(min_value=0),
        st.integers(),
        st.none() | JSON_VALUES,
    ),
}


def messages_of(cls):
    hints = get_type_hints(cls)
    return st.builds(
        cls, **{f.name: FIELD_VALUES[hints[f.name]] for f in fields(cls)}
    )


def through_bytes(wire):
    """A payload as the receiving end decodes it."""
    return json.loads(encode_frame(wire)[4:])


class TestMessageCodec:
    @pytest.mark.parametrize(
        "message", MESSAGES, ids=lambda m: type(m).__name__
    )
    def test_round_trip(self, message):
        wire = message_to_wire(message)
        assert wire["type"] == "msg"
        assert wire_to_message(through_bytes(wire)) == message

    @pytest.mark.parametrize("cls", MESSAGE_CLASSES, ids=lambda c: c.__name__)
    @given(data=st.data())
    def test_round_trip_property(self, cls, data):
        message = data.draw(messages_of(cls))
        wire = message_to_wire(message)
        assert wire["type"] == "msg"
        assert wire["rid"] == message.request_id
        assert wire_to_message(through_bytes(wire)) == message

    def test_positional_layout(self):
        message = DataTransfer(
            1, 2, version=ObjectVersion(3, 1), request_id=7, save_copy=True
        )
        assert message_to_wire(message) == {
            "type": "msg",
            "rid": 7,
            "m": ["data_transfer", 1, 2, {"number": 3, "writer": 1}, True],
        }

    def test_wire_form_is_json_clean(self):
        for message in MESSAGES:
            json.dumps(message_to_wire(message))

    @pytest.mark.parametrize(
        "wire",
        [
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
        ],
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
        with pytest.raises(ClusterError):
            wire_to_message(wire)

    def test_unregistered_type_rejected(self):
        class Exotic(ReadRequest):
            pass

        with pytest.raises(ClusterError, match="no wire encoding"):
            message_to_wire(Exotic(1, 2))


class TestEncoder:
    """The shared encoder writes exactly what ``json.dumps`` would."""

    @pytest.mark.parametrize(
        "payload",
        [
            {"type": "exec", "rid": 3, "op": "write",
             "version": version_to_wire(ObjectVersion(2, 1, payload="é"))},
            {"type": "exec", "rid": 4, "op": "read"},
            {"type": "result", "rid": 3, "ok": True,
             "version": version_to_wire(ObjectVersion(2, 1))},
            {"type": "result", "rid": 5, "ok": False, "error": "boom",
             "degraded": True},
            *(message_to_wire(message) for message in MESSAGES),
            {"type": "done", "rid": 3, "from": 2, "dropped": False},
            {"type": "done", "rid": 3, "from": 2, "dropped": True,
             "failed": True},
            {"type": "repair", "rid": 1_000_000_001, "from": 1,
             "version": version_to_wire(ObjectVersion(7, 2))},
            {"type": "metrics_report", "metrics": NodeMetrics(4).to_wire()},
        ],
        ids=lambda payload: payload.get("m", [payload["type"]])[0],
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
