"""A bare frame connection to a node, for tests that send raw frames."""

from __future__ import annotations

import asyncio
import json
import struct
from typing import Any, Dict, Mapping

from repro.cluster.rpc import FrameConnection
from repro.cluster.transport import Address, connect


def framed(body: bytes) -> bytes:
    """A hand-written body behind its length prefix."""
    return struct.pack(">I", len(body)) + body


def json_frame(frame: Mapping[str, Any]) -> bytes:
    """A hand-written JSON frame: what no encoder emits for a type that
    has a binary layout."""
    return framed(json.dumps(frame, sort_keys=True).encode())


class RawConnection:
    """One :class:`FrameConnection` to a node whose replies queue up in
    arrival order, so a test can send any frame and read what comes back."""

    def __init__(self) -> None:
        self.replies: asyncio.Queue = asyncio.Queue()
        self._closed = asyncio.Event()
        self.connection = FrameConnection(
            lambda connection, frame: self.replies.put_nowait(frame),
            lambda connection, error: self._closed.set(),
        )

    @classmethod
    async def open(cls, address: Address) -> "RawConnection":
        raw = cls()
        await connect(address, raw.connection)
        return raw

    def send(self, frame: Mapping[str, Any]) -> None:
        self.connection.send(frame)

    def write(self, data: bytes) -> None:
        """Send bytes as they are: a hand-written, maybe malformed, frame."""
        self.connection.write(data)

    async def closed_by_peer(self, timeout: float = 5.0) -> None:
        """Wait until the node closed this connection."""
        await asyncio.wait_for(self._closed.wait(), timeout)

    async def reply(self, timeout: float = 5.0) -> Dict[str, Any]:
        return await asyncio.wait_for(self.replies.get(), timeout)

    def close(self) -> None:
        self.connection.close()
