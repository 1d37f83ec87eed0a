"""A bare frame connection to a node, for tests that send raw frames."""

from __future__ import annotations

import asyncio
from typing import Any, Dict, Mapping

from repro.cluster.rpc import FrameConnection
from repro.cluster.transport import Address, connect


class RawConnection:
    """One :class:`FrameConnection` to a node whose replies queue up in
    arrival order, so a test can send any frame and read what comes back."""

    def __init__(self) -> None:
        self.replies: asyncio.Queue = asyncio.Queue()
        self.connection = FrameConnection(
            lambda connection, frame: self.replies.put_nowait(frame)
        )

    @classmethod
    async def open(cls, address: Address) -> "RawConnection":
        raw = cls()
        await connect(address, raw.connection)
        return raw

    def send(self, frame: Mapping[str, Any]) -> None:
        self.connection.send(frame)

    async def reply(self, timeout: float = 5.0) -> Dict[str, Any]:
        return await asyncio.wait_for(self.replies.get(), timeout)

    def close(self) -> None:
        self.connection.close()
