"""Run a live-cluster scenario on a fresh event loop, strictly."""

from __future__ import annotations

import asyncio
from typing import Any, Awaitable, Dict, List


def run(coro: Awaitable[Any]) -> Any:
    """Run ``coro`` like :func:`asyncio.run`, and fail if the loop's
    exception handler got a report: an exception lost in a callback or
    a task would otherwise only be logged.  A test that installs its own
    handler replaces this one and checks its reports itself."""
    reports: List[Dict[str, Any]] = []

    async def main() -> Any:
        asyncio.get_running_loop().set_exception_handler(
            lambda loop, context: reports.append(context)
        )
        return await coro

    result = asyncio.run(main())
    assert reports == [], f"the event loop reported: {reports}"
    return result
