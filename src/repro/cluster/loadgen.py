"""Client load generation against a live cluster.

Two modes, matching the two ways the paper's schedules are read:

* :func:`replay_schedule` — **closed loop**: a
  :class:`~repro.model.schedule.Schedule` (parsed, generated, or loaded
  from a trace file) is replayed request by request, each routed to the
  node of its issuing processor and run to quiescence before the next
  starts.  This realizes the paper's totally-ordered schedule exactly,
  which is what makes live message counts comparable bit-for-bit with
  the stepped accounting.
* :func:`poisson_load` — **open loop**: requests arrive as a Poisson
  process (seeded, reproducible) and may overlap in flight; useful for
  exercising concurrency and latency behaviour, *not* for count parity
  (the paper's accounting is defined over serialized schedules).

The client assigns globally unique request ids (1, 2, ...) and, for
writes, version numbers from a counter starting at 1 — continuing the
uncharged seed version 0 exactly like the simulator's version counter.
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.cluster.resilience import RetryPolicy
from repro.cluster.rpc import FrameConnection, encode_frame
from repro.cluster.transport import Address, connect
from repro.exceptions import ClusterError
from repro.model.schedule import Schedule
from repro.storage.versions import ObjectVersion


@dataclass(slots=True)
class RequestOutcome:
    """What happened to one client request."""

    rid: int
    node: int
    op: str  # "read" | "write"
    ok: bool
    version: Optional[ObjectVersion] = None
    error: Optional[str] = None
    #: Client-observed wall-clock latency, in seconds.
    latency: float = 0.0
    #: Transport-level re-sends this request needed (0 without faults).
    retries: int = 0
    #: True when the node rejected the request in degraded mode
    #: (:class:`~repro.exceptions.ClusterDegradedError` on the far side).
    degraded: bool = False


@dataclass
class LoadResult:
    """Aggregate outcome of one load run."""

    outcomes: List[RequestOutcome] = field(default_factory=list)

    @property
    def completed(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.ok)

    @property
    def errors(self) -> int:
        return sum(1 for outcome in self.outcomes if not outcome.ok)

    @property
    def latencies(self) -> List[float]:
        return [outcome.latency for outcome in self.outcomes if outcome.ok]

    def raise_on_errors(self) -> None:
        failed = [outcome for outcome in self.outcomes if not outcome.ok]
        if failed:
            first = failed[0]
            raise ClusterError(
                f"{len(failed)} of {len(self.outcomes)} requests failed; "
                f"first: request {first.rid} at node {first.node}: "
                f"{first.error}"
            )


class NodeCalls:
    """Request/reply calls to the nodes of a cluster.

    One :class:`FrameConnection` per node, dialled on first use; every
    reply frame resolves its waiting caller by ``(node, frame[key])`` as
    it arrives, so many calls can be in flight per node.  A failed dial
    or send raises ``ClusterError``; one node's lost connection fails
    only *its* callers, and the next call redials.  A frame that cannot
    be encoded raises ``ClusterError`` before any dial."""

    def __init__(self, addresses: Mapping[int, Address], key: str) -> None:
        self.addresses = dict(addresses)
        self._key = key
        self._conns: Dict[int, FrameConnection] = {}
        self._dial_lock = asyncio.Lock()
        self._waiting: Dict[Tuple[int, object], asyncio.Future] = {}

    async def _conn(self, node_id: int) -> FrameConnection:
        async with self._dial_lock:
            conn = self._conns.get(node_id)
            if conn is None or conn.closed:
                if node_id not in self.addresses:
                    raise ClusterError(f"no address for node {node_id}")
                conn = self._conns[node_id] = await connect(
                    self.addresses[node_id],
                    FrameConnection(
                        lambda conn, frame: self._on_reply(node_id, frame),
                        lambda conn, error: self._on_lost(node_id, error),
                    ),
                )
            return conn

    def _on_reply(self, node_id: int, frame: Dict[str, object]) -> None:
        future = self._waiting.pop((node_id, frame.get(self._key)), None)
        if future is not None and not future.done():
            future.set_result(frame)

    def _on_lost(self, node_id: int, error: Optional[Exception]) -> None:
        if error is not None:
            reason = f"connection to node {node_id} died: {error}"
        else:
            reason = f"node {node_id} closed the connection"
        stale = [key for key in self._waiting if key[0] == node_id]
        for key in stale:
            future = self._waiting.pop(key)
            if not future.done():
                future.set_exception(ClusterError(reason))

    async def call(
        self,
        node_id: int,
        frame: Mapping[str, object],
        timeout: Optional[float] = None,
        data: Optional[bytes] = None,
    ) -> Dict[str, object]:
        """Send ``frame`` to a node and await the reply with the same
        ``key``, failing with ``asyncio.TimeoutError`` after ``timeout``
        seconds if one is given; ``data`` is ``frame`` encoded, if given."""
        if data is None:
            data = encode_frame(frame)
        conn = self._conns.get(node_id)
        try:
            if conn is None or conn.closed:
                conn = await self._conn(node_id)
            conn.write(data)
        except OSError as error:
            raise ClusterError(
                f"connection to node {node_id} failed: {error}"
            ) from error
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        waiting = (node_id, frame[self._key])
        self._waiting[waiting] = future
        deadline = (
            None if timeout is None else loop.call_later(timeout, _expire, future)
        )
        try:
            return await future
        finally:
            if deadline is not None:
                deadline.cancel()
            self._waiting.pop(waiting, None)

    async def close(self) -> None:
        conns = list(self._conns.values())
        self._conns.clear()
        for conn in conns:
            conn.close()
        await asyncio.sleep(0)  # let the closed connections' callbacks run


class ClusterClient(NodeCalls):
    """Multiplexed client connections to every node of a cluster.

    ``result`` frames resolve their callers by ``(node, request id)``,
    so the open-loop generator can keep many requests in flight per
    node.  Each call awaits its reply future under one deadline timer.

    The client is the outer half of at-least-once RPC: transport-level
    failures (a dead connection, a refused dial) are retried with seeded
    backoff under the *same* request id, so the node-side dedup cache
    absorbs duplicates.  Application-level replies — ``ok=False``
    results, degraded rejections — are **never** retried: the node
    answered; retrying would re-run a request the cluster already
    decided on.  Timeouts are not retried either: slowness is not a
    settled failure, and a duplicate of a still-running request races
    its original.  A request the client cannot encode fails at once."""

    def __init__(
        self,
        addresses: Mapping[int, Address],
        timeout: float = 30.0,
        retry: RetryPolicy = RetryPolicy(),
    ) -> None:
        super().__init__(addresses, key="rid")
        self.timeout = timeout
        self.retry = retry
        # node_id -1: a stream disjoint from every node's transport RNG.
        self._retry_rng = retry.rng_for(-1)

    async def execute(
        self,
        node_id: int,
        op: str,
        rid: int,
        version: Optional[ObjectVersion] = None,
    ) -> RequestOutcome:
        """Run one request on a node; never raises for protocol-level
        failures — inspect the outcome's ``ok``/``error``."""
        frame = {"type": "exec", "rid": rid, "op": op, "version": version}
        started = time.monotonic()
        retries = 0
        try:
            # Encoded once, before dialling: a retry re-sends the bytes.
            data = encode_frame(frame)
        except ClusterError as error:
            attempts, last_error = 0, f"cannot encode the request: {error}"
        else:
            attempts, last_error = self.retry.attempts, "request was never attempted"
        for attempt in range(attempts):
            try:
                reply = await self.call(node_id, frame, self.timeout, data)
            except asyncio.TimeoutError:
                last_error = f"client timed out after {self.timeout}s"
                break
            except ClusterError as error:
                last_error = str(error)
                if attempt + 1 < attempts:
                    retries += 1
                    await asyncio.sleep(
                        self.retry.backoff(attempt, self._retry_rng)
                    )
                continue
            return RequestOutcome(
                rid=rid,
                node=node_id,
                op=op,
                ok=bool(reply.get("ok")),
                version=reply.get("version"),
                error=reply.get("error"),
                latency=time.monotonic() - started,
                retries=retries,
                degraded=bool(reply.get("degraded")),
            )
        return RequestOutcome(
            rid=rid,
            node=node_id,
            op=op,
            ok=False,
            error=last_error,
            latency=time.monotonic() - started,
            retries=retries,
        )


def _expire(future: asyncio.Future) -> None:
    """A call's deadline: fail its reply future unless it resolved."""
    if not future.done():
        future.set_exception(asyncio.TimeoutError())


async def replay_schedule(
    client: ClusterClient,
    schedule: Schedule,
    check_freshness: bool = True,
    fail_fast: bool = False,
) -> LoadResult:
    """Replay a schedule closed-loop: one request at a time, in order.

    With ``check_freshness`` (only sound without faults), every
    successful read must return the latest written version — a
    consistency oracle on top of the count parity."""
    result = LoadResult()
    latest = 0  # the seed version's number
    for index, request in enumerate(schedule):
        rid = index + 1
        if request.is_write:
            version = ObjectVersion(latest + 1, request.processor)
            outcome = await client.execute(
                request.processor, "write", rid, version
            )
            if outcome.ok:
                latest += 1
        else:
            outcome = await client.execute(request.processor, "read", rid)
            if outcome.ok and check_freshness:
                got = outcome.version.number if outcome.version else None
                if got != latest:
                    raise ClusterError(
                        f"stale read: request {rid} at processor "
                        f"{request.processor} returned version {got}, "
                        f"expected {latest}"
                    )
        result.outcomes.append(outcome)
        if fail_fast and not outcome.ok:
            break
    return result


async def poisson_load(
    client: ClusterClient,
    processors: Sequence[int],
    count: int,
    rate: float,
    write_fraction: float = 0.2,
    seed: int = 0,
) -> LoadResult:
    """Open-loop Poisson arrivals: fire-and-gather, overlap allowed.

    ``rate`` is the arrival rate in requests/second.  Versions are
    numbered by issue order; with overlapping writes the cluster's
    serialization may differ, so no freshness oracle applies here."""
    if count < 1:
        raise ClusterError("poisson_load needs a positive request count")
    if rate <= 0:
        raise ClusterError("the arrival rate must be positive")
    if not processors:
        raise ClusterError("poisson_load needs at least one processor")
    rng = random.Random(seed)
    tasks: List[asyncio.Task] = []
    version = 0
    for index in range(count):
        rid = index + 1
        processor = rng.choice(list(processors))
        if rng.random() < write_fraction:
            version += 1
            tasks.append(
                asyncio.ensure_future(
                    client.execute(
                        processor,
                        "write",
                        rid,
                        ObjectVersion(version, processor),
                    )
                )
            )
        else:
            tasks.append(
                asyncio.ensure_future(client.execute(processor, "read", rid))
            )
        await asyncio.sleep(rng.expovariate(rate))
    outcomes = await asyncio.gather(*tasks)
    return LoadResult(outcomes=list(outcomes))


def route_check(schedule: Schedule, processors: Sequence[int]) -> None:
    """Fail early if the schedule names a processor with no node."""
    available = set(processors)
    missing = sorted(
        {
            request.processor
            for request in schedule
            if request.processor not in available
        }
    )
    if missing:
        raise ClusterError(
            f"schedule touches processors {missing} but the cluster only "
            f"runs {sorted(available)}"
        )
