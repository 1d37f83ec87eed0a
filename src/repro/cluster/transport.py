"""Live transport: peer links, addressing and fault injection.

Each node owns a :class:`PeerTransport`: one lazily-opened, long-lived
connection per peer, over which it ships charged protocol messages
(``msg`` frames) and uncharged completion notifications (``done``
frames).  Charged sends are counted by paper class at the sender —
exactly where the simulated :class:`~repro.distsim.network.Network`
charges them — so live and simulated totals are comparable unit for
unit.

Every send is a plain call that returns nothing.  It encodes its frame
once, up front, so a frame that cannot be encoded raises to the caller
before anything is charged; every attempt then writes the same bytes
through ``PeerTransport._write``.  Delays and retry backoffs are
loop timers; only a link that still has to be dialled costs a task.

Fault injection mirrors the two fault planes of the simulator:

* **node faults** (crash/recover) follow the fail-stop semantics of
  :mod:`repro.distsim.failures` and live in the node server — a crashed
  node drops incoming protocol messages and wipes its volatile state;
* **transport faults** (this module) act on the sender side of a link:
  per-link or global *delay*, deterministic or probabilistic *drop*,
  and *partition* (drop-all across groups).  Delays reorder delivery
  but never change what is charged; drops are charged to the sender and
  counted in ``dropped_messages``, matching the simulated network's
  treatment of messages addressed to dead nodes.  A failed dial or
  write is a lost attempt too.

Only charged protocol frames are subject to transport faults.  ``done``
frames are the experimenter's completion oracle — the stand-in for the
simulator's omniscient event loop — and always get through.
"""

from __future__ import annotations

import asyncio
import math
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, FrozenSet, Mapping, Optional, Set, Tuple

from repro.cluster.rpc import FrameConnection, encode_frame
from repro.cluster.metrics import NodeMetrics
from repro.cluster.resilience import RetryPolicy
from repro.distsim.messages import Message
from repro.exceptions import ClusterError
from repro.storage.versions import ObjectVersion


# -- addressing ------------------------------------------------------------


@dataclass(frozen=True)
class Address:
    """Where a node listens: a TCP endpoint or a Unix-domain socket."""

    kind: str  # "tcp" | "unix"
    host: str = ""
    port: int = 0
    path: str = ""

    def __post_init__(self) -> None:
        if self.kind not in ("tcp", "unix"):
            raise ClusterError(f"unknown address kind {self.kind!r}")
        if self.kind == "unix" and not self.path:
            raise ClusterError("unix addresses need a socket path")

    def render(self) -> str:
        if self.kind == "unix":
            return f"unix:{self.path}"
        return f"tcp:{self.host}:{self.port}"

    @classmethod
    def parse(cls, text: str) -> "Address":
        kind, _, rest = text.strip().partition(":")
        if kind == "unix" and rest:
            return cls("unix", path=rest)
        if kind == "tcp":
            host, _, port = rest.rpartition(":")
            if host and port.isdigit():
                return cls("tcp", host=host, port=int(port))
        raise ClusterError(
            f"cannot parse address {text!r} "
            "(expected tcp:HOST:PORT or unix:/path.sock)"
        )


async def connect(
    address: Address, connection: FrameConnection
) -> FrameConnection:
    """Connect ``connection`` to a node's listening address."""
    loop = asyncio.get_running_loop()
    if address.kind == "unix":
        await loop.create_unix_connection(lambda: connection, address.path)
    else:
        await loop.create_connection(
            lambda: connection, address.host, address.port
        )
    return connection


async def start_server(
    address: Address, accept: Callable[[], FrameConnection]
) -> Tuple[asyncio.AbstractServer, Address]:
    """Bind a listener serving each accepted connection with the
    :class:`FrameConnection` ``accept()`` builds; returns the server and
    the *actual* address.

    TCP addresses with port 0 are resolved to the ephemeral port the
    kernel picked, so launchers can bind first and wire peers after.
    """
    loop = asyncio.get_running_loop()
    if address.kind == "unix":
        server = await loop.create_unix_server(accept, path=address.path)
        return server, address
    server = await loop.create_server(accept, address.host, address.port)
    port = server.sockets[0].getsockname()[1]
    return server, Address("tcp", host=address.host, port=port)


# -- fault plans ----------------------------------------------------------


@dataclass
class FaultPlan:
    """Sender-side transport faults, deterministic under a seed.

    ``default_delay`` and ``link_delays`` are in seconds; ``drop_next``
    drops the next *k* messages on a link; ``drop_probability`` drops
    each message with probability p using a seeded RNG;
    ``blocked_links`` drop everything on a link; ``partitions`` groups
    node ids — messages crossing group boundaries are dropped (a node
    listed in no group is its own island).
    """

    default_delay: float = 0.0
    link_delays: Dict[Tuple[int, int], float] = field(default_factory=dict)
    blocked_links: FrozenSet[Tuple[int, int]] = frozenset()
    drop_next: Dict[Tuple[int, int], int] = field(default_factory=dict)
    drop_probability: float = 0.0
    seed: int = 0
    partitions: Tuple[FrozenSet[int], ...] = ()

    def __post_init__(self) -> None:
        delays = (self.default_delay, *self.link_delays.values())
        if not all(math.isfinite(delay) and delay >= 0 for delay in delays):
            raise ClusterError("delays must be finite and non-negative")
        if not 0.0 <= self.drop_probability <= 1.0:
            raise ClusterError("drop_probability must be within [0, 1]")
        self._rng = random.Random(self.seed)

    def delay_for(self, sender: int, receiver: int) -> float:
        return self.link_delays.get((sender, receiver), self.default_delay)

    def _group_of(self, node_id: int):
        for index, group in enumerate(self.partitions):
            if node_id in group:
                return index
        # Unlisted nodes are their own island: a partition statement is
        # a complete description of who can reach whom.
        return ("island", node_id)

    def crosses_partition(self, sender: int, receiver: int) -> bool:
        if not self.partitions:
            return False
        return self._group_of(sender) != self._group_of(receiver)

    def should_drop(self, sender: int, receiver: int) -> bool:
        """Decide (and consume budget) whether this send is lost."""
        link = (sender, receiver)
        if link in self.blocked_links or self.crosses_partition(*link):
            return True
        remaining = self.drop_next.get(link, 0)
        if remaining > 0:
            self.drop_next[link] = remaining - 1
            return True
        if self.drop_probability > 0.0:
            return self._rng.random() < self.drop_probability
        return False

    # -- serialization (shipped in admin `fault` frames) -------------------

    def to_wire(self) -> Dict[str, Any]:
        return {
            "default_delay": self.default_delay,
            "link_delays": [
                [src, dst, delay]
                for (src, dst), delay in sorted(self.link_delays.items())
            ],
            "blocked_links": sorted(list(link) for link in self.blocked_links),
            "drop_next": [
                [src, dst, count]
                for (src, dst), count in sorted(self.drop_next.items())
            ],
            "drop_probability": self.drop_probability,
            "seed": self.seed,
            "partitions": [sorted(group) for group in self.partitions],
        }

    @classmethod
    def from_wire(cls, wire: Mapping[str, Any]) -> "FaultPlan":
        return cls(
            default_delay=float(wire.get("default_delay", 0.0)),
            link_delays={
                (int(src), int(dst)): float(delay)
                for src, dst, delay in wire.get("link_delays", [])
            },
            blocked_links=frozenset(
                (int(src), int(dst))
                for src, dst in wire.get("blocked_links", [])
            ),
            drop_next={
                (int(src), int(dst)): int(count)
                for src, dst, count in wire.get("drop_next", [])
            },
            drop_probability=float(wire.get("drop_probability", 0.0)),
            seed=int(wire.get("seed", 0)),
            partitions=tuple(
                frozenset(int(node) for node in group)
                for group in wire.get("partitions", [])
            ),
        )


# -- the per-node transport -------------------------------------------------


class PeerTransport:
    """One node's outgoing links to its peers; a charged frame lost on
    every attempt goes to ``on_lost(receiver, rid)``."""

    def __init__(
        self,
        node_id: int,
        metrics: NodeMetrics,
        on_lost: Callable[[int, int], None],
        retry_policy: RetryPolicy = RetryPolicy(),
    ) -> None:
        self.node_id = node_id
        self.metrics = metrics
        self.on_lost = on_lost
        #: Set by the admin ``fault`` frame; ``None`` is fault-free.
        self.fault_plan: Optional[FaultPlan] = None
        self.set_retry_policy(retry_policy)
        self.peers: Dict[int, Address] = {}
        self._links: Dict[int, FrameConnection] = {}
        self._connect_lock = asyncio.Lock()
        #: Delay and backoff timers and dialling tasks still to run.
        self._scheduled: Set[asyncio.TimerHandle | asyncio.Task] = set()

    def set_peers(self, peers: Mapping[int, Address]) -> None:
        self.peers = dict(peers)

    def set_retry_policy(self, policy: RetryPolicy) -> None:
        """Install the at-least-once retransmission budget of this node."""
        self.retry_policy = policy
        self._retry_rng = policy.rng_for(self.node_id)

    # -- the two send planes ---------------------------------------------

    def send_protocol(self, message: Message) -> None:
        """Charge and ship a protocol message.

        The transmission is at-least-once: a faulted attempt backs off
        and re-sends up to the :class:`~repro.cluster.resilience.RetryPolicy`
        budget.  Only the first attempt is charged by paper class —
        retransmissions count in ``retries_sent`` so faulted runs report
        recovery work without perturbing the cost-model accounting.  A
        message lost on every attempt stays charged (the simulated
        network's sender-side accounting for doomed messages) and goes
        to ``on_lost``.  A frame too large to encode, or with a field
        out of its layout's range, raises ``ClusterError`` before it is
        charged."""
        if message.sender != self.node_id:
            raise ClusterError(
                f"node {self.node_id} cannot send on behalf of "
                f"{message.sender}"
            )
        if message.receiver == self.node_id:
            raise ClusterError(
                f"{message.describe()}: a processor does not message itself "
                "(local work is I/O, not communication)"
            )
        rid = message.request_id
        data = encode_frame({"type": "msg", "rid": rid, "message": message})
        self.metrics.charge_message(message)
        self._ship(message.receiver, rid, data, 0)

    def send_repair(self, peer: int, rid: int, version: ObjectVersion) -> None:
        """Ship a repair copy of the object to ``peer``.

        Charged as **one data message** (what the cost model prices a
        copy transfer at) and counted separately in ``repairs_sent``.
        Subject to transport faults and retries like any charged send."""
        data = encode_frame(
            {"type": "repair", "rid": rid, "from": self.node_id, "version": version}
        )
        self.metrics.data_sent += 1
        self.metrics.repairs_sent += 1
        self._ship(peer, rid, data, 0)

    def send_done(
        self, peer: int, rid: int, dropped: bool = False, failed: bool = False
    ) -> None:
        """Ship an uncharged completion notification (never faulted).

        ``dropped`` reports a unit settled by the receiver's fail-stop
        crash, or an answer lost in transit; ``failed`` reports a unit
        that could NOT settle safely — a relayed invalidation lost in
        transit, or still unconfirmed when the relay crashed — so the
        origin can reject the write instead of acknowledging it."""
        payload = {
            "type": "done",
            "rid": rid,
            "from": self.node_id,
            "dropped": dropped,
            "failed": failed,
        }
        self._write(peer, rid, encode_frame(payload), None)

    # -- plumbing ---------------------------------------------------------

    def _ship(self, receiver: int, rid: int, data: bytes, attempt: int) -> None:
        """One attempt of a charged frame, with the fault plan applied."""
        plan = self.fault_plan
        if plan is not None:
            if plan.should_drop(self.node_id, receiver):
                self._lost(receiver, rid, data, attempt)
                return
            delay = plan.delay_for(self.node_id, receiver)
            if delay > 0.0:
                self._later(delay, self._write, receiver, rid, data, attempt)
                return
        self._write(receiver, rid, data, attempt)

    def _lost(self, receiver: int, rid: int, data: bytes, attempt: int) -> None:
        """A charged attempt was lost: back off and re-ship it, or hand
        the frame to ``on_lost`` once the retry budget is spent."""
        self.metrics.dropped_messages += 1
        policy = self.retry_policy
        if attempt + 1 < policy.attempts:
            self.metrics.retries_sent += 1
            self._later(
                policy.backoff(attempt, self._retry_rng),
                self._ship, receiver, rid, data, attempt + 1,
            )
        else:
            self.on_lost(receiver, rid)

    def _write(
        self, peer: int, rid: int, data: bytes, attempt: Optional[int]
    ) -> None:
        """Write ``data`` on ``peer``'s link; ``attempt`` is ``None`` for
        an uncharged ``done``.  A link not dialled yet, closed or broken
        on this write defers the frame to a task that dials first."""
        link = self._links.get(peer)
        if link is not None and not link.closed:
            try:
                link.write(data)
                return
            except ConnectionError:
                del self._links[peer]
        task = asyncio.ensure_future(self._dial(peer, rid, data, attempt))
        self._scheduled.add(task)
        task.add_done_callback(self._scheduled.discard)

    async def _dial(
        self, peer: int, rid: int, data: bytes, attempt: Optional[int]
    ) -> None:
        try:
            async with self._connect_lock:
                link = self._links.get(peer)
                if link is None or link.closed:
                    address = self.peers.get(peer)
                    if address is None:
                        raise ClusterError(
                            f"node {self.node_id} has no address for {peer}"
                        )
                    # Peers answer over their own links: nothing arrives.
                    link = await connect(
                        address, FrameConnection(lambda link, frame: None)
                    )
                    self._links[peer] = link
            link.write(data)
        except (OSError, ClusterError) as error:
            if attempt is not None:
                # A failed dial or write loses the attempt like a drop.
                self._lost(peer, rid, data, attempt)
            else:
                # Nobody waits on a ``done``: report its loss.
                asyncio.get_running_loop().call_exception_handler(
                    {"message": "a done frame was lost", "exception": error}
                )

    def _later(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> None:
        def fire() -> None:
            self._scheduled.discard(handle)
            callback(*args)

        handle = asyncio.get_running_loop().call_later(delay, fire)
        self._scheduled.add(handle)

    async def close(self) -> None:
        for scheduled in self._scheduled:
            scheduled.cancel()
        self._scheduled.clear()
        links = list(self._links.values())
        self._links.clear()
        for link in links:
            link.close()
        await asyncio.sleep(0)  # let the closed links' callbacks run
