"""Cluster bootstrap: start N nodes, wire them, steer them.

Two launch modes share one :class:`ClusterHandle` admin surface:

* :func:`start_local_cluster` — every :class:`~repro.cluster.node.NodeServer`
  runs in the calling process's event loop.  The sockets are real (Unix
  domain by default, TCP loopback on request), only the processes are
  shared; this is the mode the parity tests and CI smoke job use.
* :func:`start_subprocess_cluster` — each node is a separate
  ``repro cluster serve`` process.  The child announces its resolved
  listen address on stdout (``CLUSTER-LISTENING <id> <address>``) so
  the launcher can bind ephemeral ports first and wire peers after.

Either way, peer wiring, fault-plan installation, crash/recover and
metrics collection all go through admin frames over the same sockets
the protocols use — there is no in-process back channel, so the local
mode exercises exactly the machinery of the distributed one.
"""

from __future__ import annotations

import asyncio
import itertools
import os
import socket
import sys
import tempfile
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.cluster.loadgen import NodeCalls
from repro.cluster.metrics import NodeMetrics, aggregate
from repro.cluster.node import NodeConfig, NodeServer
from repro.cluster.resilience import RetryPolicy
from repro.cluster.transport import Address, FaultPlan
from repro.distsim.statistics import SimulationStats
from repro.exceptions import ClusterError

#: Handshake line a serving node prints once it is listening.
LISTENING_BANNER = "CLUSTER-LISTENING"

#: How long to wait for a subprocess node to announce itself.
SPAWN_TIMEOUT = 20.0


def _has_unix_sockets() -> bool:
    return hasattr(socket, "AF_UNIX")


def resolve_transport(kind: str) -> str:
    """Normalize a transport choice; ``auto`` prefers Unix sockets."""
    key = kind.strip().lower()
    if key == "auto":
        return "unix" if _has_unix_sockets() else "tcp"
    if key in ("unix", "tcp"):
        if key == "unix" and not _has_unix_sockets():
            raise ClusterError("this platform has no AF_UNIX sockets")
        return key
    raise ClusterError(f"unknown transport {kind!r} (expected auto/unix/tcp)")


@dataclass
class ClusterSpec:
    """What to launch: which processors, protocol and transport."""

    processors: Tuple[int, ...]
    scheme: frozenset
    protocol: str = "DA"
    primary: Optional[int] = None
    transport: str = "auto"
    #: Every node's retry policy (``RetryPolicy(attempts=1)``: no
    #: retries).  Fault-free traffic does not depend on it.
    resilience: RetryPolicy = RetryPolicy()
    #: A directory each node journals its state under
    #: (``<state_dir>/node-<id>/``); ``None`` launches volatile nodes.
    #: Fault-free traffic is the same either way — only recovery
    #: changes (tiered log replay; see ``docs/durability.md``).
    state_dir: Optional[str] = None

    def __post_init__(self) -> None:
        self.processors = tuple(sorted(set(int(p) for p in self.processors)))
        self.scheme = frozenset(int(p) for p in self.scheme)
        if not self.processors:
            raise ClusterError("a cluster needs at least one processor")
        missing = self.scheme - set(self.processors)
        if missing:
            raise ClusterError(
                f"scheme members {sorted(missing)} are not launched processors"
            )

    def node_config(self, node_id: int, address: Address) -> NodeConfig:
        return NodeConfig(
            node_id=node_id,
            scheme=self.scheme,
            protocol=self.protocol,
            primary=self.primary,
            address=address,
            resilience=self.resilience,
            state_dir=self.state_dir,
        )


def _listen_addresses(
    spec: ClusterSpec, socket_dir: Optional[str]
) -> Dict[int, Address]:
    transport = resolve_transport(spec.transport)
    if transport == "unix":
        if socket_dir is None:
            raise ClusterError("unix transport needs a socket directory")
        return {
            node_id: Address(
                "unix", path=os.path.join(socket_dir, f"node-{node_id}.sock")
            )
            for node_id in spec.processors
        }
    return {
        node_id: Address("tcp", host="127.0.0.1", port=0)
        for node_id in spec.processors
    }


class ClusterHandle:
    """Admin-plane view of a running cluster (any launch mode)."""

    def __init__(self, spec: ClusterSpec, addresses: Dict[int, Address]) -> None:
        self.spec = spec
        self.addresses = dict(addresses)
        self._admin = NodeCalls(self.addresses, key="id")
        self._admin_ids = itertools.count(1)

    # -- raw admin calls ---------------------------------------------------

    async def admin(self, node_id: int, payload: Mapping[str, Any]) -> Dict:
        """One admin request/response round trip with a node: no retry
        and no deadline; a lost connection raises ``ClusterError``."""
        frame = {**payload, "id": next(self._admin_ids)}
        reply = await self._admin.call(node_id, frame)
        if reply.get("type") == "error":
            raise ClusterError(f"node {node_id}: {reply.get('error')}")
        return reply

    # -- cluster-wide operations -------------------------------------------

    async def wire_peers(self) -> None:
        """Tell every node where every other node listens."""
        rendered = {
            str(node_id): address.render()
            for node_id, address in self.addresses.items()
        }
        for node_id in self.spec.processors:
            peers = {
                key: value
                for key, value in rendered.items()
                if key != str(node_id)
            }
            await self.admin(node_id, {"type": "set_peers", "peers": peers})

    async def ping_all(self) -> None:
        for node_id in self.spec.processors:
            reply = await self.admin(node_id, {"type": "ping"})
            if reply.get("node") != node_id:
                raise ClusterError(
                    f"address of node {node_id} answered as "
                    f"node {reply.get('node')}"
                )

    async def metrics(self) -> Dict[int, NodeMetrics]:
        result: Dict[int, NodeMetrics] = {}
        for node_id in self.spec.processors:
            reply = await self.admin(node_id, {"type": "metrics"})
            result[node_id] = NodeMetrics.from_wire(reply["metrics"])
        return result

    async def aggregate_stats(self) -> SimulationStats:
        return aggregate((await self.metrics()).values())

    async def reset_metrics(self) -> None:
        for node_id in self.spec.processors:
            await self.admin(node_id, {"type": "reset_metrics"})

    async def set_fault_plan(
        self,
        plan: Optional[FaultPlan],
        nodes: Optional[Iterable[int]] = None,
    ) -> None:
        """Install (or clear, with ``None``) a sender-side fault plan."""
        wire = plan.to_wire() if plan is not None else None
        for node_id in nodes if nodes is not None else self.spec.processors:
            await self.admin(node_id, {"type": "fault", "plan": wire})

    async def status(self, node_id: int) -> Dict:
        """One node's self-reported repair-relevant state."""
        return await self.admin(node_id, {"type": "status"})

    async def status_all(
        self, nodes: Optional[Iterable[int]] = None
    ) -> Dict[int, Dict]:
        """Status of every node that still answers its admin socket.

        Nodes whose admin channel is gone (a killed subprocess, not a
        simulated crash — those still answer) are silently omitted; the
        repairer treats absence as unreachable."""
        result: Dict[int, Dict] = {}
        for node_id in nodes if nodes is not None else self.spec.processors:
            try:
                result[node_id] = await self.status(node_id)
            except ClusterError:
                continue
        return result

    async def repair(self, donor: int, target: int, rid: int) -> Dict:
        """Ask ``donor`` to copy its object to ``target`` (one data
        message charged at the donor; see ``NodeServer._repair_send``)."""
        return await self.admin(
            donor, {"type": "repair_send", "target": target, "rid": rid}
        )

    async def adopt(
        self, node_id: int, nodes: Iterable[int], steward: bool = False
    ) -> None:
        """Register ``nodes`` in a core member's join-list (DA repair)."""
        await self.admin(
            node_id,
            {
                "type": "adopt",
                "nodes": sorted(int(n) for n in nodes),
                "steward": bool(steward),
            },
        )

    async def set_scheme(
        self, members: Iterable[int], nodes: Optional[Iterable[int]] = None
    ) -> None:
        """Broadcast a repaired allocation scheme (SA repair)."""
        wire = sorted(int(member) for member in members)
        for node_id in nodes if nodes is not None else self.spec.processors:
            await self.admin(node_id, {"type": "set_scheme", "scheme": wire})

    async def crash(self, node_id: int) -> None:
        await self.admin(node_id, {"type": "crash"})

    async def recover(self, node_id: int) -> Dict:
        """Recover a crashed node; the reply reports the recovery tier
        (``volatile``/``log-fresh``/``log-stale``/``log-empty``/
        ``log-unverified``), replay counts and any log damage."""
        return await self.admin(node_id, {"type": "recover"})

    async def shutdown_nodes(self) -> None:
        for node_id in self.spec.processors:
            try:
                await self.admin(node_id, {"type": "shutdown"})
            except ClusterError:
                pass  # already gone

    async def stop(self) -> None:  # pragma: no cover - overridden
        await self._admin.close()


class LocalCluster(ClusterHandle):
    """All nodes in this process's event loop, real sockets between."""

    def __init__(
        self,
        spec: ClusterSpec,
        addresses: Dict[int, Address],
        nodes: Dict[int, NodeServer],
        socket_dir: Optional[tempfile.TemporaryDirectory],
    ) -> None:
        super().__init__(spec, addresses)
        self.nodes = nodes
        self._socket_dir = socket_dir

    async def stop(self) -> None:
        await self._admin.close()
        for node in self.nodes.values():
            await node.stop()
        if self._socket_dir is not None:
            self._socket_dir.cleanup()
            self._socket_dir = None


async def start_local_cluster(spec: ClusterSpec) -> LocalCluster:
    """Launch every node in-process and wire the peer mesh."""
    socket_dir = None
    if resolve_transport(spec.transport) == "unix":
        socket_dir = tempfile.TemporaryDirectory(prefix="repro-cluster-")
    planned = _listen_addresses(
        spec, socket_dir.name if socket_dir else None
    )
    nodes: Dict[int, NodeServer] = {}
    actual: Dict[int, Address] = {}
    try:
        for node_id in spec.processors:
            node = NodeServer(spec.node_config(node_id, planned[node_id]))
            actual[node_id] = await node.start()
            nodes[node_id] = node
        cluster = LocalCluster(spec, actual, nodes, socket_dir)
        await cluster.wire_peers()
        return cluster
    except BaseException:
        for node in nodes.values():
            await node.stop()
        if socket_dir is not None:
            socket_dir.cleanup()
        raise


class SubprocessCluster(ClusterHandle):
    """Every node is a separate ``repro cluster serve`` process."""

    def __init__(
        self,
        spec: ClusterSpec,
        addresses: Dict[int, Address],
        processes: Dict[int, asyncio.subprocess.Process],
        socket_dir: Optional[tempfile.TemporaryDirectory],
    ) -> None:
        super().__init__(spec, addresses)
        self.processes = processes
        self._socket_dir = socket_dir

    async def stop(self) -> None:
        await self.shutdown_nodes()
        await self._admin.close()
        for process in self.processes.values():
            try:
                await asyncio.wait_for(process.wait(), timeout=5.0)
            except asyncio.TimeoutError:  # pragma: no cover - hung child
                process.kill()
                await process.wait()
        if self._socket_dir is not None:
            self._socket_dir.cleanup()
            self._socket_dir = None


def _serve_command(spec: ClusterSpec, node_id: int, address: Address) -> List[str]:
    command = [
        sys.executable,
        "-m",
        "repro.cli",
        "cluster",
        "serve",
        "--node-id",
        str(node_id),
        "--protocol",
        spec.protocol,
        "--scheme",
        ",".join(str(p) for p in sorted(spec.scheme)),
        "--listen",
        address.render(),
    ]
    if spec.primary is not None:
        command += ["--primary", str(spec.primary)]
    if spec.state_dir is not None:
        command += ["--state-dir", spec.state_dir]
    return command


async def _await_banner(
    node_id: int, process: asyncio.subprocess.Process
) -> Address:
    assert process.stdout is not None
    while True:
        line = await asyncio.wait_for(
            process.stdout.readline(), timeout=SPAWN_TIMEOUT
        )
        if not line:
            raise ClusterError(
                f"node {node_id} exited before announcing its address"
            )
        text = line.decode("utf-8", "replace").strip()
        if not text.startswith(LISTENING_BANNER):
            continue  # tolerate interpreter chatter before the banner
        parts = text.split()
        if len(parts) != 3 or parts[1] != str(node_id):
            raise ClusterError(f"bad handshake from node {node_id}: {text!r}")
        return Address.parse(parts[2])


async def start_subprocess_cluster(spec: ClusterSpec) -> SubprocessCluster:
    """Launch every node as its own OS process and wire the mesh."""
    socket_dir = None
    if resolve_transport(spec.transport) == "unix":
        socket_dir = tempfile.TemporaryDirectory(prefix="repro-cluster-")
    planned = _listen_addresses(
        spec, socket_dir.name if socket_dir else None
    )
    env = dict(os.environ)
    # Ensure the child resolves the same `repro` package as the parent.
    import repro as _repro_pkg

    src_root = os.path.dirname(os.path.dirname(os.path.abspath(_repro_pkg.__file__)))
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        src_root if not existing else os.pathsep.join([src_root, existing])
    )
    processes: Dict[int, asyncio.subprocess.Process] = {}
    actual: Dict[int, Address] = {}
    try:
        for node_id in spec.processors:
            process = await asyncio.create_subprocess_exec(
                *_serve_command(spec, node_id, planned[node_id]),
                stdout=asyncio.subprocess.PIPE,
                stderr=asyncio.subprocess.DEVNULL,
                env=env,
            )
            processes[node_id] = process
            actual[node_id] = await _await_banner(node_id, process)
        cluster = SubprocessCluster(spec, actual, processes, socket_dir)
        await cluster.wire_peers()
        await cluster.ping_all()
        # `serve` has no retry-policy flag; install over the admin
        # plane so both launch modes honour the spec.
        policy = {"type": "resilience", "policy": spec.resilience.to_wire()}
        for node_id in spec.processors:
            await cluster.admin(node_id, policy)
        return cluster
    except BaseException:
        for process in processes.values():
            if process.returncode is None:
                process.kill()
                await process.wait()
        if socket_dir is not None:
            socket_dir.cleanup()
        raise


async def start_cluster(
    spec: ClusterSpec, subprocesses: bool = False
) -> ClusterHandle:
    """Launch in the requested mode behind one interface."""
    if subprocesses:
        return await start_subprocess_cluster(spec)
    return await start_local_cluster(spec)
