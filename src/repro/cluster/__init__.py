"""repro.cluster — a live replica cluster serving SA/DA over sockets.

The third realization of the paper's algorithms, after the stepped
analytic model (:mod:`repro.core`) and the discrete-event simulator
(:mod:`repro.distsim`): real asyncio nodes, real length-prefixed
frames — one fixed binary layout per client, protocol, completion and
repair frame type, JSON for the admin plane only — on real TCP or
Unix-domain sockets, per-node metrics that map 1:1 onto the paper's
``c_c``/``c_d``/I-O accounting.  The headline
invariant — asserted end-to-end in ``tests/integration`` — is that a
replayed trace produces *bit-identical* message and I/O totals across
all three realizations.

Every node is fault tolerant, as the paper's standing ``t``-availability
constraint asks: at-least-once retries under a
:class:`~repro.cluster.resilience.RetryPolicy` (``RetryPolicy(attempts=1)``
for none) with node-side dedup, read failover, typed degraded-write
rejection, and a :class:`~repro.cluster.resilience.SchemeRepairer` that
restores ``t`` copies after crashes.  None of it fires on a fault-free
run, so parity is unaffected.  See ``docs/chaos.md``.

With a ``state_dir`` on the spec (``--state-dir`` on the CLI) nodes are
durable: every correctness-relevant transition is journaled to a
CRC-checksummed write-ahead log before the node acks, compacted into
snapshots, and replayed on restart through a tiered recovery path that
can rejoin a fresh node with *zero* data messages.  Without one, the
journal is a no-op.  See ``docs/durability.md``.

See ``docs/cluster.md`` for the architecture and wire format.
"""

from repro.cluster.launcher import (
    ClusterHandle,
    ClusterSpec,
    LocalCluster,
    SubprocessCluster,
    start_cluster,
    start_local_cluster,
    start_subprocess_cluster,
)
from repro.cluster.loadgen import (
    ClusterClient,
    LoadResult,
    RequestOutcome,
    poisson_load,
    replay_schedule,
)
from repro.cluster.durability import (
    DurableState,
    NodeDurability,
    node_state_dir,
    snapshot_path,
    wal_path,
)
from repro.cluster.metrics import (
    NodeMetrics,
    aggregate,
    durability_totals,
    latency_histogram,
    resilience_totals,
)
from repro.cluster.node import NodeConfig, NodeServer
from repro.cluster.protocol import (
    LiveDynamicAllocation,
    LiveProtocol,
    LiveStaticAllocation,
    make_live_protocol,
)
from repro.cluster.resilience import (
    DedupCache,
    RepairReport,
    RetryPolicy,
    SchemeRepairer,
)
from repro.cluster.transport import Address, FaultPlan, PeerTransport

__all__ = [
    "Address",
    "ClusterClient",
    "ClusterHandle",
    "ClusterSpec",
    "DedupCache",
    "DurableState",
    "FaultPlan",
    "LiveDynamicAllocation",
    "LiveProtocol",
    "LiveStaticAllocation",
    "LoadResult",
    "LocalCluster",
    "NodeConfig",
    "NodeDurability",
    "NodeMetrics",
    "NodeServer",
    "PeerTransport",
    "RepairReport",
    "RequestOutcome",
    "RetryPolicy",
    "SchemeRepairer",
    "SubprocessCluster",
    "aggregate",
    "durability_totals",
    "latency_histogram",
    "make_live_protocol",
    "node_state_dir",
    "resilience_totals",
    "poisson_load",
    "replay_schedule",
    "snapshot_path",
    "start_cluster",
    "start_local_cluster",
    "start_subprocess_cluster",
    "wal_path",
]
