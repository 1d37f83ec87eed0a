"""The live workloads: an 8-node in-process cluster on unix sockets.

One closed-loop client keeps one request in flight and replays a
seeded uniform trace with ``replay_schedule(check_freshness=True)``, so
every read passes the freshness oracle.  The client ends the replay
between two requests once ``--seconds`` have passed; the trace is sized
to outlast the timed region.  Everything runs in this one process:
eight node processes on a two-core machine would measure the OS
scheduler, not the cluster.

``live-da-read-mostly``
    DA, scheme {1,2}, 20% writes, volatile nodes: the serialized-schedule
    regime where DA saves copies at readers; client, codec, loop, node
    and protocol with no disk.
``live-sa-durable-write-heavy``
    SA, scheme {1,2}, 50% writes, durable nodes (a fresh state directory
    per cluster, the default flush-only WAL and snapshot interval): each
    write stores at every scheme member through a WAL append.
"""

from __future__ import annotations

import asyncio
import gc
import math
import shutil
import tempfile
import time
from statistics import median
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.cluster.launcher import ClusterSpec, LocalCluster, start_local_cluster
from repro.cluster.loadgen import ClusterClient, RequestOutcome, replay_schedule
from repro.cluster.metrics import percentile
from repro.cluster.rpc import encode_frame
from repro.core.dynamic_allocation import DynamicAllocation
from repro.core.static_allocation import StaticAllocation
from repro.distsim.runner import run_protocol
from repro.engine.seeding import derive_seed
from repro.exceptions import ClusterError
from repro.kernel import schedule_breakdown
from repro.model.accounting import CostBreakdown
from repro.model.schedule import Schedule
from repro.workloads.uniform import UniformWorkload

from perfbench.common import (
    GateFailure,
    Metrics,
    Result,
    peak_rss_mb,
    per,
)
from perfbench.tracing import CountingLoop, Tracer, live_layers

NODES = tuple(range(1, 9))
SCHEME = frozenset({1, 2})

#: Throughput and p50 are medians over windows of this many seconds, so
#: a burst of noise from other tenants of the host moves one window, not
#: the run's figure.
WINDOW_S = 1.0


@dataclass(frozen=True)
class LiveWorkload:
    protocol: str
    write_fraction: float
    durable: bool


WORKLOADS = {
    "live-da-read-mostly": LiveWorkload("DA", 0.2, durable=False),
    "live-sa-durable-write-heavy": LiveWorkload("SA", 0.5, durable=True),
}


@dataclass(frozen=True)
class Size:
    #: Trace requests per second of timed region: a ceiling well above
    #: the measured rate, so the trace outlasts the region.
    requests_per_second: int
    #: Caps the trace; a run that replays it whole has exact counts.
    max_requests: Optional[int]
    #: Requests of the untimed warm-up pass.
    warmup: int
    #: Set-ups per untraced run; ``setup_s`` is their median.
    setups: int
    #: Per-request counts are taken over this many first requests, so
    #: they repeat exactly across runs of one seed.
    prefix: int


SIZES = {
    "full": Size(10_000, None, warmup=3_000, setups=3, prefix=2_000),
    "tiny": Size(10_000, 300, warmup=100, setups=2, prefix=300),
}


class DeadlineReached(Exception):
    """Raised between two requests once the timed region is over."""


class TimedClient(ClusterClient):
    """The closed-loop client of the timed region.

    It ends the replay between two requests once :attr:`deadline`
    passed, keeps every outcome, and calls ``at_prefix`` right after the
    ``prefix``-th request completed."""

    def __init__(
        self,
        addresses,
        prefix: int = 0,
        at_prefix: Optional[Callable[[], None]] = None,
    ) -> None:
        super().__init__(addresses)
        self.deadline = float("inf")
        self.prefix = prefix
        self.at_prefix = at_prefix
        self.outcomes: List[RequestOutcome] = []
        #: ``perf_counter`` time each outcome arrived at.
        self.finished: List[float] = []

    async def execute(self, node_id, op, rid, version=None) -> RequestOutcome:
        if time.perf_counter() >= self.deadline:
            raise DeadlineReached
        outcome = await super().execute(node_id, op, rid, version)
        self.finished.append(time.perf_counter())
        self.outcomes.append(outcome)
        if len(self.outcomes) == self.prefix and self.at_prefix is not None:
            self.at_prefix()
        return outcome


@dataclass
class LivePass:
    setups: List[float]
    generate: List[float]
    elapsed: float
    outcomes: List[RequestOutcome]
    #: Seconds from the start of the timed region to each outcome.
    finished: List[float]
    #: The replayed prefix of the trace.
    schedule: Schedule
    live: CostBreakdown
    rss: float
    #: Counters taken right after the ``prefix``-th request (traced only).
    at_prefix: Dict[str, float] = field(default_factory=dict)

    @property
    def completed(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.ok)

    @property
    def throughput(self) -> float:
        return self.completed / self.elapsed

    def windows(self) -> List[List[float]]:
        """Latencies of the successful requests, by the whole
        :data:`WINDOW_S` window of the timed region they finished in; a
        region shorter than one window is one window."""
        count = int(self.elapsed // WINDOW_S)
        if count == 0:
            return [[outcome.latency for outcome in self.outcomes if outcome.ok]]
        buckets: List[List[float]] = [[] for _ in range(count)]
        for outcome, moment in zip(self.outcomes, self.finished):
            index = int(moment // WINDOW_S)
            if outcome.ok and index < count:
                buckets[index].append(outcome.latency)
        return buckets


def _trace(workload: LiveWorkload, seed: int, length: int) -> Schedule:
    return UniformWorkload(NODES, length, workload.write_fraction).generate(seed)


def _spec(workload: LiveWorkload, state_dir: Optional[str]) -> ClusterSpec:
    return ClusterSpec(
        processors=NODES,
        scheme=SCHEME,
        protocol=workload.protocol,
        transport="unix",
        state_dir=state_dir,
    )


async def _stop(cluster: LocalCluster, state_dir: Optional[str]) -> None:
    try:
        await cluster.stop()
    finally:
        if state_dir is not None:
            shutil.rmtree(state_dir, ignore_errors=True)


async def _replay(client: ClusterClient, schedule: Schedule) -> None:
    try:
        await replay_schedule(client, schedule, check_freshness=True)
    except DeadlineReached:
        pass
    except ClusterError as error:  # the freshness oracle
        raise GateFailure(f"freshness: {error}") from error


async def _warm_up(cluster: LocalCluster, workload: LiveWorkload, seed: int, size: Size) -> None:
    """An untimed pass on another seed: the first pass in a process runs
    measurably slower than later ones."""
    schedule = _trace(workload, derive_seed(seed, 1, "perfbench.warm-up"), size.warmup)
    client = ClusterClient(cluster.addresses)
    try:
        await _replay(client, schedule)
    finally:
        await client.close()


def _prefix_counters(tracer: Tracer, cluster: LocalCluster, loop) -> Dict[str, float]:
    nodes = cluster.nodes.values()
    counters: Dict[str, float] = dict(tracer.counts)
    counters.update(loop.counters() if isinstance(loop, CountingLoop) else {})
    counters["charged.io"] = sum(n.metrics.io_reads + n.metrics.io_writes for n in nodes)
    counters["charged.control"] = sum(n.metrics.control_sent for n in nodes)
    counters["charged.data"] = sum(n.metrics.data_sent for n in nodes)
    # What every node would ship in its `metrics` reply right now.
    counters["metrics_frame_bytes"] = sum(
        len(encode_frame({"type": "metrics_report", "metrics": n.metrics.to_wire()}))
        for n in nodes
    )
    return counters


async def _session(
    workload: LiveWorkload,
    seed: int,
    seconds: float,
    size: Size,
    work_dir: str,
    setups: int,
    warmup: bool,
    tracer: Optional[Tracer] = None,
) -> LivePass:
    """Set up ``setups`` times (warming up on the first cluster), then
    replay the trace on the last cluster for ``seconds``."""
    length = math.ceil(size.requests_per_second * seconds)
    if size.max_requests is not None:
        length = min(length, size.max_requests)
    setup_times: List[float] = []
    generate_times: List[float] = []
    for index in range(setups):
        state_dir = (
            tempfile.mkdtemp(prefix="state-", dir=work_dir) if workload.durable else None
        )
        began = time.perf_counter()
        schedule = _trace(workload, seed, length)
        generated = time.perf_counter()
        cluster = await start_local_cluster(_spec(workload, state_dir))
        setup_times.append(time.perf_counter() - began)
        generate_times.append(generated - began)
        if index < setups - 1:
            try:
                if index == 0 and warmup:
                    await _warm_up(cluster, workload, seed, size)
            finally:
                await _stop(cluster, state_dir)

    loop = asyncio.get_running_loop()
    counters: Dict[str, float] = {}

    def at_prefix() -> None:
        counters.update(_prefix_counters(tracer, cluster, loop))
        counters["requests"] = len(client.outcomes)

    client = TimedClient(
        cluster.addresses,
        prefix=size.prefix if tracer is not None else 0,
        at_prefix=at_prefix,
    )
    try:
        gc.collect()  # the discarded set-ups' garbage, not inside the region
        with live_layers(tracer) if tracer is not None else nullcontext():
            if tracer is not None:
                tracer.enabled = True
            if isinstance(loop, CountingLoop):
                loop.counting = True
            started = time.perf_counter()
            client.deadline = started + seconds
            try:
                await _replay(client, schedule)
            finally:
                elapsed = time.perf_counter() - started
                if tracer is not None:
                    tracer.enabled = False
                if isinstance(loop, CountingLoop):
                    loop.counting = False
        if tracer is not None and not counters:
            at_prefix()  # the region ended first: count every request
        rss = peak_rss_mb()
        live = (await cluster.aggregate_stats()).breakdown()
    finally:
        await client.close()
        await _stop(cluster, state_dir)
    replayed = Schedule(tuple(schedule.requests[: len(client.outcomes)]))
    return LivePass(
        setups=setup_times,
        generate=generate_times,
        elapsed=elapsed,
        outcomes=client.outcomes,
        finished=[moment - started for moment in client.finished],
        schedule=replayed,
        live=live,
        rss=rss,
        at_prefix=counters,
    )


def gate(workload: LiveWorkload, result: LivePass) -> None:
    """Four-way parity on the replayed prefix: live == stepped ==
    kernel == simulated charged counts."""
    attempted = len(result.outcomes)
    failed = attempted - result.completed
    if not attempted:
        raise GateFailure("no request completed in the timed region")
    algorithm = StaticAllocation if workload.protocol == "SA" else DynamicAllocation
    stepped = algorithm(SCHEME).run(result.schedule).total_breakdown()
    kernel = schedule_breakdown(algorithm(SCHEME), result.schedule)
    simulated = run_protocol(workload.protocol, result.schedule, SCHEME).breakdown()
    if not result.live == stepped == kernel == simulated:
        raise GateFailure(
            f"parity over {len(result.schedule)} requests: live {result.live}, "
            f"stepped {stepped}, kernel {kernel}, simulated {simulated}",
            attempted=attempted,
            failed=failed,
        )


def _layer_metrics(tracer: Tracer, traced: LivePass, untraced: LivePass) -> Metrics:
    spans = tracer.summary()
    requests = len(traced.outcomes)
    prefix = traced.at_prefix
    counted = int(prefix["requests"])
    writes = sum(1 for r in traced.schedule.requests[:counted] if r.is_write)

    def per_request(name: str, kind: str = "total") -> float:
        return per(spans.get(name, {kind: 0.0})[kind], requests)

    def per_counted(key: str) -> float:
        return per(prefix.get(key, 0), counted)

    metrics: Metrics = {
        "workloads.generate_s": median(untraced.generate),
        "client.execute_s": per_request("client.execute"),
        "rpc.encode_s": per_request("rpc.encode"),
        "rpc.decode_s": per_request("rpc.decode"),
        "rpc.bytes_per_req": per_counted("frame_bytes"),
        "rpc.frames_per_req": per(
            sum(v for k, v in prefix.items() if k.startswith("frames.")), counted
        ),
        "rpc.metrics_frame_bytes": prefix["metrics_frame_bytes"],
        "loop.tasks_per_req": per_counted("tasks"),
        "loop.timers_per_req": per_counted("timers"),
        "loop.wakeups_per_req": per_counted("wakeups"),
        "transport.send_protocol_s": per_request("transport.send_protocol"),
        "transport.send_done_s": per_request("transport.send_done"),
        "node.output_object_s": per_request("node.output_object"),
        "wal.append_s": per_request("wal.append"),
        "wal.appends_per_write": per(prefix.get("wal.appends", 0), writes),
        "wal.bytes_per_write": per(prefix.get("wal.bytes", 0), writes),
        "snapshot.count": prefix.get("snapshots", 0),
        "snapshot.s": per(
            spans.get("snapshot", {"total": 0.0})["total"],
            spans.get("snapshot", {"count": 0})["count"],
        ),
        "charged.io_per_req": per_counted("charged.io"),
        "charged.control_per_req": per_counted("charged.control"),
        "charged.data_per_req": per_counted("charged.data"),
        "tracing.throughput_rps": traced.throughput,
        "tracing.overhead_rps": traced.throughput - untraced.throughput,
    }
    for kind in ("exec", "result", "msg", "done"):
        metrics[f"rpc.frames_per_req.{kind}"] = per_counted(f"frames.{kind}")
    for name in ("client_read", "client_write", "handle_message"):
        metrics[f"protocol.{name}_s"] = per_request(f"protocol.{name}")
        metrics[f"protocol.{name}_self_s"] = per_request(f"protocol.{name}", "self")
    return metrics


def run(
    name: str, seed: int, seconds: float, trace: bool, size_name: str, work_dir: str
) -> Result:
    workload = WORKLOADS[name]
    size = SIZES[size_name]
    untraced = asyncio.run(
        _session(workload, seed, seconds, size, work_dir, size.setups, warmup=True)
    )
    gate(workload, untraced)
    latencies = [outcome.latency for outcome in untraced.outcomes if outcome.ok]
    attempted = len(untraced.outcomes)
    windows = untraced.windows()
    width = min(WINDOW_S, untraced.elapsed)
    rates = sorted(len(window) / width for window in windows)
    metrics: Metrics = {
        "setup_s": median(untraced.setups),
        "throughput_rps": median(rates),
        "completed_frac": untraced.completed / attempted,
        "peak_rss_mb": untraced.rss,
        # p99 pools the whole region: one window holds too few samples.
        "latency_p99_ms": percentile(latencies, 0.99) * 1e3,
        "latency_p50_ms": median(
            [percentile(window, 0.50) * 1e3 for window in windows if window]
        ),
    }
    notes = {
        "latency samples": f"{len(latencies)} requests "
        f"({len(latencies) - math.ceil(len(latencies) * 0.99)} beyond p99), "
        f"{len(windows)} windows of {width:.3g} s",
        "timed region": f"{untraced.elapsed:.3f} s, "
        f"{untraced.throughput:.1f} requests/s overall, "
        f"windows {rates[0]:.0f}..{rates[-1]:.0f} requests/s",
        "set-ups": len(untraced.setups),
    }
    tracer: Optional[Tracer] = None
    if trace:
        tracer = Tracer()
        with asyncio.Runner(loop_factory=CountingLoop) as runner:
            traced = runner.run(
                _session(workload, seed, seconds, size, work_dir, 1, False, tracer)
            )
        gate(workload, traced)
        metrics = _layer_metrics(tracer, traced, untraced)
        notes["traced requests"] = len(traced.outcomes)
        notes["count prefix"] = f"first {int(traced.at_prefix['requests'])} requests"
    return Result(
        metrics=metrics,
        attempted=attempted,
        failed=attempted - untraced.completed,
        notes=notes,
        tracer=tracer,
    )
