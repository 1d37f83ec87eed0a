"""`repro cluster` — serve, drive and benchmark a live cluster.

Three leaves:

``repro cluster serve``
    Run ONE node in the foreground (the building block of the
    subprocess launch mode).  Prints ``CLUSTER-LISTENING <id> <addr>``
    once the socket is bound, then serves until a ``shutdown`` admin
    frame arrives.
``repro cluster run``
    Launch a whole cluster (in-process by default, ``--subprocess``
    for real OS processes), replay a schedule closed-loop, print the
    per-node and aggregate traffic, and — with ``--check-parity`` —
    verify the live counts bit-for-bit against the stepped algorithm,
    the discrete-event simulator and the vectorized kernel, exiting
    non-zero on mismatch.
``repro cluster bench``
    Open-loop Poisson load against a live cluster; reports throughput
    and latency percentiles.
"""

from __future__ import annotations

import argparse
import asyncio
import math
import sys
import time
from typing import Dict, List

from repro.analysis.report import format_mapping, format_table
from repro.cluster.launcher import LISTENING_BANNER, ClusterSpec, start_cluster
from repro.cluster.loadgen import (
    ClusterClient,
    poisson_load,
    replay_schedule,
    route_check,
)
from repro.cluster.metrics import (
    aggregate,
    latency_histogram,
    percentile,
    resilience_totals,
)
from repro.cluster.node import NodeConfig, NodeServer
from repro.cluster.resilience import RetryPolicy
from repro.cluster.transport import Address, FaultPlan
from repro.core.dynamic_allocation import DynamicAllocation
from repro.core.static_allocation import StaticAllocation
from repro.distsim.runner import run_protocol
from repro.kernel import schedule_breakdown
from repro.exceptions import ClusterError
from repro.model.schedule import Schedule
from repro.viz.ascii_plot import render_series
from repro.workloads import trace
from repro.workloads.uniform import UniformWorkload


def cmd_cluster_serve(args) -> int:
    """Run one node in the foreground until told to shut down."""
    config = NodeConfig(
        node_id=args.node_id,
        scheme=args.scheme,
        protocol=args.protocol.upper(),
        primary=args.primary,
        address=Address.parse(args.listen),
        state_dir=args.state_dir,
    )

    async def serve() -> None:
        node = NodeServer(config)
        address = await node.start()
        print(
            f"{LISTENING_BANNER} {node.node_id} {address.render()}",
            flush=True,
        )
        await node.serve_forever()

    try:
        asyncio.run(serve())
    except KeyboardInterrupt:  # pragma: no cover - interactive use
        pass
    return 0


def _resolve_schedule(args) -> Schedule:
    """Trace file > explicit schedule > seed-generated workload."""
    if args.trace:
        return trace.load(args.trace)
    if args.schedule:
        return Schedule.parse(args.schedule)
    generator = UniformWorkload(
        range(1, args.nodes + 1), args.length, args.write_fraction
    )
    return generator.generate(args.seed)


def _cluster_spec(args, schedule=None) -> ClusterSpec:
    processors = set(range(1, args.nodes + 1)) | set(args.scheme)
    if schedule is not None:
        processors |= set(request.processor for request in schedule)
    return ClusterSpec(
        processors=tuple(sorted(processors)),
        scheme=args.scheme,
        protocol=args.protocol.upper(),
        primary=args.primary,
        transport=args.transport,
        resilience=RetryPolicy(seed=args.seed),
        state_dir=args.state_dir,
    )


def _per_node_table(per_node) -> str:
    rows = [
        (
            node_id,
            metrics.control_sent,
            metrics.data_sent,
            metrics.io_reads + metrics.io_writes,
            metrics.requests_completed,
            metrics.request_errors,
            metrics.dropped_messages,
        )
        for node_id, metrics in sorted(per_node.items())
    ]
    return format_table(
        ["node", "ctrl out", "data out", "I/O", "served", "errors", "dropped"],
        rows,
        title="Per-node traffic",
    )


def _print_report(
    report: Dict[str, object], title: str, latencies: List[float], plot: bool
) -> None:
    """Print a command's report with the client-observed latency lines
    and, with ``--latency-plot``, their histogram."""
    if latencies:
        report["mean latency (s)"] = sum(latencies) / len(latencies)
        for rank in (50, 95, 99):
            report[f"p{rank} latency (s)"] = percentile(latencies, rank / 100)
        report["max latency (s)"] = max(latencies)
    print(format_mapping(report, title=title))
    if plot:
        print()
        print(
            render_series(
                latency_histogram(latencies),
                x_label="latency (s)",
                y_label="requests",
                title="Client-observed latency histogram",
            )
        )


def _stepped_algorithm(protocol: str, scheme, primary):
    if protocol.upper() == "SA":
        return StaticAllocation(scheme)
    return DynamicAllocation(scheme, primary=primary)


def cmd_cluster_run(args) -> int:
    schedule = _resolve_schedule(args)
    spec = _cluster_spec(args, schedule)
    route_check(schedule, spec.processors)
    faulted = args.delay_ms > 0

    async def drive():
        cluster = await start_cluster(spec, subprocesses=args.subprocess)
        client = ClusterClient(cluster.addresses, retry=spec.resilience)
        try:
            if faulted:
                await cluster.set_fault_plan(
                    FaultPlan(default_delay=args.delay_ms / 1000.0)
                )
            result = await replay_schedule(
                client, schedule, check_freshness=True
            )
            return result, await cluster.metrics()
        finally:
            await client.close()
            await cluster.stop()

    result, per_node = asyncio.run(drive())
    result.raise_on_errors()
    stats = aggregate(per_node.values())
    mode = "subprocess" if args.subprocess else "in-process"
    print(_per_node_table(per_node))
    print()
    _print_report(
        {
            "protocol": spec.protocol,
            "nodes": len(spec.processors),
            "mode": mode,
            "requests": stats.requests_completed,
            "control messages": stats.control_messages,
            "data messages": stats.data_messages,
            "I/O operations": stats.io_reads + stats.io_writes,
            "dropped messages": stats.dropped_messages,
        },
        f"Live cluster replay of {len(schedule)} requests",
        result.latencies,
        args.latency_plot,
    )
    print()
    print(
        format_mapping(
            resilience_totals(per_node.values()),
            title="Resilience counters (kept out of charged totals)",
        )
    )
    if args.check_parity:
        algorithm = _stepped_algorithm(
            spec.protocol, spec.scheme, spec.primary
        )
        stepped = algorithm.run(schedule).total_breakdown()
        simulated = run_protocol(
            spec.protocol, schedule, spec.scheme, primary=spec.primary
        ).breakdown()
        kernel = schedule_breakdown(algorithm, schedule)
        live = stats.breakdown()
        print()
        if live == stepped == simulated == kernel:
            print(
                f"parity OK: live == stepped == simulated == kernel ({live})"
                + (" with injected delays" if faulted else "")
            )
        else:
            print(
                "PARITY MISMATCH:\n"
                f"  live      {live}\n"
                f"  stepped   {stepped}\n"
                f"  simulated {simulated}\n"
                f"  kernel    {kernel}",
                file=sys.stderr,
            )
            return 1
    return 0


def cmd_cluster_bench(args) -> int:
    if args.rate <= 0:
        raise ClusterError("--rate must be positive")
    spec = _cluster_spec(args)

    async def drive():
        cluster = await start_cluster(spec, subprocesses=args.subprocess)
        client = ClusterClient(cluster.addresses, retry=spec.resilience)
        try:
            if args.delay_ms > 0:
                await cluster.set_fault_plan(
                    FaultPlan(default_delay=args.delay_ms / 1000.0)
                )
            started = time.monotonic()
            result = await poisson_load(
                client,
                spec.processors,
                count=args.count,
                rate=args.rate,
                write_fraction=args.write_fraction,
                seed=args.seed,
            )
            elapsed = time.monotonic() - started
            stats = await cluster.aggregate_stats()
            return result, stats, elapsed
        finally:
            await client.close()
            await cluster.stop()

    result, stats, elapsed = asyncio.run(drive())
    _print_report(
        {
            "protocol": spec.protocol,
            "nodes": len(spec.processors),
            "offered rate (req/s)": args.rate,
            "completed": result.completed,
            "errors": result.errors,
            "elapsed (s)": round(elapsed, 3),
            "throughput (req/s)": (
                round(result.completed / elapsed, 2) if elapsed > 0 else None
            ),
            "control messages": stats.control_messages,
            "data messages": stats.data_messages,
            "I/O operations": stats.io_reads + stats.io_writes,
        },
        f"Open-loop Poisson bench, {args.count} requests",
        result.latencies,
        args.latency_plot,
    )
    return 0


def _non_negative_float(text: str) -> float:
    """An argparse type: a finite number no less than zero."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(
            f"expected a finite non-negative number, got {text!r}"
        )
    return value


def add_cluster_parser(subparsers, scheme_type) -> None:
    """Register the ``cluster`` subcommand tree on the root parser."""
    cluster = subparsers.add_parser(
        "cluster", help="live asyncio replica cluster (SA/DA over sockets)"
    )
    leaves = cluster.add_subparsers(dest="cluster_command", required=True)

    def _common(parser, with_nodes: bool = True) -> None:
        parser.add_argument(
            "--protocol", choices=["SA", "DA", "sa", "da"], default="DA"
        )
        parser.add_argument(
            "--scheme", type=scheme_type, default=frozenset({1, 2}),
            help="initial allocation scheme, e.g. 1,2",
        )
        parser.add_argument(
            "--primary", type=int, default=None,
            help="DA primary processor (default: max of the scheme)",
        )
        parser.add_argument(
            "--state-dir", default=None,
            help="root directory for per-node WAL + snapshots "
                 "(enables durability; see docs/durability.md)",
        )
        if with_nodes:
            parser.add_argument(
                "--nodes", type=int, default=3,
                help="processor count (grown to cover the scheme/trace)",
            )
            parser.add_argument(
                "--transport", choices=["auto", "unix", "tcp"],
                default="auto",
                help="socket flavour (auto = unix where available)",
            )
            parser.add_argument(
                "--subprocess", action="store_true",
                help="one OS process per node instead of in-process",
            )
            parser.add_argument(
                "--delay-ms", type=_non_negative_float, default=0.0,
                help="inject this per-message delay on every link",
            )
            parser.add_argument(
                "--latency-plot", action="store_true",
                help="ASCII histogram of client-observed latencies",
            )

    serve = leaves.add_parser("serve", help="run one node in the foreground")
    _common(serve, with_nodes=False)
    serve.add_argument("--node-id", type=int, required=True)
    serve.add_argument(
        "--listen", required=True,
        help="listen address: tcp:HOST:PORT (0 = ephemeral) or unix:/path",
    )
    serve.set_defaults(handler=cmd_cluster_serve)

    run = leaves.add_parser(
        "run", help="replay a schedule against a live cluster"
    )
    _common(run)
    run.add_argument("--schedule", help='e.g. "r5 r5 w1 r5"')
    run.add_argument("--trace", help="trace file (see `repro workload`)")
    run.add_argument(
        "--seed", type=int, default=0,
        help="generate a uniform workload with this seed "
             "(when no --schedule/--trace)",
    )
    run.add_argument(
        "--length", type=int, default=100,
        help="generated workload length",
    )
    run.add_argument(
        "--write-fraction", type=float, default=0.2,
        help="generated workload write fraction",
    )
    run.add_argument(
        "--check-parity", action="store_true",
        help="exit 1 unless live counts == stepped == simulated == kernel",
    )
    run.set_defaults(handler=cmd_cluster_run)

    bench = leaves.add_parser(
        "bench", help="open-loop Poisson load against a live cluster"
    )
    _common(bench)
    bench.add_argument("--count", type=int, default=200,
                       help="number of requests")
    bench.add_argument("--rate", type=_non_negative_float, default=200.0,
                       help="Poisson arrival rate, requests/second")
    bench.add_argument("--write-fraction", type=float, default=0.2)
    bench.add_argument("--seed", type=int, default=0)
    bench.set_defaults(handler=cmd_cluster_bench)
