"""`repro chaos` — seeded fault injection against a live cluster.

One leaf command: generate a deterministic fault plan from the seed,
replay a seeded workload while the plan fires, repair after every
event, and exit non-zero if any invariant (read freshness, no lost
acknowledged writes, ``t``-availability, DA join-list consistency,
every request settled) was violated.  ``--plan-only`` prints the
schedule without running it — useful for inspecting what a seed would
do before replaying it.
"""

from __future__ import annotations

import asyncio
import json

from repro.chaos.harness import ChaosConfig, run_chaos


def cmd_chaos(args) -> int:
    config = ChaosConfig(
        protocol=args.protocol.upper(),
        nodes=args.nodes,
        t=args.t,
        requests=args.requests,
        write_fraction=args.write_fraction,
        seed=args.seed,
        crashes=args.crashes,
        partitions=args.partitions,
        drop_bursts=args.drop_bursts,
        drop_probability=args.drop_probability,
        attempts=args.attempts,
        transport=args.transport,
        durable=args.durable,
        state_dir=args.state_dir,
        torn_writes=args.torn_writes,
    )
    if args.plan_only:
        plan = config.build_plan()
        if args.plan_json:
            print(json.dumps(plan.to_wire(), indent=2, sort_keys=True))
        else:
            print(plan.describe())
        return 0
    result = asyncio.run(run_chaos(config))
    print(result.describe())
    return 0 if result.ok else 1


def add_chaos_parser(subparsers) -> None:
    """Register the ``chaos`` subcommand on the root parser."""
    chaos = subparsers.add_parser(
        "chaos",
        help="seeded fault injection with invariant checking "
             "(crashes, drops, partitions + scheme repair)",
    )
    chaos.add_argument(
        "--protocol", choices=["SA", "DA", "sa", "da"], default="DA"
    )
    chaos.add_argument(
        "--nodes", type=int, default=5, help="processor count"
    )
    chaos.add_argument(
        "--t", type=int, default=2,
        help="availability threshold; the scheme is processors 1..t",
    )
    chaos.add_argument(
        "--requests", type=int, default=200,
        help="workload length (closed loop)",
    )
    chaos.add_argument("--write-fraction", type=float, default=0.3)
    chaos.add_argument(
        "--seed", type=int, default=0,
        help="drives the fault plan, the workload and every retry/drop "
             "decision — replaying a seed replays the run",
    )
    chaos.add_argument(
        "--crashes", type=int, default=None,
        help="crash/recovery pairs (default: scales with --requests)",
    )
    chaos.add_argument(
        "--partitions", type=int, default=1,
        help="partition windows (minority side drawn from non-scheme "
             "nodes; 0 disables)",
    )
    chaos.add_argument(
        "--drop-bursts", type=int, default=None,
        help="deterministic drop-next bursts (default: scales)",
    )
    chaos.add_argument(
        "--drop-probability", type=float, default=0.02,
        help="ambient per-message drop probability",
    )
    chaos.add_argument(
        "--attempts", type=int, default=4,
        help="transmissions per message (1 send + N-1 retries)",
    )
    chaos.add_argument(
        "--transport", choices=["auto", "unix", "tcp"], default="auto"
    )
    chaos.add_argument(
        "--durable", action="store_true",
        help="give every node a WAL + snapshots; recoveries take the "
             "tiered log-replay path (see docs/durability.md)",
    )
    chaos.add_argument(
        "--state-dir", default=None,
        help="root for the per-node WALs (implies --durable; default: "
             "a temp dir owned by the run)",
    )
    chaos.add_argument(
        "--torn-writes", type=int, default=None,
        help="damaged-log events (torn tails / flipped bytes) on "
             "crashed nodes' WALs; needs --durable "
             "(default: 2 when durable, else 0)",
    )
    chaos.add_argument(
        "--plan-only", action="store_true",
        help="print the generated fault schedule and exit",
    )
    chaos.add_argument(
        "--plan-json", action="store_true",
        help="with --plan-only: emit the plan as versioned JSON "
             "(ChaosPlan.to_wire, replayable across releases)",
    )
    chaos.set_defaults(handler=cmd_chaos)
