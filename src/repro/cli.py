"""Command-line interface: explore the paper from a shell.

Subcommands
-----------

``repro bounds``     the theorem bounds and Figure 1/2 classification
                     at one (c_c, c_d) point.
``repro compare``    run SA/DA/baselines and the exact optimum on a
                     schedule, print costs and ratios.
``repro regions``    print the Figure 1 or Figure 2 region map
                     (theoretical, or measured with ``--empirical``).
``repro simulate``   run a schedule through the discrete-event SA/DA
                     protocol and print the counted traffic.
``repro workload``   generate a workload trace in the paper's notation.
``repro expected``   expected-cost table under the i.i.d. workload and
                     the analytic SA/DA crossover.
``repro availability`` exact ROWA vs quorum availability for fail-stop
                     nodes, plus the best (r, w) pair for the mix.
``repro describe``   structural statistics of a schedule or trace file
                     and the shape-based SA/DA hint.
``repro calibrate``  map hardware numbers (bytes, bandwidth, latency,
                     disk time — or a wireless tariff) onto the model's
                     (c_c, c_d) point and quote Figure 1/2's verdict.
``repro sweep``      measure algorithms across a parameter grid through
                     the parallel experiment engine (``--workers N``,
                     ``--cache-dir`` for resumable grids), with table,
                     CSV and ASCII-plot output.
``repro bench``      time the stepped path vs the vectorized kernel
                     (``--smoke`` for the CI-sized run, ``--check`` to
                     exit non-zero if the kernel is slower or costs
                     diverge, ``--out`` for a JSON report).
``repro cluster``    live asyncio replica cluster: ``serve`` one node,
                     ``run`` a schedule against N nodes over real
                     sockets (``--check-parity`` verifies live counts
                     against the stepped model and the simulator), or
                     ``bench`` it with open-loop Poisson load.
``repro chaos``      seeded fault injection against a live cluster:
                     crashes with repair, message drops, partitions —
                     replayable from a seed, exits non-zero on any
                     invariant violation (see docs/chaos.md).

Every command writes plain text to stdout; ``repro workload --out``
writes a trace file loadable with ``repro compare --trace``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.analysis.availability import (
    best_quorums,
    quorum_availability,
    rowa_read_availability,
    rowa_write_availability,
)
from repro.analysis.calibration import (
    MobileTariff,
    StationaryHardware,
    advise_mobile,
    advise_stationary,
)
from repro.analysis.bounds import (
    da_competitive_factor,
    da_lower_bound,
    sa_competitive_factor,
)
from repro.analysis.expected_cost import (
    analytic_crossover_write_fraction,
    expected_cost_table,
)
from repro.analysis.regions import (
    classify_mobile,
    classify_stationary,
    empirical_map,
    theoretical_map,
)
from repro.analysis.report import format_mapping, format_table
from repro.analysis.sweep import sweep
from repro.chaos.commands import add_chaos_parser
from repro.cluster.commands import add_cluster_parser
from repro.core.competitive import CompetitivenessHarness
from repro.core.factory import ALGORITHM_NAMES, algorithm_factory, make_algorithm
from repro.distsim.runner import run_protocol
from repro.engine import ExperimentEngine, ResultCache, derive_seed
from repro.exceptions import ReproError
from repro.model.cost_model import CostModel, mobile, stationary
from repro.model.schedule import Schedule
from repro.viz.ascii_plot import render_region_map, render_series
from repro.viz.csv_export import sweep_to_csv, write_csv
from repro.workloads import trace
from repro.workloads.adversarial import adversarial_suite
from repro.workloads.hotspot import ZipfWorkload
from repro.workloads.markov import MarkovWorkload
from repro.workloads.mobility import MobileLocationWorkload
from repro.workloads.uniform import UniformWorkload


def _model(args) -> CostModel:
    if args.mobile:
        return mobile(args.cc, args.cd)
    return stationary(args.cc, args.cd)


def _scheme(text: str) -> frozenset:
    try:
        return frozenset(int(item) for item in text.split(","))
    except ValueError as error:
        raise argparse.ArgumentTypeError(f"bad scheme {text!r}") from error


def _add_model_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--cc", type=float, default=0.2,
                        help="control-message cost c_c (default 0.2)")
    parser.add_argument("--cd", type=float, default=1.5,
                        help="data-message cost c_d (default 1.5)")
    parser.add_argument("--mobile", action="store_true",
                        help="mobile-computing model (c_io = 0)")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError as error:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}"
        ) from error
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {value}"
        )
    return value


def _comma_floats(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(item) for item in text.split(",") if item.strip())
    except ValueError as error:
        raise argparse.ArgumentTypeError(
            f"bad value list {text!r} (expected comma-separated numbers)"
        ) from error
    if not values:
        raise argparse.ArgumentTypeError("the value list is empty")
    return values


def _add_engine_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers", type=_positive_int, default=1,
        help="worker processes (1 = serial; results are identical)",
    )
    parser.add_argument(
        "--chunksize", type=_positive_int, default=1,
        help="tasks per worker submission (scheduling only)",
    )
    parser.add_argument(
        "--cache-dir", default=None,
        help="directory for the on-disk result cache (resumable grids)",
    )
    parser.add_argument(
        "--progress", action="store_true",
        help="print tasks-done/rate/ETA to stderr",
    )


def _engine(args) -> ExperimentEngine:
    """Build the experiment engine from (possibly absent) CLI flags."""
    cache_dir = getattr(args, "cache_dir", None)
    return ExperimentEngine(
        max_workers=getattr(args, "workers", 1),
        cache=ResultCache(cache_dir) if cache_dir else None,
        chunksize=getattr(args, "chunksize", 1),
        progress=getattr(args, "progress", False),
        progress_label=f"repro {args.command}",
    )


def cmd_bounds(args) -> int:
    model = _model(args)
    classify = classify_mobile if args.mobile else classify_stationary
    print(
        format_mapping(
            {
                "model": str(model),
                "SA factor (Thm 1 / Prop 3)": sa_competitive_factor(model),
                "DA upper bound (Thm 2/3/4)": da_competitive_factor(model),
                "DA lower bound (Prop 2)": da_lower_bound(model),
                "region": classify(args.cc, args.cd).value,
            },
            title=f"Bounds at c_c={args.cc}, c_d={args.cd}",
        )
    )
    return 0


def cmd_compare(args) -> int:
    model = _model(args)
    if args.trace:
        schedule = trace.load(args.trace)
    elif args.schedule:
        schedule = Schedule.parse(args.schedule)
    else:
        print("compare: provide --schedule or --trace", file=sys.stderr)
        return 2
    scheme = args.scheme
    harness = CompetitivenessHarness(model, threshold=len(scheme))
    rows = []
    for name in args.algorithms.split(","):
        algorithm = make_algorithm(name.strip(), scheme, cost_model=model)
        observation = harness.observe(algorithm, schedule)
        rows.append(
            (
                algorithm.name,
                observation.algorithm_cost,
                observation.reference_cost,
                observation.ratio,
                "exact" if observation.exact_reference else "lower-bound",
            )
        )
    print(
        format_table(
            ["algorithm", "cost", "OPT", "ratio", "reference"],
            rows,
            title=f"{model}, scheme {sorted(scheme)}, {len(schedule)} requests",
        )
    )
    return 0


def cmd_regions(args) -> int:
    if args.empirical:
        scheme = frozenset({1, 2})
        suite = adversarial_suite(scheme, [5, 6, 7], rounds=4)
        suite += UniformWorkload(range(1, 8), 20, 0.3).batch(2, seed=42)
        region_map = empirical_map(
            suite, scheme, mobile_model=args.mobile, steps=args.steps,
            engine=_engine(args),
        )
        flavor = "measured"
    else:
        region_map = theoretical_map(mobile_model=args.mobile, steps=args.steps)
        flavor = "theory"
    figure = "Figure 2" if args.mobile else "Figure 1"
    print(render_region_map(region_map, title=f"{figure} ({flavor})"))
    return 0


def cmd_simulate(args) -> int:
    model = _model(args)
    if args.trace:
        schedule = trace.load(args.trace)
    elif args.seed is not None:
        # A seeded uniform workload: reproducible without a trace file.
        schedule = UniformWorkload(
            range(1, args.processors + 1), args.length, args.write_fraction
        ).generate(args.seed)
    else:
        schedule = Schedule.parse(args.schedule)
    stats = run_protocol(args.protocol, schedule, args.scheme)
    print(
        format_mapping(
            {
                "protocol": args.protocol.upper(),
                "requests": stats.requests_completed,
                "control messages": stats.control_messages,
                "data messages": stats.data_messages,
                "I/O operations": stats.io_reads + stats.io_writes,
                "priced cost": stats.cost(model),
                "mean latency": stats.mean_latency,
                "max latency": stats.max_latency,
            },
            title=f"Discrete-event simulation under {model}",
        )
    )
    return 0


def cmd_workload(args) -> int:
    processors = range(1, args.processors + 1)
    if args.kind == "uniform":
        generator = UniformWorkload(processors, args.length, args.write_fraction)
    elif args.kind == "zipf":
        generator = ZipfWorkload(
            processors, args.length, args.write_fraction, exponent=args.skew
        )
    elif args.kind == "markov":
        generator = MarkovWorkload(
            processors, args.length, args.write_fraction,
            stickiness=args.stickiness, locality=args.locality,
        )
    else:  # mobile
        cells = list(processors)[: max(1, args.processors // 2)]
        callers = list(processors)[max(1, args.processors // 2):] or cells
        generator = MobileLocationWorkload(
            cells, callers, args.length, move_probability=args.write_fraction
        )
    schedule = generator.generate(args.seed)
    text = trace.dumps(schedule)
    if args.out:
        trace.save(schedule, args.out)
        print(f"wrote {len(schedule)} requests to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_expected(args) -> int:
    model = _model(args)
    engine = _engine(args)
    rows = expected_cost_table(
        model, args.n, args.t, [step / 10 for step in range(0, 11)],
        engine=engine,
    )
    body = format_table(
        ["write fraction", "SA E[cost]", "DA E[cost]"],
        rows,
        title=f"Expected per-request cost, n={args.n}, t={args.t}, {model}",
    )
    print(body)
    crossover = analytic_crossover_write_fraction(
        model, args.n, args.t, engine=engine
    )
    if crossover is None:
        print("\nno SA/DA crossover in [0, 1]")
    else:
        print(f"\nanalytic crossover at write fraction ~ {crossover:.4f}")
    return 0


def cmd_availability(args) -> int:
    votes = [1] * args.n
    majority = args.n // 2 + 1
    rows = []
    for t in range(2, args.n + 1):
        rows.append(
            (
                t,
                rowa_read_availability(args.p, t),
                rowa_write_availability(args.p, t),
            )
        )
    print(
        format_table(
            ["t (copies)", "ROWA read avail", "ROWA write avail"],
            rows,
            title=f"ROWA availability, node up-probability {args.p}",
            float_format="{:.5f}",
        )
    )
    quorum = quorum_availability(args.p, votes, majority)
    print(
        f"\nmajority quorum ({majority} of {args.n}) availability: "
        f"{quorum:.5f} for reads and writes alike"
    )
    choice = best_quorums(args.p, votes, args.write_fraction)
    print(
        f"best quorums for write fraction {args.write_fraction}: "
        f"r={choice.read_quorum}, w={choice.write_quorum} "
        f"(availability {choice.mixed_availability:.5f})"
    )
    return 0


def cmd_describe(args) -> int:
    from repro.workloads.stats import describe as describe_schedule

    if args.trace:
        schedule = trace.load(args.trace)
    elif args.schedule:
        schedule = Schedule.parse(args.schedule)
    else:
        print("describe: provide --schedule or --trace", file=sys.stderr)
        return 2
    print(describe_schedule(schedule))
    return 0


def cmd_calibrate(args) -> int:
    if args.tariff:
        advice = advise_mobile(
            MobileTariff(
                per_message_fee=args.per_message_fee,
                per_kilobyte_fee=args.per_kilobyte_fee,
                control_bytes=args.control_bytes,
                object_bytes=args.object_bytes,
            )
        )
    else:
        advice = advise_stationary(
            StationaryHardware(
                control_bytes=args.control_bytes,
                object_bytes=args.object_bytes,
                bandwidth_bytes_per_ms=args.bandwidth,
                one_way_latency_ms=args.latency,
                io_service_ms=args.io_ms,
            )
        )
    print(
        format_mapping(
            {
                "calibrated model": str(advice.model),
                "c_c": advice.model.c_c,
                "c_d": advice.model.c_d,
                "Figure 1/2 region": advice.region.value,
            },
            title="Calibration",
        )
    )
    print(f"\nrecommendation: {advice.recommendation}")
    return 0


#: Knobs `repro sweep` can scan.  ``c_c``/``c_d`` move the cost model;
#: ``write_fraction`` moves the workload.
SWEEP_PARAMETERS = ("c_c", "c_d", "write_fraction")


def cmd_sweep(args) -> int:
    values = args.values
    scheme = args.scheme
    processors = range(1, args.processors + 1)
    algorithms = [name.strip() for name in args.algorithms.split(",")]

    def model_for(value: float) -> CostModel:
        c_c, c_d = args.cc, args.cd
        if args.parameter == "c_c":
            c_c = value
        elif args.parameter == "c_d":
            c_d = value
        return mobile(c_c, c_d) if args.mobile else stationary(c_c, c_d)

    def schedules_for(value: float):
        write_fraction = (
            value if args.parameter == "write_fraction"
            else args.write_fraction
        )
        generator = UniformWorkload(processors, args.length, write_fraction)
        # Seeds derive from (root seed, value position): deterministic
        # per point, independent across points.
        index = values.index(value)
        return generator.batch_independent(
            args.schedules, root_seed=derive_seed(args.seed, index, "sweep")
        )

    def factories_for(value: float):
        model = model_for(value)
        return {
            name: algorithm_factory(name, scheme, cost_model=model)
            for name in algorithms
        }

    result = sweep(
        args.parameter,
        values,
        factories_for,
        schedules_for,
        model_for,
        threshold_for=lambda value: len(scheme),
        engine=_engine(args),
    )

    names = result.algorithms()
    header = [args.parameter]
    header += [f"{name} max ratio" for name in names]
    header += [f"{name} mean cost" for name in names]
    rows = []
    for row in result.rows:
        record = [row.parameter]
        record += [row.max_ratios[name] for name in names]
        record += [row.mean_costs[name] for name in names]
        rows.append(tuple(record))
    flavor = "MC" if args.mobile else "SC"
    print(
        format_table(
            header,
            rows,
            title=(
                f"Sweep of {args.parameter} over {len(values)} points "
                f"({flavor} model, {args.schedules} x {args.length}-request "
                f"uniform schedules per point, seed {args.seed})"
            ),
        )
    )
    if args.csv:
        write_csv(sweep_to_csv(result), args.csv)
        print(f"\nwrote CSV to {args.csv}")
    if args.plot:
        for name in names:
            print()
            print(
                render_series(
                    result.series(name),
                    x_label=args.parameter,
                    y_label="max ratio",
                    title=f"{name}: worst measured ratio vs {args.parameter}",
                )
            )
    return 0


def cmd_bench(args) -> int:
    from repro.kernel.bench import format_result, run_kernel_bench, write_result

    result = run_kernel_bench(
        smoke=args.smoke,
        seed=args.seed,
        write_fraction=args.write_fraction,
        model=_model(args),
    )
    print(format_result(result))
    if args.out:
        write_result(result, args.out)
        print(f"\nwrote JSON report to {args.out}")
    if args.check and not result["check_passed"]:
        print(
            "bench: kernel slower than stepped or costs diverged",
            file=sys.stderr,
        )
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Huang & Wolfson (ICDE 1994) object allocation toolkit",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    bounds = subparsers.add_parser("bounds", help="theorem bounds at a point")
    _add_model_arguments(bounds)
    bounds.set_defaults(handler=cmd_bounds)

    compare = subparsers.add_parser("compare", help="algorithms vs OPT")
    _add_model_arguments(compare)
    compare.add_argument("--schedule", help='e.g. "r5 r5 w1 r5"')
    compare.add_argument("--trace", help="trace file (see `repro workload`)")
    compare.add_argument(
        "--scheme", type=_scheme, default=frozenset({1, 2}),
        help="initial allocation scheme, e.g. 1,2",
    )
    compare.add_argument(
        "--algorithms", default="SA,DA",
        help=f"comma list from {','.join(ALGORITHM_NAMES)}",
    )
    compare.set_defaults(handler=cmd_compare)

    regions = subparsers.add_parser("regions", help="Figure 1/2 region maps")
    regions.add_argument("--mobile", action="store_true")
    regions.add_argument("--steps", type=int, default=9)
    regions.add_argument(
        "--empirical", action="store_true",
        help="measure winners instead of quoting the bounds",
    )
    _add_engine_arguments(regions)
    regions.set_defaults(handler=cmd_regions)

    simulate = subparsers.add_parser(
        "simulate", help="discrete-event protocol run"
    )
    _add_model_arguments(simulate)
    simulate.add_argument("--schedule", default="r5 r5 w1 r5")
    simulate.add_argument("--trace")
    simulate.add_argument("--scheme", type=_scheme, default=frozenset({1, 2}))
    simulate.add_argument(
        "--protocol", choices=["SA", "DA", "sa", "da"], default="DA"
    )
    simulate.add_argument(
        "--seed", type=int, default=None,
        help="generate a seeded uniform workload instead of --schedule",
    )
    simulate.add_argument(
        "--processors", type=_positive_int, default=6,
        help="processor count for the seeded workload",
    )
    simulate.add_argument(
        "--length", type=_positive_int, default=100,
        help="request count for the seeded workload",
    )
    simulate.add_argument(
        "--write-fraction", type=float, default=0.2,
        help="write fraction for the seeded workload",
    )
    simulate.set_defaults(handler=cmd_simulate)

    workload = subparsers.add_parser("workload", help="generate a trace")
    workload.add_argument(
        "--kind", choices=["uniform", "zipf", "markov", "mobile"],
        default="uniform",
    )
    workload.add_argument("--processors", type=int, default=8)
    workload.add_argument("--length", type=int, default=100)
    workload.add_argument("--write-fraction", type=float, default=0.2)
    workload.add_argument("--skew", type=float, default=1.0,
                          help="zipf exponent")
    workload.add_argument("--stickiness", type=float, default=0.95)
    workload.add_argument("--locality", type=float, default=0.8)
    workload.add_argument("--seed", type=int, default=0)
    workload.add_argument("--out", help="write the trace to a file")
    workload.set_defaults(handler=cmd_workload)

    expected = subparsers.add_parser(
        "expected", help="expected costs under the i.i.d. workload"
    )
    _add_model_arguments(expected)
    expected.add_argument("--n", type=int, default=8,
                          help="number of processors")
    expected.add_argument("--t", type=int, default=2,
                          help="availability threshold")
    _add_engine_arguments(expected)
    expected.set_defaults(handler=cmd_expected)

    sweep_parser = subparsers.add_parser(
        "sweep", help="parameter sweep through the experiment engine"
    )
    _add_model_arguments(sweep_parser)
    sweep_parser.add_argument(
        "--parameter", required=True, choices=SWEEP_PARAMETERS,
        help="the knob to sweep",
    )
    sweep_parser.add_argument(
        "--values", required=True, type=_comma_floats,
        help="comma-separated parameter values, e.g. 0.25,0.5,1.0",
    )
    sweep_parser.add_argument(
        "--algorithms", default="SA,DA",
        help=f"comma list from {','.join(ALGORITHM_NAMES)}",
    )
    sweep_parser.add_argument(
        "--scheme", type=_scheme, default=frozenset({1, 2}),
        help="initial allocation scheme, e.g. 1,2 (t = its size)",
    )
    sweep_parser.add_argument("--processors", type=_positive_int, default=6,
                              help="workload processor count")
    sweep_parser.add_argument("--length", type=_positive_int, default=12,
                              help="requests per schedule")
    sweep_parser.add_argument("--schedules", type=_positive_int, default=3,
                              help="schedules per grid point")
    sweep_parser.add_argument("--write-fraction", type=float, default=0.2,
                              help="write fraction when not swept")
    sweep_parser.add_argument("--seed", type=int, default=0,
                              help="root seed for the workload suite")
    sweep_parser.add_argument("--csv", help="also write the sweep as CSV")
    sweep_parser.add_argument("--plot", action="store_true",
                              help="ASCII chart of each algorithm's ratios")
    _add_engine_arguments(sweep_parser)
    sweep_parser.set_defaults(handler=cmd_sweep)

    bench = subparsers.add_parser(
        "bench", help="stepped vs kernel timing harness"
    )
    _add_model_arguments(bench)
    bench.add_argument(
        "--smoke", action="store_true",
        help="CI-sized run (seconds, not minutes)",
    )
    bench.add_argument(
        "--check", action="store_true",
        help="exit 1 if the kernel is slower than stepping or costs diverge",
    )
    bench.add_argument("--out", help="write the JSON report here")
    bench.add_argument("--seed", type=int, default=0,
                       help="root seed for the benchmark workload")
    bench.add_argument("--write-fraction", type=float, default=0.2,
                       help="workload write fraction")
    bench.set_defaults(handler=cmd_bench)

    availability = subparsers.add_parser(
        "availability", help="ROWA vs quorum availability"
    )
    availability.add_argument("--p", type=float, default=0.9,
                              help="per-node up probability")
    availability.add_argument("--n", type=int, default=5,
                              help="number of processors")
    availability.add_argument("--write-fraction", type=float, default=0.2)
    availability.set_defaults(handler=cmd_availability)

    describe = subparsers.add_parser(
        "describe", help="structural statistics of a schedule"
    )
    describe.add_argument("--schedule", help='e.g. "r5 r5 w1 r5"')
    describe.add_argument("--trace", help="trace file")
    describe.set_defaults(handler=cmd_describe)

    calibrate = subparsers.add_parser(
        "calibrate", help="hardware numbers -> (c_c, c_d) + a verdict"
    )
    calibrate.add_argument("--tariff", action="store_true",
                           help="wireless billing (mobile model)")
    calibrate.add_argument("--control-bytes", type=float, default=64.0)
    calibrate.add_argument("--object-bytes", type=float, default=8192.0)
    calibrate.add_argument("--bandwidth", type=float, default=12_500.0,
                           help="bytes per millisecond (wired)")
    calibrate.add_argument("--latency", type=float, default=0.5,
                           help="one-way latency in ms (wired)")
    calibrate.add_argument("--io-ms", type=float, default=8.0,
                           help="disk service time in ms (wired)")
    calibrate.add_argument("--per-message-fee", type=float, default=0.05)
    calibrate.add_argument("--per-kilobyte-fee", type=float, default=0.01)
    calibrate.set_defaults(handler=cmd_calibrate)

    add_cluster_parser(subparsers, _scheme)
    add_chaos_parser(subparsers)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Output piped into a pager/head that closed early: not an error.
        try:
            sys.stdout.close()
        except Exception:
            pass
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
