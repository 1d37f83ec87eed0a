"""Timing harness: stepped object path vs the vectorized kernel.

Produces the numbers behind ``BENCH_kernel.json``: requests/second of
the stepped :class:`~repro.core.base.OnlineDOM` path and of the kernel
on the same batch (SA and DA separately, costs cross-checked for exact
equality), plus the wall time of the rewritten offline-optimal DP on a
full-width universe.  The CI perf-smoke job runs the same harness in
``smoke`` mode (small batch, 10-processor DP) and fails the build if
the kernel is ever *slower* than stepping; the full-size run lives in
``benchmarks/perf/`` and asserts the 5x bar.

Each algorithm's entry splits the kernel path by layer:
``generate_seconds`` (drawing the batch from the seed, which both paths
need; it builds no ``Request``, since a generated schedule holds only
its columns until read, so the stepped timing pays for materializing
the request tuples), ``compile_seconds`` (:func:`compile_batch`) and
``evaluate_seconds`` (per-request counts plus per-trace totals).
``kernel_seconds`` is compile plus evaluate, so the speedups reported
here include compilation and are not eval-only.
"""

from __future__ import annotations

import json
import random
import time
from pathlib import Path
from typing import Dict, List

from repro.core.dynamic_allocation import DynamicAllocation
from repro.core.offline_optimal import OfflineOptimal
from repro.core.static_allocation import StaticAllocation
from repro.kernel.compile import compile_batch
from repro.kernel.dispatch import batch_costs
from repro.model.cost_model import CostModel, stationary
from repro.model.request import read, write
from repro.model.schedule import Schedule
from repro.workloads.uniform import UniformWorkload

#: Full-size configuration: the acceptance batch (10k requests x 32
#: replications) and the 14-processor DP the rewrite makes practical.
FULL = {
    "batch_size": 32,
    "length": 10_000,
    "processors": 16,
    "dp_processors": 14,
    "dp_requests": 60,
}

#: Smoke configuration for CI: same shape, seconds not minutes.
SMOKE = {
    "batch_size": 8,
    "length": 400,
    "processors": 8,
    "dp_processors": 10,
    "dp_requests": 30,
}


def _dp_schedule(processors: int, requests: int, seed: int) -> Schedule:
    """A schedule whose universe is exactly ``processors`` wide: one
    read per processor up front, then a random 25%-write tail."""
    rng = random.Random(seed)
    items = [read(p) for p in range(1, processors + 1)]
    while len(items) < requests:
        issuer = rng.randint(1, processors)
        items.append(write(issuer) if rng.random() < 0.25 else read(issuer))
    return Schedule(tuple(items))


def _time_stepped(
    make_algorithm, schedules: List[Schedule], model: CostModel
) -> tuple[float, List[float]]:
    start = time.perf_counter()
    costs = [
        model.schedule_cost(make_algorithm().run(schedule))
        for schedule in schedules
    ]
    return time.perf_counter() - start, costs


def _time_kernel(
    algorithm, schedules: List[Schedule], model: CostModel
) -> tuple[float, float, List[float]]:
    """``(compile seconds, evaluate seconds, per-trace totals)``."""
    start = time.perf_counter()
    batch = compile_batch(schedules, algorithm.initial_scheme)
    compiled = time.perf_counter()
    costs = batch_costs(algorithm, schedules, model, batch)
    return compiled - start, time.perf_counter() - compiled, costs


def run_kernel_bench(
    smoke: bool = False,
    seed: int = 0,
    write_fraction: float = 0.2,
    model: CostModel | None = None,
) -> Dict:
    """Time stepped vs kernel on one batch, and the DP on a full universe.

    Returns a JSON-ready dict; ``check_passed`` is True iff the kernel
    beat the stepped path on both algorithms and all costs matched
    exactly.
    """
    config = dict(SMOKE if smoke else FULL)
    config.update(
        {"smoke": smoke, "seed": seed, "write_fraction": write_fraction}
    )
    model = model or stationary(0.2, 1.5)
    generator = UniformWorkload(
        range(1, config["processors"] + 1), config["length"], write_fraction
    )
    scheme = frozenset({1, 2})
    total_requests = config["batch_size"] * config["length"]

    algorithms = (
        ("SA", lambda: StaticAllocation(scheme)),
        ("DA", lambda: DynamicAllocation(scheme)),
    )
    # Price one smoke-shaped batch untimed first, as perfbench's set-up
    # does, so that first calls are not timed on the first algorithm.
    warm_up = UniformWorkload(
        range(1, SMOKE["processors"] + 1), SMOKE["length"], write_fraction
    ).batch_independent(SMOKE["batch_size"], root_seed=seed + 1)
    for _, factory in algorithms:
        _time_stepped(factory, warm_up, model)
        _time_kernel(factory(), warm_up, model)

    result: Dict = {"config": config, "model": str(model), "algorithms": {}}
    all_match = True
    all_faster = True
    for name, factory in algorithms:
        # Each algorithm draws its own (identical) batch, so its compile
        # starts from a fresh generator output, as in a sweep.
        start = time.perf_counter()
        schedules = generator.batch_independent(
            config["batch_size"], root_seed=seed
        )
        generate_seconds = time.perf_counter() - start
        stepped_seconds, stepped_costs = _time_stepped(
            factory, schedules, model
        )
        compile_seconds, evaluate_seconds, kernel_costs = _time_kernel(
            factory(), schedules, model
        )
        kernel_seconds = compile_seconds + evaluate_seconds
        match = stepped_costs == kernel_costs
        speedup = (
            stepped_seconds / kernel_seconds if kernel_seconds > 0 else float("inf")
        )
        all_match = all_match and match
        all_faster = all_faster and speedup >= 1.0
        result["algorithms"][name] = {
            "stepped_seconds": stepped_seconds,
            "generate_seconds": generate_seconds,
            "compile_seconds": compile_seconds,
            "evaluate_seconds": evaluate_seconds,
            "kernel_seconds": kernel_seconds,
            "stepped_requests_per_second": total_requests / stepped_seconds,
            "kernel_requests_per_second": total_requests / kernel_seconds,
            "speedup": speedup,
            "costs_match": match,
        }

    dp_schedule = _dp_schedule(
        config["dp_processors"], config["dp_requests"], seed
    )
    solver = OfflineOptimal(model, max_processors=config["dp_processors"])
    start = time.perf_counter()
    dp_cost = solver.optimal_cost(dp_schedule, scheme)
    dp_seconds = time.perf_counter() - start
    result["dp"] = {
        "processors": config["dp_processors"],
        "requests": config["dp_requests"],
        "seconds": dp_seconds,
        "cost": dp_cost,
    }
    result["total_requests"] = total_requests
    result["min_speedup"] = min(
        entry["speedup"] for entry in result["algorithms"].values()
    )
    result["check_passed"] = all_match and all_faster
    return result


def write_result(result: Dict, path: str | Path) -> None:
    """Write a bench result as pretty-printed JSON."""
    Path(path).write_text(json.dumps(result, indent=2) + "\n")


def format_result(result: Dict) -> str:
    """Human-readable summary of a bench result."""
    lines = [
        f"kernel bench ({'smoke' if result['config']['smoke'] else 'full'}): "
        f"{result['config']['batch_size']} x {result['config']['length']} "
        f"requests, model {result['model']}"
    ]
    for name, entry in result["algorithms"].items():
        lines.append(
            f"  {name}: stepped {entry['stepped_requests_per_second']:,.0f} req/s, "
            f"kernel {entry['kernel_requests_per_second']:,.0f} req/s "
            f"({entry['speedup']:.1f}x, costs "
            f"{'match' if entry['costs_match'] else 'MISMATCH'})"
        )
        lines.append(
            f"      generate {entry['generate_seconds'] * 1e3:.1f} ms, "
            f"compile {entry['compile_seconds'] * 1e3:.1f} ms, "
            f"evaluate {entry['evaluate_seconds'] * 1e3:.1f} ms"
        )
    dp = result["dp"]
    lines.append(
        f"  DP: {dp['processors']}-processor universe, {dp['requests']} "
        f"requests in {dp['seconds']:.3f}s"
    )
    lines.append(
        f"  check {'PASSED' if result['check_passed'] else 'FAILED'} "
        f"(min speedup {result['min_speedup']:.1f}x)"
    )
    return "\n".join(lines)
