"""Experiment scaling — substrate performance characteristics.

Not a paper artifact but a reproduction-quality statement: how far the
exact machinery reaches and what the fallbacks cost.

* the exact offline DP's runtime grows exponentially with the universe
  (the documented reason for the 12-processor guard);
* the beam + linear-bound sandwich handles 20+ processors in linear
  time and stays sound (lower <= beam upper) with a measured gap;
* the discrete-event DA protocol sustains thousands of requests per
  second of wall-clock time.

The saved tables hold only the computed columns, so two runs of one
commit write identical files; the wall-clock runtimes go to stdout.
"""

from __future__ import annotations

import time

import pytest

from benchmarks.conftest import emit
from repro.analysis.report import format_table
from repro.core.beam_optimal import optimal_sandwich
from repro.core.offline_optimal import OfflineOptimal
from repro.distsim.runner import run_protocol
from repro.model.cost_model import stationary
from repro.workloads.uniform import UniformWorkload

MODEL = stationary(0.2, 1.5)
SCHEME = frozenset({1, 2})


def print_runtimes(rows) -> None:
    """Print each row's universe size and runtime (its last column)."""
    runtimes = [(row[0], row[-1]) for row in rows]
    print(format_table(["processors", "runtime (ms)"], runtimes))


def measure_dp_scaling():
    rows = []
    for n in (4, 6, 8, 10):
        schedule = UniformWorkload(range(1, n + 1), 30, 0.3).generate(1)
        start = time.perf_counter()
        cost = OfflineOptimal(MODEL).optimal_cost(schedule, SCHEME)
        elapsed = time.perf_counter() - start
        rows.append((n, cost, elapsed * 1000))
    return rows


@pytest.mark.benchmark(group="scaling")
def test_exact_dp_scaling(benchmark, results_dir):
    rows = benchmark.pedantic(measure_dp_scaling, rounds=1, iterations=1)
    emit(
        "Exact offline DP vs universe size (30-request schedules)",
        format_table(["processors", "OPT cost"], [row[:-1] for row in rows]),
        results_dir,
        "scaling_dp.txt",
    )
    print_runtimes(rows)
    times = [elapsed for _, _, elapsed in rows]
    # The growth is super-linear (the guard exists for a reason).
    assert times[-1] > times[0]


def measure_sandwich_scaling():
    rows = []
    for n in (10, 15, 20, 25):
        schedule = UniformWorkload(range(1, n + 1), 60, 0.25).generate(2)
        start = time.perf_counter()
        sandwich = optimal_sandwich(
            schedule, SCHEME, MODEL, beam_width=32
        )
        elapsed = time.perf_counter() - start
        gap = sandwich.upper / max(sandwich.lower, 1e-12)
        rows.append((n, sandwich.lower, sandwich.upper, gap, elapsed * 1000))
    return rows


@pytest.mark.benchmark(group="scaling")
def test_sandwich_for_large_instances(benchmark, results_dir):
    rows = benchmark.pedantic(measure_sandwich_scaling, rounds=1, iterations=1)
    emit(
        "OPT sandwich (linear lower bound, beam upper bound) beyond the "
        "exact DP's reach",
        format_table(
            ["processors", "lower bound", "beam upper", "gap factor"],
            [row[:-1] for row in rows],
        ),
        results_dir,
        "scaling_sandwich.txt",
    )
    print_runtimes(rows)
    for n, lower, upper, gap, _ in rows:
        assert lower <= upper + 1e-9
        assert gap < 3.0  # the sandwich stays informative


@pytest.mark.benchmark(group="scaling")
def test_protocol_throughput(benchmark):
    """Wall-clock requests/second through the DA protocol."""
    schedule = UniformWorkload(range(1, 11), 200, 0.3).generate(4)

    def run():
        return run_protocol("DA", schedule, SCHEME, primary=2)

    stats = benchmark(run)
    assert stats.requests_completed == 200
