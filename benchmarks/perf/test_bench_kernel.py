"""Kernel performance acceptance — full-size stepped vs vectorized run.

The acceptance bar for the vectorized kernel: on the 10k-request x
32-replication batch, the kernel must evaluate SA and DA at least 5x
faster than the stepped object path while returning *exactly* equal
costs, and the rewritten offline DP must solve a 14-processor universe
within the benchmark timeout.  The test writes its machine-readable
report under pytest's ``tmp_path`` and prints it, so a test run leaves
the tree clean; running this module as a script is the way to
regenerate the checked-in ``benchmarks/results/BENCH_kernel.json``.  The CI
perf-smoke job runs the same harness via ``repro bench --smoke
--check``; the paper-benchmarks job runs this full-size test, about
ten seconds on a 2-vCPU machine, most of it the stepped path.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import RESULTS_DIR
from repro.kernel.bench import format_result, run_kernel_bench, write_result

#: The acceptance bar for the full-size batch.
MIN_SPEEDUP = 5.0

#: The DP must finish the 14-processor instance within this (seconds).
DP_TIMEOUT = 60.0


@pytest.mark.benchmark(group="kernel")
def test_kernel_speedup_full(benchmark, tmp_path):
    result = benchmark.pedantic(run_kernel_bench, rounds=1, iterations=1)
    print()
    print(format_result(result))
    report = tmp_path / "BENCH_kernel.json"
    write_result(result, report)
    print(report.read_text(encoding="utf-8"))

    for name, entry in result["algorithms"].items():
        assert entry["costs_match"], f"{name}: kernel costs diverged"
        assert entry["speedup"] >= MIN_SPEEDUP, (
            f"{name}: kernel only {entry['speedup']:.1f}x faster "
            f"(bar is {MIN_SPEEDUP}x)"
        )
    assert result["dp"]["processors"] == 14
    assert result["dp"]["seconds"] < DP_TIMEOUT
    assert result["check_passed"]


if __name__ == "__main__":  # pragma: no cover - manual convenience
    report = run_kernel_bench()
    print(format_result(report))
    RESULTS_DIR.mkdir(exist_ok=True)
    write_result(report, RESULTS_DIR / "BENCH_kernel.json")
