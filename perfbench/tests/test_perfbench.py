"""The benchmark's own tests: tiny runs of every workload.

Run with ``python -m pytest perfbench/tests``.  Each test drives
``perfbench/run.py`` at ``--size tiny``, which replays short traces
whole, so the per-request counts of two same-seed runs must agree
exactly.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
WORKLOADS = ("kernel-batch", "live-da-read-mostly", "live-sa-durable-write-heavy")

#: Counts that depend only on the seeded trace, never on timing.
EXACT_COUNTS = (
    "rpc.bytes_per_req",
    "rpc.frames_per_req",
    "rpc.frames_per_req.exec",
    "rpc.frames_per_req.result",
    "rpc.frames_per_req.msg",
    "rpc.frames_per_req.done",
    "loop.tasks_per_req",
    "loop.timers_per_req",
    "wal.appends_per_write",
    "wal.bytes_per_write",
    "snapshot.count",
    "charged.io_per_req",
    "charged.control_per_req",
    "charged.data_per_req",
)


def _declared(key: str) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[key]}


def _run(workload: str, trace: int, seed: int = 7, cwd: str = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


_cache: dict = {}


def _result(workload: str, trace: int) -> dict:
    if (workload, trace) not in _cache:
        proc = _run(workload, trace)
        assert proc.returncode == 0, proc.stderr
        _cache[workload, trace] = json.loads(proc.stdout.strip().splitlines()[-1])
    return _cache[workload, trace]


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_declared_metric(workload, trace):
    result = _result(workload, trace)
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = _declared("per_layer" if trace else "end_to_end")
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reaches_its_own_layers(workload):
    values = {name: m["value"] for name, m in _result(workload, 1)["metrics"].items()}
    kernel = workload == "kernel-batch"
    durable = workload == "live-sa-durable-write-heavy"
    assert (values["kernel.compile_s"] > 0) == kernel
    assert (values["kernel.evaluate_da_peak_mb"] > 0) == kernel
    assert (values["rpc.frames_per_req.msg"] > 0) == (not kernel)
    assert (values["loop.tasks_per_req"] > 0) == (not kernel)
    assert (values["protocol.handle_message_self_s"] > 0) == (not kernel)
    assert (values["wal.appends_per_write"] > 0) == durable
    assert (values["snapshot.count"] > 0) == durable
    assert values["workloads.generate_s"] > 0
    assert values["tracing.throughput_rps"] > 0
    if not kernel:
        # One exec and one result frame per request, closed loop.
        assert values["rpc.frames_per_req.exec"] == 1.0
        assert values["rpc.frames_per_req.result"] == 1.0


@pytest.mark.parametrize("workload", WORKLOADS[1:])
def test_per_request_counts_repeat_for_one_seed(workload):
    first = _result(workload, 1)["metrics"]
    proc = _run(workload, 1)
    assert proc.returncode == 0, proc.stderr
    second = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    for name in EXACT_COUNTS:
        assert first[name]["value"] == second[name]["value"], name


def _main_in_process(monkeypatch, capsys, workload: str):
    from perfbench import run as bench_run

    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(tempfile, "tempdir", None)
    code = bench_run.main(
        ["--workload", workload, "--seed", "3", "--seconds", "1", "--size", "tiny"]
    )
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-1])


def test_broken_live_parity_fails_the_gate(monkeypatch, capsys):
    from repro.cluster.metrics import NodeMetrics

    charge = NodeMetrics.charge_message

    def overcharge(self, message):
        charge(self, message)
        self.control_sent += 1

    monkeypatch.setattr(NodeMetrics, "charge_message", overcharge)
    code, result = _main_in_process(monkeypatch, capsys, "live-da-read-mostly")
    assert code == 1
    assert result["correct"] is False and result["metrics"] == {}


def test_broken_kernel_parity_fails_the_gate(monkeypatch, capsys):
    from repro.kernel import evaluate

    costs = evaluate.sa_request_costs
    monkeypatch.setattr(
        evaluate, "sa_request_costs", lambda *args, **kwargs: costs(*args, **kwargs) * 1.5
    )
    code, result = _main_in_process(monkeypatch, capsys, "kernel-batch")
    assert code == 1
    assert result["correct"] is False and result["metrics"] == {}


def test_without_program_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "perfbench"),
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = _run("kernel-batch", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_self_time_subtracts_the_union_of_children():
    from perfbench.tracing import Tracer

    tracer = Tracer()
    tracer.spans = [
        (1, "parent", 0.0, 10.0, 0, None),
        (2, "child", 1.0, 4.0, 1, None),
        (3, "child", 3.0, 6.0, 1, None),  # overlaps the first child
        (4, "child", 9.0, 12.0, 1, None),  # runs past the parent's end
    ]
    summary = tracer.summary()
    assert summary["parent"]["total"] == 10.0
    assert summary["parent"]["self"] == 10.0 - 5.0 - 1.0
    assert summary["child"]["count"] == 3
