"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload kernel-batch --seed 1 --seconds 10 --trace 0

Run from anywhere; the benchmark works from the repository root (the
parent of this directory) and writes only under ``.perfbench_out/``
there.  It prints a report, then, as the last line of standard output,
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the ``end_to_end`` list
of ``BENCHMARK.json``; with ``--trace 1`` they are its ``per_layer``
list, from a separate traced pass (layers a workload does not reach
read 0).

Exit codes: 0 success; 1 a correctness gate failed (the JSON line then
has ``correct: false`` and no metrics); 2 a usage error, or no program
sources to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
from typing import Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = ".perfbench_out"
WORKLOADS = ("kernel-batch", "live-da-read-mostly", "live-sa-durable-write-heavy")

#: Unix socket paths must fit in 108 bytes; cluster sockets live at
#: ``<tmp>/repro-cluster-XXXXXXXX/node-N.sock``.
_SOCKET_SUFFIX = 36
_SOCKET_PATH_LIMIT = 100


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="Run one seeded benchmark workload, gate its outputs "
        "for correctness and print its metrics.",
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the timed region")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced pass")
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: smoke-test sizes for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def declared_metrics(trace: bool) -> Dict[str, str]:
    """Metric name -> unit, from ``BENCHMARK.json``."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        definition = json.load(handle)
    key = "per_layer" if trace else "end_to_end"
    return {metric["name"]: metric["unit"] for metric in definition[key]}


def _socket_tmpdir(out_dir: str) -> str:
    """Where the clusters put their sockets: inside the checkout, by a
    relative path when the absolute one would overflow ``sun_path``."""
    tmp = os.path.join(out_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    absolute = os.path.abspath(tmp)
    if len(absolute) + _SOCKET_SUFFIX < _SOCKET_PATH_LIMIT:
        return absolute
    return tmp


def environment() -> Dict[str, str]:
    import numpy

    return {
        "nproc": str(len(os.sched_getaffinity(0))),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(
            f"perfbench: no program sources at {os.path.join(ROOT, 'src', 'repro')}",
            file=sys.stderr,
        )
        return 2
    os.chdir(ROOT)
    for path in (ROOT, os.path.join(ROOT, "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    declared = declared_metrics(bool(args.trace))
    os.makedirs(OUT_DIR, exist_ok=True)
    tempfile.tempdir = _socket_tmpdir(OUT_DIR)

    from perfbench.common import CpuRotation, GateFailure

    env = environment()
    print(
        f"perfbench {args.workload}: seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace} size={args.size}"
    )
    print("env: " + " ".join(f"{key}={value}" for key, value in env.items()))
    try:
        with CpuRotation():
            if args.workload == "kernel-batch":
                from perfbench import kernel_batch

                result = kernel_batch.run(
                    args.seed, args.seconds, bool(args.trace), args.size
                )
            else:
                from perfbench import live

                result = live.run(
                    args.workload, args.seed, args.seconds, bool(args.trace),
                    args.size, OUT_DIR,
                )
    except GateFailure as failure:
        print(f"perfbench: correctness gate FAILED: {failure}", file=sys.stderr)
        print(json.dumps({
            "correct": False,
            "attempted": max(1, failure.attempted),
            "failed": failure.failed,
            "metrics": {},
        }))
        return 1

    undeclared = sorted(set(result.metrics) - set(declared))
    if undeclared:
        print(f"perfbench: metrics missing from BENCHMARK.json: {undeclared}",
              file=sys.stderr)
        return 2
    if not args.trace and set(declared) - set(result.metrics):
        print(
            "perfbench: end-to-end metrics not measured: "
            f"{sorted(set(declared) - set(result.metrics))}",
            file=sys.stderr,
        )
        return 2
    # Per-layer metrics of a layer this workload never reaches read 0.
    metrics = {
        name: {"value": float(result.metrics.get(name, 0.0)), "unit": unit}
        for name, unit in declared.items()
    }
    for key, value in result.notes.items():
        print(f"{key}: {value}")
    width = max(len(name) for name in metrics)
    for name, entry in metrics.items():
        print(f"  {name:<{width}}  {entry['value']:.6g} {entry['unit']}")

    stem = f"{args.workload}-trace{args.trace}"
    with open(os.path.join(OUT_DIR, stem + ".json"), "w") as handle:
        json.dump(
            {"args": vars(args), "env": env, "notes": result.notes, "metrics": metrics},
            handle, indent=2, default=str,
        )
    if result.tracer is not None:
        spans = os.path.join(OUT_DIR, f"spans-{args.workload}.csv.gz")
        result.tracer.write(spans)
        print(f"spans: {len(result.tracer.spans)} written to {spans}")
    print(json.dumps({
        "correct": True,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
