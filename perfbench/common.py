"""Helpers shared by the workloads: results, gate failures, CPU rotation, memory."""

from __future__ import annotations

import itertools
import os
import resource
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

#: Metric name -> value; units come from ``BENCHMARK.json``.
Metrics = Dict[str, float]


class GateFailure(Exception):
    """A correctness gate failed: the run must report no numbers."""

    def __init__(self, message: str, attempted: int = 0, failed: int = 0) -> None:
        super().__init__(message)
        self.attempted = attempted
        self.failed = failed


@dataclass
class Result:
    """What one workload run hands back to ``run.py``."""

    metrics: Metrics
    attempted: int
    failed: int
    #: Human-readable facts printed beside the metrics (sample counts).
    notes: Dict[str, Any] = field(default_factory=dict)
    #: The traced pass's span buffer, written out when the run ends.
    tracer: Optional[Any] = None


class CpuRotation:
    """Move the calling thread round-robin over the CPUs it may use, one
    slice at a time, from a helper thread, while the block runs.

    On a shared host one CPU can run steadily slower than another (a
    busy neighbour on its sibling).  A single-threaded run that the OS
    leaves on one CPU then lands in a fast or a slow mode, which splits
    same-code runs by 30%.  Rotating makes every run sample every CPU
    alike."""

    def __init__(self, slice_s: float = 0.2) -> None:
        self.slice_s = slice_s
        self.cpus = sorted(os.sched_getaffinity(0))
        self._thread_id = threading.get_native_id()
        self._stop = threading.Event()
        self._helper: Optional[threading.Thread] = None

    def _rotate(self) -> None:
        for cpu in itertools.cycle(self.cpus):
            os.sched_setaffinity(self._thread_id, {cpu})
            if self._stop.wait(self.slice_s):
                return

    def __enter__(self) -> "CpuRotation":
        if len(self.cpus) > 1:
            self._helper = threading.Thread(
                target=self._rotate, name="perfbench-cpu-rotation", daemon=True
            )
            self._helper.start()
        return self

    def __exit__(self, *exc_info) -> None:
        if self._helper is not None:
            self._stop.set()
            self._helper.join()
            os.sched_setaffinity(self._thread_id, self.cpus)


def peak_rss_mb() -> float:
    """This process's peak resident set so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def per(numerator: float, denominator: float) -> float:
    """A ratio that reads 0 where its layer did no work."""
    return numerator / denominator if denominator else 0.0
