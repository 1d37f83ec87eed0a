"""``kernel-batch``: seeded uniform traces generated, compiled and priced.

All of the work sits in ``repro.workloads`` and ``repro.kernel``; none
reaches the cluster.  One iteration of the timed region goes from a
seed to the per-trace SA and DA totals of one batch (32 traces of 10k
requests over 16 processors, 20% writes, SC(c_c=0.2, c_d=1.5), scheme
{1,2} -- the shape of ``BENCH_kernel.json``), so generation is timed
together with compilation and evaluation.  Each iteration derives its
own seed, so no result cache can stand in for the work.
"""

from __future__ import annotations

import time
from statistics import median
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.cluster.metrics import percentile
from repro.core.dynamic_allocation import DynamicAllocation
from repro.core.static_allocation import StaticAllocation
from repro.engine.seeding import derive_seed
from repro.kernel import dispatch
from repro.model.cost_model import stationary
from repro.model.schedule import Schedule
from repro.workloads.uniform import UniformWorkload

from perfbench.common import (
    GateFailure,
    Metrics,
    Result,
    peak_rss_mb,
    per,
)
from perfbench.tracing import Tracer, kernel_layers

PROCESSORS = tuple(range(1, 17))
WRITE_FRACTION = 0.2
SCHEME = frozenset({1, 2})
MODEL = stationary(0.2, 1.5)
ALGORITHMS = (("SA", StaticAllocation), ("DA", DynamicAllocation))
STREAM = "perfbench.kernel-batch"


@dataclass(frozen=True)
class Size:
    batch: int
    length: int
    #: Set-ups per run; ``setup_s`` is their median.
    setups: int
    #: The untimed warm-up batch each set-up prices.
    warm_batch: int
    warm_length: int


SIZES = {
    "full": Size(batch=32, length=10_000, setups=5, warm_batch=8, warm_length=10_000),
    "tiny": Size(batch=4, length=500, setups=2, warm_batch=2, warm_length=100),
}

Totals = Dict[str, List[float]]


def price(seed: int, batch: int, length: int) -> Tuple[List[Schedule], Totals]:
    """Seed -> per-trace SA and DA totals (and the generated traces)."""
    generator = UniformWorkload(PROCESSORS, length, WRITE_FRACTION)
    schedules = generator.batch_independent(batch, root_seed=seed)
    totals = {
        name: dispatch.batch_costs(algorithm(SCHEME), schedules, MODEL)
        for name, algorithm in ALGORITHMS
    }
    return schedules, totals


@dataclass
class Pass:
    latencies: List[float]
    requests: int
    #: ``(trace, {algorithm: kernel total})`` checked against stepping.
    samples: List[Tuple[Schedule, Dict[str, float]]]

    @property
    def throughput(self) -> float:
        return self.requests / sum(self.latencies)


def _sample(schedules: List[Schedule], totals: Totals) -> list:
    """The gate's fixed sample: the first and last trace of a batch."""
    picks = sorted({0, len(schedules) - 1})
    return [(schedules[i], {name: totals[name][i] for name in totals}) for i in picks]


def timed_pass(
    seed: int,
    seconds: float,
    size: Size,
    pricer: Callable = price,
) -> Pass:
    """Price batches until ``seconds`` have passed (at least one)."""
    latencies: List[float] = []
    samples: list = []
    deadline = time.perf_counter() + seconds
    iteration = 0
    while True:
        began = time.perf_counter()
        schedules, totals = pricer(
            derive_seed(seed, iteration, STREAM), size.batch, size.length
        )
        ended = time.perf_counter()
        latencies.append(ended - began)
        if iteration == 0:
            samples = _sample(schedules, totals)
        last = (schedules, totals)
        iteration += 1
        if ended >= deadline:
            break
    if iteration > 1:
        samples += _sample(*last)
    requests = iteration * len(ALGORITHMS) * size.batch * size.length
    return Pass(latencies=latencies, requests=requests, samples=samples)


def gate(result: Pass) -> None:
    """Kernel totals must ``==`` the stepped path's on the sample."""
    for schedule, totals in result.samples:
        for name, algorithm in ALGORITHMS:
            stepped = MODEL.schedule_cost(algorithm(SCHEME).run(schedule))
            if totals[name] != stepped:
                raise GateFailure(
                    f"kernel-batch: {name} kernel total {totals[name]!r} != "
                    f"stepped {stepped!r} on a {len(schedule)}-request trace",
                    attempted=result.requests,
                )


def _setup(seed: int, size: Size) -> float:
    """One set-up: build the pipeline and price a tiny warm-up batch."""
    started = time.perf_counter()
    price(derive_seed(seed, 0, STREAM + ".warm-up"), size.warm_batch, size.warm_length)
    return time.perf_counter() - started


def _layer_metrics(tracer: Tracer, traced: Pass, untraced: Pass) -> Metrics:
    spans = tracer.summary()

    def mean(name: str) -> float:
        entry = spans.get(name)
        return per(entry["total"], entry["count"]) if entry else 0.0

    batches = len(traced.latencies)
    generate = spans.get("workloads.generate", {"total": 0.0})["total"]
    return {
        "workloads.generate_s": per(generate, batches),
        "kernel.compile_s": mean("kernel.compile"),
        "kernel.evaluate_sa_s": mean("kernel.evaluate_sa"),
        "kernel.evaluate_da_s": mean("kernel.evaluate_da"),
        "kernel.evaluate_da_peak_mb": tracer.counts["kernel.evaluate_da_peak_bytes"]
        / 2**20,
        "kernel.totals_s": mean("kernel.totals"),
        "tracing.throughput_rps": traced.throughput,
        "tracing.overhead_rps": traced.throughput - untraced.throughput,
    }


def run(seed: int, seconds: float, trace: bool, size_name: str) -> Result:
    size = SIZES[size_name]
    setups = [_setup(seed, size) for _ in range(size.setups)]
    untraced = timed_pass(seed, seconds, size)
    rss = peak_rss_mb()
    gate(untraced)
    metrics: Metrics = {
        "setup_s": median(setups),
        "throughput_rps": untraced.throughput,
        "completed_frac": 1.0,
        "peak_rss_mb": rss,
        "latency_p50_ms": percentile(untraced.latencies, 0.50) * 1e3,
        "latency_p99_ms": percentile(untraced.latencies, 0.99) * 1e3,
    }
    notes = {
        "latency samples": f"{len(untraced.latencies)} batches"
        + (" (p99 is the nearest-rank maximum)" if len(untraced.latencies) < 100 else ""),
        "requests priced": untraced.requests,
        "set-ups": len(setups),
    }
    tracer: Optional[Tracer] = None
    if trace:
        tracer = Tracer()
        with kernel_layers(tracer):
            pricer = tracer.wrap("kernel.batch", price)
            tracer.enabled = True
            try:
                traced = timed_pass(seed, seconds, size, pricer)
            finally:
                tracer.enabled = False
        gate(traced)
        metrics = _layer_metrics(tracer, traced, untraced)
        notes["traced batches"] = len(traced.latencies)
    return Result(
        metrics=metrics,
        attempted=untraced.requests,
        failed=0,
        notes=notes,
        tracer=tracer,
    )
