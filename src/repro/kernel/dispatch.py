"""Dispatch: route supported algorithm objects through the kernel.

The kernel evaluates exactly the paper's two algorithms — SA
(:class:`~repro.core.static_allocation.StaticAllocation`) and DA
(:class:`~repro.core.dynamic_allocation.DynamicAllocation`).  Dispatch
is by *exact type*: a subclass may override :meth:`decide`/`observe`
and silently diverge from the closed forms, so subclasses (and every
other algorithm: CDDR, CACHE, CONV, ...) stay on the stepped
reference path.

Costs returned here are bit-identical to the stepped path (see
:mod:`repro.kernel.evaluate`), so callers may swap paths freely
without perturbing cached or published results.
"""

from __future__ import annotations

from typing import Callable, List, Sequence

from repro.core.base import OnlineDOM
from repro.core.dynamic_allocation import DynamicAllocation
from repro.core.static_allocation import StaticAllocation
from repro.exceptions import ConfigurationError
from repro.kernel import evaluate
from repro.kernel.compile import CompiledBatch, compile_batch
from repro.model.accounting import CostBreakdown
from repro.model.cost_model import CostModel
from repro.model.schedule import Schedule


def supports(algorithm: OnlineDOM) -> bool:
    """True iff the kernel can evaluate this algorithm exactly."""
    return type(algorithm) in (StaticAllocation, DynamicAllocation)


def _evaluate(
    algorithm: OnlineDOM,
    batch: CompiledBatch,
    sa: Callable,
    da: Callable,
    *args,
):
    """Call the SA or DA evaluator with the algorithm's configuration."""
    scheme, threshold = algorithm.initial_scheme, algorithm.threshold
    if type(algorithm) is StaticAllocation:
        return sa(batch, scheme, *args, threshold=threshold)
    if type(algorithm) is DynamicAllocation:
        primary = algorithm.primary
        return da(batch, scheme, *args, primary=primary, threshold=threshold)
    raise ConfigurationError(
        f"the kernel does not support {type(algorithm).__name__}; "
        "use the stepped OnlineDOM path"
    )


def request_counts(
    algorithm: OnlineDOM, batch: CompiledBatch
) -> evaluate.RequestCounts:
    """Per-request ``(io, control, data)`` counts of a supported
    algorithm over a compiled batch."""
    return _evaluate(
        algorithm,
        batch,
        evaluate.sa_request_counts,
        evaluate.da_request_counts,
    )


def batch_costs(
    algorithm: OnlineDOM,
    schedules: Sequence[Schedule],
    model: CostModel,
    batch: CompiledBatch | None = None,
) -> List[float]:
    """Total cost of a supported algorithm on every schedule at once.

    Compiles the batch (universe widened with the algorithm's initial
    scheme) unless the caller hands in a pre-compiled one, evaluates
    the whole batch's counts in one pass, and prices each trace's
    summed counts once, exactly like the stepped path.
    """
    if batch is None:
        batch = compile_batch(schedules, algorithm.initial_scheme)
    # Through the *_request_costs entry points, not request_counts: the
    # benchmark's tracer times them by name and its parity self-test
    # breaks one of them.
    sa, da = evaluate.sa_request_costs, evaluate.da_request_costs
    return _evaluate(algorithm, batch, sa, da, model).tolist()


def schedule_breakdown(
    algorithm: OnlineDOM, schedule: Schedule
) -> CostBreakdown:
    """The kernel's *unpriced* counters for one schedule: its
    per-request ``(io, control, data)`` counts, summed.

    The result is directly comparable with the stepped model's
    ``total_breakdown()``, the simulator's ``stats.breakdown()`` and a
    live cluster's aggregated metrics — the fourth corner of the parity
    square.
    """
    batch = compile_batch([schedule], algorithm.initial_scheme)
    return request_counts(algorithm, batch).breakdown(0)
