"""``repro.kernel`` — the vectorized schedule kernel.

Compiles schedules (or batches of replications) into flat numpy
arrays and batch-evaluates SA and DA costs without stepping python
objects; also home of the perf harness behind ``repro bench``.  See
``docs/kernel.md`` for the compilation layout, the bitmask
conventions, and when the stepped path is still required.
"""

from repro.kernel.compile import (
    CompiledBatch,
    compile_batch,
    compile_schedule,
    popcount,
)
from repro.kernel.dispatch import (
    batch_costs,
    request_counts,
    schedule_breakdown,
    supports,
)
from repro.kernel.evaluate import (
    RequestCounts,
    da_final_schemes,
    da_request_costs,
    da_request_counts,
    sa_request_costs,
    sa_request_counts,
    schedule_totals,
)

__all__ = [
    "CompiledBatch",
    "RequestCounts",
    "batch_costs",
    "compile_batch",
    "compile_schedule",
    "da_final_schemes",
    "da_request_costs",
    "da_request_counts",
    "popcount",
    "request_counts",
    "sa_request_costs",
    "sa_request_counts",
    "schedule_breakdown",
    "schedule_totals",
    "supports",
]
