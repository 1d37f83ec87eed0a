"""Property tests: the kernel is *exactly* the stepped path, faster.

The vectorized kernel's contract is bit-identical equality — not
approximate agreement — with stepping :class:`StaticAllocation` /
:class:`DynamicAllocation` through :class:`OnlineDOM` and pricing the
resulting allocation schedule.  Every assertion below uses ``==`` on
floats on purpose: any associativity slip, any formula divergence in
a single request, fails loudly.

Covered: both cost models (SC and MC), thresholds t in {2, 3, 4},
non-contiguous initial schemes, explicit primaries, batches of mixed
lengths (batch evaluation == one-trace evaluation), DA's final
allocation scheme, the unpriced per-request ``(io, control, data)``
counts behind every price, and the one pricing rule for totals (summed
counts, priced once).
"""

from __future__ import annotations

import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernel
from repro.core.dynamic_allocation import DynamicAllocation
from repro.core.static_allocation import StaticAllocation
from repro.model.accounting import CostBreakdown
from repro.model.cost_model import mobile, stationary
from repro.model.costs import request_breakdown
from repro.model.request import read, write
from repro.model.schedule import Schedule

from tests.properties.strategies import (
    mobile_models,
    schedules,
    stationary_models,
)

MODELS = st.one_of(stationary_models(), mobile_models())

#: Initial schemes of size t in {2, 3, 4} over ids 1..6 — the same id
#: range the schedule strategy issues from, so members both do and do
#: not appear in traces.  Non-contiguous subsets arise naturally.
SCHEMES = st.integers(min_value=2, max_value=4).flatmap(
    lambda t: st.sets(
        st.integers(min_value=1, max_value=6), min_size=t, max_size=t
    ).map(frozenset)
)


@st.composite
def scheme_and_primary(draw):
    scheme = draw(SCHEMES)
    primary = draw(st.sampled_from(sorted(scheme)))
    return scheme, primary


def stepped_request_costs(algorithm, schedule, model):
    allocation = algorithm.run(schedule)
    return model.request_costs(allocation), model.schedule_cost(allocation)


@settings(max_examples=150)
@given(schedule=schedules(), scheme=SCHEMES, model=MODELS)
def test_sa_costs_bit_identical(schedule, scheme, model):
    batch = kernel.compile_schedule(schedule, scheme)
    costs = kernel.sa_request_counts(batch, scheme).priced(model)
    per_request, total = stepped_request_costs(
        StaticAllocation(scheme), schedule, model
    )
    assert costs[0].tolist() == per_request
    assert kernel.sa_request_costs(batch, scheme, model).tolist() == [total]


@settings(max_examples=150)
@given(schedule=schedules(), pair=scheme_and_primary(), model=MODELS)
def test_da_costs_bit_identical(schedule, pair, model):
    scheme, primary = pair
    batch = kernel.compile_schedule(schedule, scheme)
    costs = kernel.da_request_counts(batch, scheme, primary=primary).priced(model)
    per_request, total = stepped_request_costs(
        DynamicAllocation(scheme, primary=primary), schedule, model
    )
    assert costs[0].tolist() == per_request
    totals = kernel.da_request_costs(batch, scheme, model, primary=primary)
    assert totals.tolist() == [total]


@st.composite
def inexact_models(draw):
    """SC or MC prices in tenths, which binary floats hold only
    approximately, so the ulp bound below is not met merely because
    every sum is exact."""
    tenths = st.integers(min_value=0, max_value=40).map(lambda n: n / 10)
    c_c, c_d = sorted(draw(st.lists(tenths, min_size=2, max_size=2)))
    return draw(st.sampled_from((stationary, mobile)))(c_c, c_d)


@settings(max_examples=150)
@given(
    schedule=schedules(max_length=60),
    pair=scheme_and_primary(),
    model=inexact_models(),
)
def test_totals_price_the_summed_counts_once(schedule, pair, model):
    # One pricing rule on every path: the kernel's total, the stepped
    # schedule_cost and the summed counts priced once are the same
    # float, within 4 ulps of the exact value of counts x prices.
    scheme, primary = pair
    for make in (
        lambda: StaticAllocation(scheme),
        lambda: DynamicAllocation(scheme, primary=primary),
    ):
        allocation = make().run(schedule)
        counts = allocation.total_breakdown()
        priced = model.price(counts)
        assert kernel.batch_costs(make(), [schedule], model) == [priced]
        assert model.schedule_cost(allocation) == priced
        exact = (
            counts.io_ops * Fraction(model.c_io)
            + counts.control_messages * Fraction(model.c_c)
            + counts.data_messages * Fraction(model.c_d)
        )
        assert abs(Fraction(priced) - exact) <= 4 * Fraction(math.ulp(priced))


@settings(max_examples=100)
@given(schedule=schedules(), pair=scheme_and_primary())
def test_da_final_scheme_parity(schedule, pair):
    scheme, primary = pair
    batch = kernel.compile_schedule(schedule, scheme)
    algorithm = DynamicAllocation(scheme, primary=primary)
    algorithm.run(schedule)
    assert kernel.da_final_schemes(batch, scheme, primary=primary) == [
        algorithm.current_scheme
    ]


@settings(max_examples=60)
@given(
    batch_schedules=st.lists(schedules(), min_size=1, max_size=5),
    pair=scheme_and_primary(),
    model=MODELS,
)
def test_batch_equals_per_trace(batch_schedules, pair, model):
    # One compiled batch of mixed-length traces gives exactly the
    # per-trace answers — padding never leaks into costs.
    scheme, primary = pair
    for make in (
        lambda: StaticAllocation(scheme),
        lambda: DynamicAllocation(scheme, primary=primary),
    ):
        batched = kernel.batch_costs(make(), batch_schedules, model)
        single = [
            kernel.batch_costs(make(), [schedule], model)[0]
            for schedule in batch_schedules
        ]
        stepped = [
            model.schedule_cost(make().run(schedule))
            for schedule in batch_schedules
        ]
        assert batched == single == stepped


@settings(max_examples=60)
@given(schedule=schedules(), pair=scheme_and_primary(), model=MODELS)
def test_dispatch_cost_of_is_stepped_cost(schedule, pair, model):
    from repro.core.competitive import cost_of

    scheme, primary = pair
    for make in (
        lambda: StaticAllocation(scheme),
        lambda: DynamicAllocation(scheme, primary=primary),
    ):
        assert cost_of(make(), schedule, model) == model.schedule_cost(
            make().run(schedule)
        )


@settings(max_examples=40)
@given(model=MODELS, pair=scheme_and_primary())
def test_empty_schedule_is_free(model, pair):
    scheme, primary = pair
    empty = Schedule()
    for make in (
        lambda: StaticAllocation(scheme),
        lambda: DynamicAllocation(scheme, primary=primary),
    ):
        assert kernel.batch_costs(make(), [empty], model)[0] == 0.0


#: Batches of mixed lengths (some traces empty), or of empty traces
#: only — a horizon-0 batch.
MIXED_BATCHES = st.one_of(
    st.lists(
        st.one_of(st.just(Schedule()), schedules(max_length=30)),
        min_size=1,
        max_size=5,
    ),
    st.lists(st.just(Schedule()), min_size=1, max_size=3),
)


@settings(max_examples=150)
@given(batch_schedules=MIXED_BATCHES, pair=scheme_and_primary())
def test_request_counts_are_stepped_breakdowns(batch_schedules, pair):
    # Every request's (io, control, data) vector is the stepped path's
    # request_breakdown; padding counts nothing.
    scheme, primary = pair
    batch = kernel.compile_batch(batch_schedules, scheme)
    for make in (
        lambda: StaticAllocation(scheme),
        lambda: DynamicAllocation(scheme, primary=primary),
    ):
        counts = kernel.request_counts(make(), batch)
        for row, schedule in enumerate(batch_schedules):
            stepped = [
                request_breakdown(step, before)
                for before, step in make().run(schedule).schemes()
            ]
            vectors = zip(
                counts.io[row].tolist(),
                counts.control[row].tolist(),
                counts.data[row].tolist(),
            )
            padded = stepped + [CostBreakdown()] * (
                batch.horizon - len(schedule)
            )
            assert [CostBreakdown(*vector) for vector in vectors] == padded


@st.composite
def narrow_batches(draw):
    """Batches of up to six traces, each of 0 to 6 requests, all issued
    by the same one or two processors of 1..4: a row of the batch
    often ends on the processor the next row starts with."""
    issuers = sorted(draw(st.sets(st.integers(1, 4), min_size=1, max_size=2)))
    request = st.builds(
        lambda processor, is_write: (write if is_write else read)(processor),
        st.sampled_from(issuers),
        st.booleans(),
    )
    trace = st.lists(request, max_size=6).map(lambda items: Schedule(tuple(items)))
    return draw(st.lists(trace, min_size=1, max_size=6))


@settings(max_examples=300)
@given(
    batch_schedules=narrow_batches(),
    scheme=st.sets(st.integers(1, 4), min_size=2, max_size=3).map(frozenset),
    data=st.data(),
)
def test_da_counts_over_one_or_two_issuers(batch_schedules, scheme, data):
    # DA's previous-request lookup sorts each row by issuer; with one
    # or two issuers nearly every row boundary joins equal issuers.
    primary = data.draw(st.sampled_from(sorted(scheme)))
    batch = kernel.compile_batch(batch_schedules, scheme)
    counts = kernel.da_request_counts(batch, scheme, primary=primary)
    for row, schedule in enumerate(batch_schedules):
        stepped = [
            request_breakdown(step, before)
            for before, step in DynamicAllocation(scheme, primary=primary)
            .run(schedule)
            .schemes()
        ]
        vectors = zip(
            counts.io[row, : len(schedule)].tolist(),
            counts.control[row, : len(schedule)].tolist(),
            counts.data[row, : len(schedule)].tolist(),
        )
        assert [CostBreakdown(*vector) for vector in vectors] == stepped
