"""Unit tests for the vectorized schedule kernel (repro.kernel)."""

from __future__ import annotations

import itertools
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernel
from repro.core.dynamic_allocation import DynamicAllocation
from repro.core.static_allocation import StaticAllocation
from repro.exceptions import ConfigurationError
from repro.kernel import evaluate
from repro.kernel.compile import compile_batch, compile_schedule
from repro.model.accounting import CostBreakdown
from repro.model.cost_model import CostModel
from repro.model.costs import request_breakdown
from repro.model.request import read, write
from repro.model.schedule import Schedule
from repro.types import processor_universe
from repro.workloads.uniform import UniformWorkload


def reference_compile(schedules, extra_processors=()):
    """The request-by-request compile loop, kept as the oracle for
    :func:`compile_batch`: returns ``(universe, procs, is_write,
    lengths)``."""
    universe = processor_universe(
        extra_processors, *(schedule.processors for schedule in schedules)
    )
    index_of = {processor: index for index, processor in enumerate(universe)}
    horizon = max(len(schedule) for schedule in schedules)
    procs = np.zeros((len(schedules), horizon), dtype=np.int32)
    is_write = np.zeros((len(schedules), horizon), dtype=bool)
    lengths = np.zeros(len(schedules), dtype=np.int64)
    for row, schedule in enumerate(schedules):
        lengths[row] = len(schedule)
        for column, request in enumerate(schedule.requests):
            procs[row, column] = index_of[request.processor]
            is_write[row, column] = request.is_write
    return universe, procs, is_write, lengths


def reference_previous(procs):
    """Row by row: the flat position of each cell's previous cell in
    its row with the same processor, or -1."""
    width = procs.shape[1]
    previous = []
    for row, cells in enumerate(procs.tolist()):
        last = {}
        previous.append([])
        for column, processor in enumerate(cells):
            previous[-1].append(last.get(processor, -1))
            last[processor] = row * width + column
    return previous


def assert_matches_reference(schedules, extra_processors=()):
    batch = compile_batch(schedules, extra_processors)
    universe, procs, is_write, lengths = reference_compile(
        schedules, extra_processors
    )
    assert batch.universe == universe
    assert all(type(processor) is int for processor in batch.universe)
    assert batch.procs.dtype == procs.dtype
    assert batch.procs.tolist() == procs.tolist()
    assert batch.is_write.dtype == bool
    assert batch.is_write.tolist() == is_write.tolist()
    assert batch.lengths.dtype == lengths.dtype
    assert batch.lengths.tolist() == lengths.tolist()


#: Sparse, non-contiguous processor ids.
SPARSE_IDS = st.lists(
    st.integers(min_value=0, max_value=10**6), min_size=1, max_size=6, unique=True
)


@st.composite
def mixed_batches(draw):
    """A batch mixing hand-built traces (columns computed lazily) with
    generated ones (columns filled in by the generator), some empty."""
    ids = draw(SPARSE_IDS)
    schedules = []
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        if draw(st.booleans()):
            kinds = draw(
                st.lists(st.tuples(st.sampled_from(ids), st.booleans()), max_size=25)
            )
            schedules.append(
                Schedule(
                    tuple(write(p) if w else read(p) for p, w in kinds)
                )
            )
        else:
            generator = UniformWorkload(
                draw(st.lists(st.sampled_from(ids), min_size=1)),
                draw(st.integers(min_value=0, max_value=25)),
                draw(st.sampled_from([0.0, 0.3, 1.0])),
            )
            schedules.append(generator.generate(draw(st.integers(0, 2**32))))
    extras = draw(st.lists(st.integers(min_value=0, max_value=10**6), max_size=3))
    return schedules, extras


class TestCompile:
    def test_universe_is_sorted_union_with_extras(self):
        batch = compile_batch(
            [Schedule.parse("r5 w2"), Schedule.parse("r9")],
            extra_processors=[1, 2],
        )
        assert batch.universe == (1, 2, 5, 9)

    def test_bit_indices_follow_sorted_rank(self):
        batch = compile_schedule(Schedule.parse("r9 w2 r5"))
        assert batch.universe == (2, 5, 9)
        assert batch.procs[0].tolist() == [2, 0, 1]
        assert batch.is_write[0].tolist() == [False, True, False]

    def test_padding_is_masked(self):
        batch = compile_batch(
            [Schedule.parse("r1 r1 r1"), Schedule.parse("w2")]
        )
        assert batch.horizon == 3
        assert batch.lengths.tolist() == [3, 1]
        assert batch.valid().tolist() == [
            [True, True, True],
            [True, False, False],
        ]
        assert batch.request_count == 4

    def test_empty_batch_rejected(self):
        with pytest.raises(ConfigurationError):
            compile_batch([])

    def test_empty_schedule_compiles(self):
        batch = compile_schedule(Schedule(), extra_processors=[1, 2])
        assert batch.horizon == 0
        assert batch.request_count == 0

    def test_arrays_are_read_only(self):
        batch = compile_schedule(Schedule.parse("r1 w2"))
        with pytest.raises(ValueError):
            batch.procs[0, 0] = 1

    @pytest.mark.parametrize(
        "processors", [(1, 2, 3, 4, 5), (0, 2**40, 2**62)], ids=["dense", "sparse"]
    )
    def test_equal_and_ragged_batches_lay_out_alike(self, processors):
        """Equal lengths take the reshape, a shorter trace the masked
        copy; the traces they share compile to the same rows."""
        traces = UniformWorkload(processors, 50).batch_independent(4, root_seed=3)
        short = UniformWorkload(processors, 20).generate(9)
        equal = compile_batch(traces, processors)
        ragged = compile_batch([*traces, short], processors)
        assert equal.universe == ragged.universe == processors
        assert ragged.procs[:4].tolist() == equal.procs.tolist()
        assert ragged.is_write[:4].tolist() == equal.is_write.tolist()
        assert ragged.procs[4, 20:].tolist() == [0] * 30
        assert not ragged.is_write[4, 20:].any()
        for batch in (equal, ragged):
            assert batch.procs.dtype == np.int32
            for array in (batch.procs, batch.is_write, batch.lengths):
                assert not array.flags.writeable
        assert_matches_reference(traces, processors)

    def test_foreign_processor_lookup_raises(self):
        batch = compile_schedule(Schedule.parse("r1 w2"))
        with pytest.raises(ConfigurationError):
            batch.bit_index(7)

    def test_wide_universe_matches_stepped(self, sc_model):
        # 1,100 processors: no cap on the universe, and SA costs, DA
        # costs and DA's final scheme are still the stepped answers.
        rng = random.Random(11)
        processors = range(1, 1101)
        requests = [read(p) for p in processors]
        for _ in range(3000):
            issuer = rng.choice(processors)
            requests.append(
                write(issuer) if rng.random() < 0.1 else read(issuer)
            )
        schedule = Schedule(tuple(requests))
        scheme = frozenset({3, 500, 1100})
        batch = compile_schedule(schedule, scheme)
        assert len(batch.universe) == 1100

        sa_stepped = sc_model.request_costs(
            StaticAllocation(scheme).run(schedule)
        )
        sa_counts = kernel.sa_request_counts(batch, scheme)
        assert sa_counts.priced(sc_model)[0].tolist() == sa_stepped
        algorithm = DynamicAllocation(scheme, primary=500)
        da_stepped = sc_model.request_costs(algorithm.run(schedule))
        da_counts = kernel.da_request_counts(batch, scheme, primary=500)
        assert da_counts.priced(sc_model)[0].tolist() == da_stepped
        assert kernel.da_final_schemes(batch, scheme, primary=500) == [
            algorithm.current_scheme
        ]


class TestCompileOracle:
    @settings(max_examples=200, deadline=None)
    @given(mixed_batches())
    def test_compile_matches_reference(self, case):
        schedules, extras = case
        assert_matches_reference(schedules, extras)

    def test_zero_length_traces(self):
        assert_matches_reference([Schedule(), Schedule.parse("w7 r3"), Schedule()])
        assert_matches_reference([Schedule(), Schedule()], [4, 1])

    def test_extras_outside_the_traces(self):
        assert_matches_reference(
            [Schedule.parse("r40 w9"), Schedule.parse("r9")], [1000, 2, 40]
        )

    def test_generator_and_lazy_columns_compile_alike(self):
        generated = UniformWorkload((3, 8, 21, 500), 300, 0.3).generate(5)
        rebuilt = Schedule(generated.requests)  # no columns until compiled
        assert "_columns" not in vars(rebuilt)
        assert generated.columns.processors.tolist() == (
            rebuilt.columns.processors.tolist()
        )
        assert generated.columns.is_write.tolist() == (
            rebuilt.columns.is_write.tolist()
        )
        assert_matches_reference([generated, rebuilt], [1])

    # Ids spanning at most as many values as there are ids are ranked
    # through a table; wider spans take np.unique's sort.
    def test_generated_kernel_batch(self):
        generator = UniformWorkload(range(1, 17), 10_000, 0.2)
        assert_matches_reference(generator.batch_independent(32, root_seed=3), [1, 2])

    def test_wide_sparse_ids(self):
        assert_matches_reference([Schedule((read(0), write(2**62)))])
        assert_matches_reference([Schedule((read(2**62),))], [0, 2**63 - 1])

    def test_one_id(self):
        assert_matches_reference([Schedule.parse("r5")])
        assert_matches_reference([Schedule.parse("w5 r5"), Schedule()], [5])
        assert_matches_reference([Schedule((write(2**63 - 1),))])

    def test_extras_only(self):
        assert_matches_reference([Schedule()], [9])
        assert_matches_reference([Schedule(), Schedule()], [0, 2**62])
        assert_matches_reference([Schedule()])

    def test_span_equal_to_the_id_count(self):
        # Three ids spanning 0..2 (the table), then 0..3 (the sort).
        assert_matches_reference([Schedule.parse("r0 r2 w2")])
        assert_matches_reference([Schedule.parse("r0 r3 w3")])
        assert_matches_reference([Schedule.parse("r4 w5"), Schedule()], [6, 7])
        assert_matches_reference([Schedule.parse("r4 w5"), Schedule()], [6, 8])

    @pytest.mark.parametrize(
        "text, extras, sorts",
        [
            ("r0 r2 w2", (), False),
            ("r0 r3 w3", (), True),
            ("r4 w5", (6, 7), False),
            ("r4 w5", (6, 8), True),
            ("r3", (), False),
            ("", (), True),
        ],
    )
    def test_only_wider_spans_sort(self, text, extras, sorts):
        with mock.patch.object(np, "unique", wraps=np.unique) as unique:
            compile_batch([Schedule.parse(text)], extras)
        assert unique.called == sorts


class TestPopcount:
    def test_matches_int_bit_count(self):
        values = np.arange(0, 5000, dtype=np.int64)
        expected = [int(v).bit_count() for v in values]
        assert kernel.popcount(values).tolist() == expected

    def test_fallback_table_agrees(self, monkeypatch):
        # Force the byte-table path even on numpy >= 2.0.
        from repro.kernel import compile as compile_module

        monkeypatch.delattr(np, "bitwise_count", raising=False)
        values = np.array([[0, 1], [0b1011, (1 << 40) | 7]], dtype=np.int64)
        got = compile_module.popcount(values)
        assert got.tolist() == [[0, 1], [3, 4]]


class TestDispatch:
    def test_supports_exact_types_only(self, small_scheme):
        assert kernel.supports(StaticAllocation(small_scheme))
        assert kernel.supports(DynamicAllocation(small_scheme))

        class TweakedSA(StaticAllocation):
            pass

        # Subclasses may override decide/observe: stepped path only.
        assert not kernel.supports(TweakedSA(small_scheme))

    def test_request_costs_rejects_unsupported(self, sc_model, small_scheme):
        class TweakedSA(StaticAllocation):
            pass

        with pytest.raises(ConfigurationError):
            kernel.batch_costs(
                TweakedSA(small_scheme), [Schedule.parse("r1")], sc_model
            )

    def test_batch_costs_never_build_requests(self, sc_model, small_scheme):
        schedules = UniformWorkload(range(1, 9), 500, 0.3).batch_independent(
            4, root_seed=2
        )
        for algorithm in (StaticAllocation, DynamicAllocation):
            kernel.batch_costs(algorithm(small_scheme), schedules, sc_model)
        assert all("requests" not in vars(schedule) for schedule in schedules)

    def test_schedule_cost_matches_stepped(
        self, sc_model, paper_schedule, small_scheme
    ):
        for make in (
            lambda: StaticAllocation(small_scheme),
            lambda: DynamicAllocation(small_scheme),
        ):
            stepped = sc_model.schedule_cost(make().run(paper_schedule))
            assert (
                kernel.batch_costs(make(), [paper_schedule], sc_model)[0]
                == stepped
            )

    def test_batch_costs_accepts_precompiled_batch(
        self, sc_model, small_scheme
    ):
        schedules = [Schedule.parse("r5 w1 r5"), Schedule.parse("w2")]
        algorithm = StaticAllocation(small_scheme)
        batch = compile_batch(schedules, small_scheme)
        direct = kernel.batch_costs(algorithm, schedules, sc_model)
        shared = kernel.batch_costs(
            algorithm, schedules, sc_model, batch=batch
        )
        assert direct == shared


class TestEvaluate:
    def test_sa_paper_example(self, sc_model, paper_schedule, small_scheme):
        # w2 r4 w3 r1 r2 under SA over {1, 2}: per-request parity.
        batch = compile_schedule(paper_schedule, small_scheme)
        counts = kernel.sa_request_counts(batch, small_scheme)
        allocation = StaticAllocation(small_scheme).run(paper_schedule)
        stepped = sc_model.request_costs(allocation)
        assert counts.priced(sc_model)[0].tolist() == stepped
        total = kernel.sa_request_costs(batch, small_scheme, sc_model)
        assert total.tolist() == [sc_model.schedule_cost(allocation)]

    def test_da_paper_example(self, sc_model, paper_schedule, small_scheme):
        batch = compile_schedule(paper_schedule, small_scheme)
        counts = kernel.da_request_counts(batch, small_scheme)
        algorithm = DynamicAllocation(small_scheme)
        allocation = algorithm.run(paper_schedule)
        stepped = sc_model.request_costs(allocation)
        assert counts.priced(sc_model)[0].tolist() == stepped
        total = kernel.da_request_costs(batch, small_scheme, sc_model)
        assert total.tolist() == [sc_model.schedule_cost(allocation)]

    def test_da_final_scheme_matches_stepped(self, paper_schedule):
        scheme = frozenset({2, 5, 7, 9})
        batch = compile_schedule(paper_schedule, scheme)
        finals = kernel.da_final_schemes(batch, scheme, primary=9)
        algorithm = DynamicAllocation(scheme, primary=9)
        algorithm.run(paper_schedule)
        assert finals == [algorithm.current_scheme]

    def test_da_final_scheme_of_empty_trace_is_initial(self, small_scheme):
        batch = compile_schedule(Schedule(), small_scheme)
        assert kernel.da_final_schemes(batch, small_scheme) == [small_scheme]

    def test_padding_contributes_no_cost(self, sc_model, small_scheme):
        batch = compile_batch(
            [Schedule.parse("w1 w1 w1"), Schedule.parse("r1")], small_scheme
        )
        counts = kernel.sa_request_counts(batch, small_scheme)
        assert counts.priced(sc_model)[1, 1:].tolist() == [0.0, 0.0]
        totals = kernel.sa_request_costs(batch, small_scheme, sc_model)
        assert totals[1] == sc_model.price(counts.breakdown(1))

    def test_scheme_validation_mirrors_stepped(self, sc_model):
        batch = compile_schedule(Schedule.parse("r1"), [1, 2])
        with pytest.raises(ConfigurationError):
            kernel.sa_request_costs(batch, frozenset({1}), sc_model)
        with pytest.raises(ConfigurationError):
            kernel.da_request_costs(
                batch, frozenset({1, 2}), sc_model, primary=5
            )

    def test_da_final_schemes_rejects_a_foreign_primary(self):
        # Both DA entry points validate alike: p must be in the scheme.
        batch = compile_schedule(Schedule.parse("r3 w3 r1"), {1, 2, 3})
        with pytest.raises(ConfigurationError):
            kernel.da_final_schemes(batch, {1, 2}, primary=3)

    def test_da_final_schemes_rejects_a_one_processor_scheme(self):
        batch = compile_schedule(Schedule.parse("r3 w3 r1"), {1, 2, 3})
        with pytest.raises(ConfigurationError):
            kernel.da_final_schemes(batch, {1})

    def test_previous_same_processor_is_the_row_loop(self):
        """Every batch of 1 to 3 rows, each 1 to 4 cells wide (a trace of
        0 to 3 requests behind its virtual write), over 1 or 2
        processors: a row's first cell of a processor has no previous
        cell, even where the row before ends on the same processor."""
        for n in (1, 2):
            for rows in (1, 2, 3):
                for width in (1, 2, 3, 4):
                    flat = np.arange(rows * width, dtype=np.int32)
                    flat = flat.reshape(rows, width)
                    for cells in itertools.product(range(n), repeat=rows * width):
                        procs = np.array(cells, dtype=np.int32).reshape(flat.shape)
                        previous = evaluate._previous_same_processor(procs, n, flat)
                        assert previous.dtype == flat.dtype
                        assert previous.tolist() == reference_previous(procs)

    def test_previous_same_processor_stops_at_the_row(self):
        # Row 0 sorts last to processor 1, which row 1 sorts first.
        procs = np.array([[1, 0], [1, 1], [0, 0]], dtype=np.int32)
        flat = np.arange(6, dtype=np.int32).reshape(3, 2)
        previous = evaluate._previous_same_processor(procs, 2, flat)
        assert previous.tolist() == [[-1, -1], [-1, 2], [-1, 4]]

    def test_schedule_totals_price_summed_counts(self):
        counts = kernel.RequestCounts(
            io=np.array([[1, 2, 1], [3, 0, 0]], dtype=np.int32),
            control=np.array([[1, 0, 1], [0, 0, 0]], dtype=np.int32),
            data=np.array([[1, 1, 1], [2, 0, 0]], dtype=np.int32),
        )
        model = CostModel(1.0, 0.1, 0.3)
        totals = kernel.schedule_totals(counts, model).tolist()
        # Summed counts (4, 2, 3) and (3, 0, 2), each priced once; a
        # fold of the first row's request costs gives 5.1000000000000005.
        assert totals == [4 * 1.0 + 2 * 0.1 + 3 * 0.3, 3 * 1.0 + 0 * 0.1 + 2 * 0.3]
        assert totals[0] == 5.1


def random_traces(lengths, seed):
    """Traces of the given lengths over processors 1 to 4, a third of
    their requests writes."""
    rng = random.Random(seed)
    return [
        Schedule(
            tuple(
                (write if rng.random() < 1 / 3 else read)(rng.randint(1, 4))
                for _ in range(length)
            )
        )
        for length in lengths
    ]


class TestDABlocks:
    """DA evaluates its rows in blocks of about ``BLOCK_CELLS`` laid-out
    cells.  With the constant patched small, every block shape must
    give the counts of one block over the whole batch, and the stepped
    per-request breakdowns."""

    @staticmethod
    def counts_in_blocks(batch, scheme, primary, cells):
        with mock.patch.object(evaluate, "BLOCK_CELLS", cells):
            return kernel.da_request_counts(batch, scheme, primary=primary)

    @pytest.mark.parametrize(
        "lengths, cells",
        [
            # 3 rows of 5 laid-out cells per block: blocks of 3, 3, 1.
            ((4,) * 7, 16),
            # Rows of 41 cells, longer than a block: a block per row.
            ((40,) * 3, 16),
            # Ragged, 2 rows of 6 cells per block, an empty trace inside.
            ((5, 0, 2, 5, 1, 3, 4), 12),
            # One trace, in a block of its own or longer than a block.
            ((9,), 16),
            ((9,), 4),
        ],
        ids=["partial-last-block", "row-over-block", "ragged", "one-row", "one-long-row"],
    )
    @pytest.mark.parametrize("scheme, primary", [({1, 2}, 2), ({1, 2, 3}, 1)])
    def test_blocks_match_one_block_and_stepping(self, lengths, cells, scheme, primary):
        schedules = random_traces(lengths, seed=sum(lengths) + cells)
        batch = compile_batch(schedules, scheme)
        one_block = self.counts_in_blocks(batch, scheme, primary, 2**40)
        blocked = self.counts_in_blocks(batch, scheme, primary, cells)
        for field, whole in zip(blocked, one_block):
            assert field.dtype == np.int32 and field.shape == batch.procs.shape
            assert field.tolist() == whole.tolist()
        for row, schedule in enumerate(schedules):
            stepped = [
                request_breakdown(step, before)
                for before, step in DynamicAllocation(scheme, primary=primary)
                .run(schedule)
                .schemes()
            ]
            vectors = zip(*(field[row].tolist() for field in blocked))
            laid = [CostBreakdown(*vector) for vector in vectors]
            assert laid[: len(schedule)] == stepped
            assert laid[len(schedule) :] == [CostBreakdown(0, 0, 0)] * (
                batch.horizon - len(schedule)
            )
