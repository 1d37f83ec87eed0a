"""Unit tests for the exhaustive worst-case search (repro.analysis.worst_case)."""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.analysis.worst_case import ExhaustiveSearch, certified_worst_case
from repro.core.dynamic_allocation import DynamicAllocation
from repro.core.offline_optimal import OfflineOptimal, optimal_cost
from repro.core.static_allocation import StaticAllocation
from repro.exceptions import ConfigurationError
from repro.model.cost_model import stationary
from repro.model.heterogeneous import HeterogeneousCostModel
from repro.model.request import read, write
from repro.model.schedule import Schedule

MODEL = stationary(0.1, 0.2)
SCHEME = frozenset({1, 2})


class TestValidation:
    def test_rejects_large_universe(self):
        with pytest.raises(ConfigurationError):
            ExhaustiveSearch(MODEL, SCHEME, tuple(range(3, 10)))

    def test_rejects_bad_bracket(self):
        search = ExhaustiveSearch(MODEL, SCHEME, (5,))
        with pytest.raises(ConfigurationError):
            search.search(lambda: StaticAllocation(SCHEME), 2, min_length=3)

    def test_rejects_thin_scheme(self):
        with pytest.raises(ConfigurationError):
            ExhaustiveSearch(MODEL, {1}, (5,))


class TestIncrementalDPConsistency:
    def test_advance_agrees_with_full_solver(self):
        # The carried DP must price every prefix of seeded random
        # schedules exactly as the standalone OfflineOptimal does, on
        # 3 to 5 processors and for t in {2, 3}.
        scheme = frozenset({1, 2, 3})
        rng = random.Random(20)
        for threshold in (2, 3):
            solver = OfflineOptimal(MODEL, threshold)
            for extra in ((), (5,), (5, 6)):
                search = ExhaustiveSearch(MODEL, scheme, extra, threshold)
                steps = search.transitions
                for _ in range(5):
                    requests = [
                        rng.choice((read, write))(rng.choice(search.processors))
                        for _ in range(rng.randint(1, 7))
                    ]
                    dp = steps.start(scheme)
                    for length, request in enumerate(requests, start=1):
                        dp = steps.advance(dp, request)
                        prefix = Schedule(tuple(requests[:length]))
                        assert dp.min() == solver.optimal_cost(prefix, scheme)


    def test_successors_are_every_advance(self):
        # One (2n, 2^n) step equals advancing by each candidate request
        # alone, bit for bit, under homogeneous and per-link prices.
        rng = random.Random(21)
        universe = [1, 2, 3, 5]
        candidates = [read(p) for p in universe] + [write(p) for p in universe]
        per_link = HeterogeneousCostModel(
            io_costs={5: 3.0},
            data_costs={(1, 5): 0.7},
            control_costs={(2, 3): 0.05},
        )
        for prices in (MODEL, per_link):
            for threshold in (2, 3):
                steps = OfflineOptimal(prices, threshold).transitions(universe)
                dp = steps.start({1, 2, 3})
                for _ in range(5):
                    rows = steps.successors(dp)
                    assert rows.shape == (len(candidates), 1 << len(universe))
                    for request, row in zip(candidates, rows):
                        assert np.array_equal(row, steps.advance(dp, request))
                    dp = rows[rng.randrange(len(candidates))]


class TestSearchResults:
    def test_worst_schedule_achieves_its_ratio(self):
        worst = certified_worst_case(
            lambda: DynamicAllocation(SCHEME, primary=2),
            MODEL,
            SCHEME,
            (5,),
            max_length=3,
        )
        algorithm = DynamicAllocation(SCHEME, primary=2)
        cost = MODEL.schedule_cost(algorithm.run(worst.schedule))
        opt = optimal_cost(worst.schedule, SCHEME, MODEL)
        assert cost == pytest.approx(worst.algorithm_cost)
        assert opt == pytest.approx(worst.optimal_cost)
        assert worst.ratio == pytest.approx(cost / opt)

    def test_da_single_foreign_read_is_the_short_worst_case(self):
        # With cheap communication, the single saving-read is DA's worst
        # length-1 schedule: (c_c + c_d + 2) / (c_c + c_d + 1).
        worst = certified_worst_case(
            lambda: DynamicAllocation(SCHEME, primary=2),
            MODEL,
            SCHEME,
            (5,),
            max_length=1,
        )
        assert str(worst.schedule) == "r5"
        expected = (0.1 + 0.2 + 2.0) / (0.1 + 0.2 + 1.0)
        assert worst.ratio == pytest.approx(expected)

    def test_sa_worst_case_grows_with_length(self):
        ratios = []
        for max_length in (2, 3, 4):
            worst = certified_worst_case(
                lambda: StaticAllocation(SCHEME),
                MODEL,
                SCHEME,
                (5,),
                max_length=max_length,
            )
            ratios.append(worst.ratio)
        # Longer horizons can only reveal worse (or equal) schedules.
        assert ratios == sorted(ratios)

    def test_worst_ratios_respect_proven_bounds(self):
        from repro.analysis.bounds import (
            da_competitive_factor,
            sa_competitive_factor,
        )

        sa_worst = certified_worst_case(
            lambda: StaticAllocation(SCHEME), MODEL, SCHEME, (5,), max_length=4
        )
        da_worst = certified_worst_case(
            lambda: DynamicAllocation(SCHEME, primary=2),
            MODEL, SCHEME, (5,), max_length=4,
        )
        assert sa_worst.ratio <= sa_competitive_factor(MODEL) + 1e-9
        assert da_worst.ratio <= da_competitive_factor(MODEL) + 1e-9
