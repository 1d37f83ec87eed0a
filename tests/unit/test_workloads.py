"""Unit tests for the workload generators (repro.workloads)."""

from __future__ import annotations

import random

import pytest

from repro.exceptions import ConfigurationError
from repro.model.request import read, write
from repro.workloads import (
    MobileLocationWorkload,
    Phase,
    PhasedWorkload,
    ReaderWriterWorkload,
    UniformWorkload,
    ZipfWorkload,
    two_phase_shift,
)


class TestUniform:
    def test_length(self):
        workload = UniformWorkload(range(1, 6), 100, 0.2)
        assert len(workload.generate(0)) == 100

    def test_deterministic_per_seed(self):
        workload = UniformWorkload(range(1, 6), 50, 0.3)
        assert workload.generate(7) == workload.generate(7)
        assert workload.generate(7) != workload.generate(8)

    def test_write_fraction_approximate(self):
        workload = UniformWorkload(range(1, 6), 3000, 0.25)
        fraction = workload.generate(1).write_fraction
        assert 0.20 < fraction < 0.30

    def test_only_configured_processors(self):
        workload = UniformWorkload([3, 7], 80, 0.5)
        assert workload.generate(0).processors <= frozenset({3, 7})

    def test_rejects_bad_fraction(self):
        with pytest.raises(ConfigurationError):
            UniformWorkload([1, 2], 10, 1.5)

    def test_rejects_empty_processors(self):
        with pytest.raises(ConfigurationError):
            UniformWorkload([], 10)

    def test_rejects_negative_length(self):
        with pytest.raises(ConfigurationError):
            UniformWorkload([1], -1)

    def test_batch_uses_distinct_seeds(self):
        workload = UniformWorkload(range(1, 6), 30, 0.2)
        schedules = workload.batch(3, seed=100)
        assert len(schedules) == 3
        assert schedules[0] != schedules[1]

    def test_system_random_seed_yields_a_valid_schedule(self):
        workload = UniformWorkload(range(1, 6), 200, 0.3)
        schedule = workload.generate(random.SystemRandom())
        assert len(schedule) == 200
        assert schedule.processors <= frozenset(range(1, 6))
        assert schedule.columns.processors.tolist() == [
            request.processor for request in schedule
        ]
        assert schedule.columns.is_write.tolist() == [
            request.is_write for request in schedule
        ]

    def test_random_subclass_draws_from_its_own_stream(self):
        class Zeros(random.Random):
            # With random() overridden, choice() draws through it too.
            def random(self):
                return 0.0

        workload = UniformWorkload((4, 6, 9), 50, 0.5)
        assert list(workload.generate(Zeros(3))) == [write(4)] * 50
        assert workload.generate(Zeros(3)) != workload.generate(random.Random(3))


class TestZipf:
    def test_skews_toward_first_processor(self):
        workload = ZipfWorkload(range(1, 9), 4000, 0.0, exponent=1.5)
        schedule = workload.generate(0)
        counts = schedule.request_counts()
        assert counts[1]["reads"] > counts[8]["reads"] * 3

    def test_zero_exponent_is_uniformish(self):
        workload = ZipfWorkload(range(1, 5), 4000, 0.0, exponent=0.0)
        counts = workload.generate(0).request_counts()
        reads = [counts[p]["reads"] for p in range(1, 5)]
        assert max(reads) < 2 * min(reads)

    def test_rejects_negative_exponent(self):
        with pytest.raises(ConfigurationError):
            ZipfWorkload([1, 2], 10, exponent=-1.0)


class TestReaderWriter:
    def test_populations_respected(self):
        workload = ReaderWriterWorkload([1, 2], [8, 9], 500, 0.3)
        schedule = workload.generate(0)
        for request in schedule:
            if request.is_read:
                assert request.processor in {1, 2}
            else:
                assert request.processor in {8, 9}

    def test_rejects_empty_population(self):
        with pytest.raises(ConfigurationError):
            ReaderWriterWorkload([], [1], 10)


class TestPhased:
    def test_phase_validation(self):
        with pytest.raises(ConfigurationError):
            Phase({}, {}, length=5)
        with pytest.raises(ConfigurationError):
            Phase({1: -1.0}, {2: 1.0}, length=5)

    def test_phase_lengths_concatenate(self):
        workload = PhasedWorkload(
            [
                Phase({1: 1.0}, {1: 0.2}, 30),
                Phase({2: 1.0}, {2: 0.2}, 20),
            ]
        )
        assert len(workload.generate(0)) == 50

    def test_activity_follows_phases(self):
        workload = PhasedWorkload(
            [
                Phase({1: 1.0}, {}, 40),
                Phase({2: 1.0}, {}, 40),
            ]
        )
        schedule = workload.generate(0)
        first, second = schedule[:40], schedule[40:]
        assert first.processors == frozenset({1})
        assert second.processors == frozenset({2})

    def test_two_phase_shift_shape(self):
        workload = two_phase_shift(1, 2, others=[3, 4], phase_length=100)
        schedule = workload.generate(0)
        assert len(schedule) == 200
        counts = schedule.request_counts()
        # The heavy processors dominate their phases.
        assert counts[1]["reads"] > counts[3]["reads"]
        assert counts[2]["reads"] > counts[4]["reads"]

    def test_requires_at_least_one_phase(self):
        with pytest.raises(ConfigurationError):
            PhasedWorkload([])


class TestMobility:
    def test_writes_come_from_cells(self):
        workload = MobileLocationWorkload(
            cells=[1, 2, 3], callers=[10, 11], length=400, move_probability=0.3
        )
        schedule = workload.generate(0)
        for request in schedule:
            if request.is_write:
                assert request.processor in {1, 2, 3}
            else:
                assert request.processor in {10, 11}

    def test_move_probability_zero_means_reads_only(self):
        workload = MobileLocationWorkload(
            cells=[1], callers=[10], length=50, move_probability=0.0
        )
        assert workload.generate(0).write_count == 0

    def test_single_cell_cannot_move(self):
        workload = MobileLocationWorkload(
            cells=[1], callers=[10], length=50, move_probability=1.0
        )
        assert workload.generate(0).write_count == 0

    def test_consecutive_writes_come_from_different_cells(self):
        workload = MobileLocationWorkload(
            cells=[1, 2, 3], callers=[10], length=300, move_probability=0.9
        )
        schedule = workload.generate(3)
        writers = [r.processor for r in schedule if r.is_write]
        assert all(a != b for a, b in zip(writers, writers[1:]))

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            MobileLocationWorkload([], [1], 10)
        with pytest.raises(ConfigurationError):
            MobileLocationWorkload([1], [], 10)
        with pytest.raises(ConfigurationError):
            MobileLocationWorkload([1], [2], 10, move_probability=2.0)
        with pytest.raises(ConfigurationError):
            MobileLocationWorkload([1], [2], 10, start_cell=9)
