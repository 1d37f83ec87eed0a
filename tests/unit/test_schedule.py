"""Unit tests for repro.model.schedule."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.model.request import RequestKind, read, write
from repro.model.schedule import Schedule, concat


class TestParsing:
    def test_parse_paper_example(self, paper_schedule):
        assert len(paper_schedule) == 5
        assert paper_schedule[0] == write(2)
        assert paper_schedule[1] == read(4)
        assert paper_schedule[4] == read(2)

    def test_parse_empty(self):
        assert len(Schedule.parse("")) == 0

    def test_str_roundtrip(self, paper_schedule):
        assert Schedule.parse(str(paper_schedule)) == paper_schedule

    def test_rejects_non_request_items(self):
        with pytest.raises(ConfigurationError):
            Schedule(("r1",))


class TestSequenceProtocol:
    def test_iteration(self, paper_schedule):
        kinds = [request.kind for request in paper_schedule]
        assert kinds == [
            RequestKind.WRITE,
            RequestKind.READ,
            RequestKind.WRITE,
            RequestKind.READ,
            RequestKind.READ,
        ]

    def test_slicing_returns_schedule(self, paper_schedule):
        prefix = paper_schedule[:2]
        assert isinstance(prefix, Schedule)
        assert str(prefix) == "w2 r4"

    def test_concatenation(self):
        left = Schedule.parse("r1")
        right = Schedule.parse("w2")
        assert str(left + right) == "r1 w2"

    def test_repetition(self):
        base = Schedule.parse("r1 w2")
        assert str(base * 3) == "r1 w2 r1 w2 r1 w2"
        assert str(0 * base) == ""

    def test_negative_repetition_rejected(self):
        with pytest.raises(ConfigurationError):
            Schedule.parse("r1") * -1

    def test_concat_helper(self):
        parts = [Schedule.parse("r1"), Schedule.parse("w2 r3")]
        assert str(concat(parts)) == "r1 w2 r3"


class TestStatistics:
    def test_processors(self, paper_schedule):
        assert paper_schedule.processors == frozenset({1, 2, 3, 4})

    def test_read_write_counts(self, paper_schedule):
        assert paper_schedule.read_count == 3
        assert paper_schedule.write_count == 2

    def test_write_fraction(self, paper_schedule):
        assert paper_schedule.write_fraction == pytest.approx(0.4)

    def test_write_fraction_of_empty_schedule(self):
        assert Schedule().write_fraction == 0.0

    def test_per_processor_counts(self, paper_schedule):
        assert paper_schedule.reads_by(2) == 1
        assert paper_schedule.writes_by(2) == 1
        assert paper_schedule.reads_by(4) == 1
        assert paper_schedule.writes_by(4) == 0

    def test_request_counts_mapping(self, paper_schedule):
        counts = paper_schedule.request_counts()
        assert counts[2] == {"reads": 1, "writes": 1}
        assert counts[3] == {"reads": 0, "writes": 1}


class TestTransformations:
    def test_prefix(self, paper_schedule):
        assert str(paper_schedule.prefix(3)) == "w2 r4 w3"

    def test_runs_encoding(self):
        schedule = Schedule.parse("r1 r1 r1 w2 r1")
        runs = schedule.runs()
        assert runs == [
            (RequestKind.READ, 1, 3),
            (RequestKind.WRITE, 2, 1),
            (RequestKind.READ, 1, 1),
        ]

    def test_runs_of_empty_schedule(self):
        assert Schedule().runs() == []


class TestColumns:
    def test_lazy_columns_match_requests(self):
        schedule = Schedule.parse("w2 r4 w3 r1 r2")
        columns = schedule.columns
        assert columns.processors.dtype == np.int64
        assert columns.processors.tolist() == [2, 4, 3, 1, 2]
        assert columns.is_write.tolist() == [True, False, True, False, False]
        assert schedule.columns is columns  # computed once

    def test_empty_schedule_has_empty_columns(self):
        columns = Schedule().columns
        assert columns.processors.shape == (0,)
        assert columns.is_write.shape == (0,)

    def test_columns_are_read_only(self):
        for schedule in (
            Schedule.parse("r1 w2"),
            Schedule.with_columns((read(1), write(2)), [1, 2], [False, True]),
        ):
            with pytest.raises(ValueError):
                schedule.columns.processors[0] = 7
            with pytest.raises(ValueError):
                schedule.columns.is_write[0] = True

    def test_identity_ignores_the_cache(self):
        from repro.engine.keys import stable_key

        schedule = Schedule.parse("w2 r4 w3 r1 r2")
        before = (stable_key(schedule), hash(schedule), repr(schedule))
        schedule.columns
        assert (stable_key(schedule), hash(schedule), repr(schedule)) == before

    def test_prefilled_schedule_is_the_same_value(self):
        requests = (write(2), read(4), write(3))
        filled = Schedule.with_columns(requests, [2, 4, 3], [True, False, True])
        plain = Schedule(requests)
        assert filled == plain
        assert hash(filled) == hash(plain)
        assert repr(filled) == repr(plain)

    def test_pickle_round_trip_keeps_equality(self):
        import pickle

        schedule = Schedule.parse("w2 r4 w3 r1 r2")
        schedule.columns
        clone = pickle.loads(pickle.dumps(schedule))
        assert clone == schedule
        assert "_columns" not in vars(clone)  # the cache is not shipped
        assert clone.columns.processors.tolist() == [2, 4, 3, 1, 2]

    def test_with_columns_rejects_mismatched_lengths(self):
        with pytest.raises(ConfigurationError):
            Schedule.with_columns((read(1),), [1, 2], [False, False])
