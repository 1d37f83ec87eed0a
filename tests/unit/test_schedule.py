"""Unit tests for repro.model.schedule."""

from __future__ import annotations

import copy
import pickle

import numpy as np
import pytest

from repro.engine.keys import stable_key
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
            Schedule.from_columns(
                [1, 2], [False, True], lambda: (read(1), write(2))
            ),
        ):
            with pytest.raises(ValueError):
                schedule.columns.processors[0] = 7
            with pytest.raises(ValueError):
                schedule.columns.is_write[0] = True

    def test_identity_ignores_the_cache(self):
        schedule = Schedule.parse("w2 r4 w3 r1 r2")
        before = (stable_key(schedule), hash(schedule), repr(schedule))
        schedule.columns
        assert (stable_key(schedule), hash(schedule), repr(schedule)) == before

    def test_prefilled_schedule_is_the_same_value(self):
        requests = (write(2), read(4), write(3))
        filled = Schedule.from_columns(
            [2, 4, 3], [True, False, True], lambda: requests
        )
        plain = Schedule(requests)
        assert filled == plain
        assert hash(filled) == hash(plain)
        assert repr(filled) == repr(plain)

    def test_pickle_round_trip_keeps_equality(self):
        schedule = Schedule.parse("w2 r4 w3 r1 r2")
        schedule.columns
        clone = pickle.loads(pickle.dumps(schedule))
        assert clone == schedule
        assert "_columns" not in vars(clone)  # the cache is not shipped
        assert clone.columns.processors.tolist() == [2, 4, 3, 1, 2]

    def test_from_columns_rejects_mismatched_lengths(self):
        with pytest.raises(ConfigurationError):
            Schedule.from_columns([1, 2], [False], lambda: (read(1),))
        with pytest.raises(ConfigurationError):
            Schedule.from_columns([[1, 2]], [[False, True]], lambda: ())


#: What a columns-first schedule and its eager twin must agree on; each
#: is the first read of ``requests`` on a fresh columns-first schedule.
OBSERVERS = {
    "eq": lambda schedule, twin: schedule == twin and twin == schedule,
    "hash": lambda schedule, twin: hash(schedule) == hash(twin),
    "repr": lambda schedule, twin: repr(schedule) == repr(twin),
    "str": lambda schedule, twin: str(schedule) == str(twin),
    "stable_key": lambda schedule, twin: (
        stable_key(schedule) == stable_key(twin)
    ),
    "pickle": lambda schedule, twin: (
        pickle.loads(pickle.dumps(schedule)) == twin
    ),
    "copy": lambda schedule, twin: copy.deepcopy(schedule) == twin,
    "slice": lambda schedule, twin: schedule[1:3] == twin[1:3],
    "index": lambda schedule, twin: schedule[-1] == twin[-1],
    "add": lambda schedule, twin: schedule + twin == twin + twin,
    "mul": lambda schedule, twin: schedule * 2 == twin * 2 == 2 * schedule,
    "iter": lambda schedule, twin: list(schedule) == list(twin),
}


class TestColumnsFirst:
    REQUESTS = (write(2), read(4), write(3), read(1), read(2))

    def columns_first(self):
        calls = []

        def build():
            calls.append(None)
            return self.REQUESTS

        schedule = Schedule.from_columns(
            [2, 4, 3, 1, 2], [True, False, True, False, False], build
        )
        return schedule, calls

    @pytest.mark.parametrize("observer", sorted(OBSERVERS))
    def test_observers_see_the_eager_twin(self, observer):
        schedule, calls = self.columns_first()
        assert "requests" not in vars(schedule)
        assert OBSERVERS[observer](schedule, Schedule(self.REQUESTS))
        assert vars(schedule)["requests"] == self.REQUESTS
        assert len(calls) == 1

    def test_requests_are_built_once(self):
        schedule, calls = self.columns_first()
        assert schedule.requests is schedule.requests
        assert len(calls) == 1

    def test_length_and_columns_do_not_build(self):
        schedule, calls = self.columns_first()
        assert len(schedule) == 5
        assert schedule.columns.processors.tolist() == [2, 4, 3, 1, 2]
        assert "requests" not in vars(schedule)
        assert calls == []

    def test_other_missing_attributes_still_raise(self):
        schedule, calls = self.columns_first()
        assert not hasattr(schedule, "missing")
        assert not hasattr(Schedule(), "missing")
        assert calls == []
