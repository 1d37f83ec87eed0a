"""Unit tests for repro.model.request."""

from __future__ import annotations

import pytest

from repro.exceptions import ConfigurationError
from repro.model.request import (
    ExecutedRequest,
    Request,
    RequestKind,
    read,
    write,
)


class TestRequestParsing:
    def test_parse_read(self):
        request = Request.parse("r1")
        assert request.kind is RequestKind.READ
        assert request.processor == 1

    def test_parse_write(self):
        request = Request.parse("w42")
        assert request.kind is RequestKind.WRITE
        assert request.processor == 42

    def test_parse_strips_whitespace(self):
        assert Request.parse("  r7  ") == read(7)

    def test_parse_rejects_garbage(self):
        with pytest.raises(ConfigurationError):
            Request.parse("x3")

    def test_parse_rejects_missing_processor(self):
        with pytest.raises(ConfigurationError):
            Request.parse("r")

    def test_parse_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            Request.parse("r-1")

    def test_roundtrip_via_str(self):
        for token in ("r0", "w3", "r17"):
            assert str(Request.parse(token)) == token


class TestRequestProperties:
    def test_read_constructor(self):
        assert read(5).is_read
        assert not read(5).is_write

    def test_write_constructor(self):
        assert write(5).is_write
        assert not write(5).is_read

    def test_negative_processor_rejected(self):
        with pytest.raises(ConfigurationError):
            Request(RequestKind.READ, -1)

    def test_requests_are_hashable_values(self):
        assert read(1) == read(1)
        assert read(1) != write(1)
        assert read(1) != read(2)
        assert len({read(1), read(1), write(1)}) == 2


class TestExecutedRequest:
    def test_execution_set_normalized(self):
        executed = ExecutedRequest(read(1), [3, 2, 3])
        assert executed.execution_set == frozenset({2, 3})

    def test_empty_execution_set_rejected(self):
        with pytest.raises(ConfigurationError):
            ExecutedRequest(read(1), frozenset())

    def test_saving_write_rejected(self):
        with pytest.raises(ConfigurationError):
            ExecutedRequest(write(1), {1}, saving=True)

    def test_saving_read_flags(self):
        executed = ExecutedRequest(read(4), {1}, saving=True)
        assert executed.is_saving_read
        assert executed.is_read
        assert not executed.is_write

    def test_non_saving_read_flags(self):
        executed = ExecutedRequest(read(4), {1})
        assert not executed.is_saving_read

    def test_processor_shortcut(self):
        executed = ExecutedRequest(write(9), {1, 2})
        assert executed.processor == 9

    def test_str_marks_saving_reads(self):
        executed = ExecutedRequest(read(4), {1, 2}, saving=True)
        assert str(executed) == "_r4{1,2}"

    def test_str_plain(self):
        executed = ExecutedRequest(write(2), {2, 3})
        assert str(executed) == "w2{2,3}"


class TestInterning:
    def test_constructors_share_one_instance(self):
        assert read(3) is read(3)
        assert write(3) is write(3)
        assert read(3) is not write(3)

    def test_direct_construction_is_equal_but_new(self):
        direct = Request(RequestKind.READ, 3)
        assert direct == read(3)
        assert hash(direct) == hash(read(3))
        assert direct is not read(3)

    def test_negative_id_still_raises(self):
        with pytest.raises(ConfigurationError):
            read(-1)
        with pytest.raises(ConfigurationError):
            write(-4)

    def test_only_plain_ints_are_interned(self):
        import numpy as np

        # A numpy id equals and hashes like the int, but must not
        # become the instance later read(int) callers receive.
        assert read(np.int64(23)) == read(23)
        assert type(read(23).processor) is int
        assert read(np.int64(23)) is not read(23)
