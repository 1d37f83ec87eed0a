"""Unit tests for the storage substrate (repro.storage)."""

from __future__ import annotations

import pytest

from repro.distsim.network import Network
from repro.distsim.simulator import Simulator
from repro.exceptions import ConfigurationError, StorageError
from repro.storage.local_db import LocalDatabase
from repro.storage.versions import ObjectVersion, VersionCounter


class TestVersions:
    def test_ordering(self):
        older = ObjectVersion(1, writer=2)
        newer = ObjectVersion(2, writer=3)
        assert newer.newer_than(older)
        assert not older.newer_than(newer)
        assert older.newer_than(None)

    def test_negative_number_rejected(self):
        with pytest.raises(ConfigurationError):
            ObjectVersion(-1, writer=0)

    def test_counter_is_monotonic(self):
        counter = VersionCounter()
        first = counter.next_version(writer=1)
        second = counter.next_version(writer=2)
        assert second.number == first.number + 1
        assert counter.allocated == 2

    def test_counter_start(self):
        counter = VersionCounter(start=5)
        assert counter.next_version(writer=1).number == 5

    def test_str(self):
        assert str(ObjectVersion(3, writer=7)) == "v3@7"


def make_node(node_id=1):
    network = Network(Simulator(), control_latency=1.0, data_latency=3.0)
    (node,) = network.add_nodes([node_id])
    return network, node


class TestStableStorage:
    """The stored half of a LocalDatabase: the one version kept on the
    processor's stable storage (paper §3.1), apart from the volatile
    validity flag."""

    def test_write_then_read(self):
        db = LocalDatabase(owner=1)
        first = ObjectVersion(1, writer=1)
        second = ObjectVersion(2, writer=2)
        db.output_object(first)
        assert db.input_any_version() == first
        db.output_object(second)  # one slot: the newer output replaces it
        assert db.input_any_version() == second
        assert db.peek_version() == second

    def test_peek_missing_raises(self):
        # A crash on an empty database stores nothing: the peek still
        # reports no copy, and an input of the stored copy raises.
        db = LocalDatabase(owner=1)
        db.crash()
        assert db.peek_version() is None
        with pytest.raises(StorageError):
            db.input_any_version()

    def test_peek_is_uncharged(self):
        network, node = make_node()
        version = ObjectVersion(1, writer=1)
        node.output_object(version)
        assert node.database.peek_version() == version
        assert network.stats.io_reads == 0
        assert network.stats.io_writes == 1

    def test_survive_crash_preserves_content(self):
        db = LocalDatabase(owner=1)
        version = ObjectVersion(4, writer=2)
        db.output_object(version)
        db.crash()
        assert db.input_any_version() == version
        db.revalidate()
        assert db.input_object() == version

    def test_survive_crash_carries_counters_over(self):
        # The paper's c_io charges accumulate across crashes: a crash
        # loses volatile state, never the I/O already charged.
        network, node = make_node()
        node.output_object(ObjectVersion(1, writer=1))
        node.input_object()
        node.input_object()
        node.crash()
        node.recover()
        assert network.stats.io_reads == 2
        assert network.stats.io_writes == 1
        node.output_object(ObjectVersion(2, writer=1))
        assert network.stats.io_writes == 2

    def test_volatile_stable_split_matches_database_crash(self):
        # LocalDatabase.crash() must be exactly "the stored version
        # survives, validity is volatile": a crashed database and an
        # invalidated one hold the same state.
        crashed = LocalDatabase(owner=1)
        invalidated = LocalDatabase(owner=1)
        version = ObjectVersion(7, writer=1)
        for db in (crashed, invalidated):
            db.output_object(version)
        crashed.crash()
        invalidated.invalidate()
        for db in (crashed, invalidated):
            assert not db.holds_valid_copy  # the volatile half is gone
            assert db.peek_version() == version  # the stable half is not
            assert db.input_any_version() == version
            with pytest.raises(StorageError):
                db.input_object()  # a checked input refuses the copy


class TestLocalDatabase:
    def test_fresh_database_has_no_copy(self):
        db = LocalDatabase(owner=1)
        assert not db.holds_valid_copy
        assert db.peek_version() is None
        with pytest.raises(StorageError):
            db.input_object()

    def test_output_then_input(self):
        db = LocalDatabase(owner=1)
        version = ObjectVersion(1, writer=1)
        db.output_object(version)
        assert db.holds_valid_copy
        assert db.input_object() == version

    def test_invalidate_blocks_reads(self):
        db = LocalDatabase(owner=1)
        db.output_object(ObjectVersion(1, writer=1))
        db.invalidate()
        assert not db.holds_valid_copy
        with pytest.raises(StorageError):
            db.input_object()

    def test_invalidated_copy_still_on_stable_storage(self):
        db = LocalDatabase(owner=1)
        version = ObjectVersion(1, writer=1)
        db.output_object(version)
        db.invalidate()
        assert db.peek_version() == version

    def test_input_any_version_ignores_validity(self):
        # The quorum path: freshness by timestamp, not validity flag.
        db = LocalDatabase(owner=1)
        version = ObjectVersion(1, writer=1)
        db.output_object(version)
        db.invalidate()
        assert db.input_any_version() == version

    def test_seed_is_uncharged(self):
        # The database charges nothing; seeding through the node
        # installs the initial copy without an I/O charge, and the
        # first input after it is charged as usual.
        network, node = make_node()
        version = ObjectVersion(0, writer=1)
        node.seed_copy(version)
        assert node.database.holds_valid_copy
        assert node.database.peek_version() == version
        assert network.stats.io_reads == 0
        assert network.stats.io_writes == 0
        assert node.input_object() == version
        assert network.stats.io_reads == 1

    def test_input_any_version_without_copy_raises(self):
        with pytest.raises(StorageError):
            LocalDatabase(owner=1).input_any_version()

    def test_crash_keeps_storage_but_invalidates(self):
        db = LocalDatabase(owner=1)
        version = ObjectVersion(3, writer=1)
        db.output_object(version)
        db.crash()
        assert not db.holds_valid_copy  # the volatile half is gone
        assert db.peek_version() == version  # the stored half is not
        with pytest.raises(StorageError):
            db.input_object()  # a checked input refuses the suspect copy

    def test_revalidate_after_crash(self):
        db = LocalDatabase(owner=1)
        db.output_object(ObjectVersion(3, writer=1))
        db.crash()
        db.revalidate()
        assert db.holds_valid_copy

    def test_revalidate_without_copy_is_noop(self):
        db = LocalDatabase(owner=1)
        db.revalidate()
        assert not db.holds_valid_copy
