"""Unit: the write-ahead log, snapshots and NodeDurability folding."""

from __future__ import annotations

import os
import struct

import pytest

from repro.cluster.durability import (
    DurableState,
    NodeDurability,
    node_state_dir,
    snapshot_path,
    wal_path,
)
from repro.cluster.metrics import NodeMetrics
from repro.exceptions import StorageError
from repro.storage.snapshot import SnapshotStore
from repro.storage.versions import ObjectVersion
from repro.storage.wal import (
    MAX_RECORD_BYTES,
    WriteAheadLog,
    inject_tail_corruption,
    inject_torn_tail,
)


@pytest.fixture
def log_path(tmp_path):
    return str(tmp_path / "wal.log")


class TestAppendReplay:
    def test_round_trip(self, log_path):
        wal = WriteAheadLog(log_path)
        wal.append("seed", {"version": {"number": 0, "writer": 1}})
        wal.append("object", {"version": {"number": 3, "writer": 2}})
        wal.append("inval")
        wal.close()

        result = WriteAheadLog(log_path).replay()
        assert not result.damaged
        assert result.truncated_bytes == 0
        assert [r.kind for r in result.records] == ["seed", "object", "inval"]
        assert [r.seq for r in result.records] == [1, 2, 3]
        assert result.records[1].payload["version"]["number"] == 3
        assert result.last_seq == 3

    def test_missing_file_replays_empty(self, log_path):
        result = WriteAheadLog(log_path).replay()
        assert result.records == ()
        assert not result.damaged

    def test_replay_resumes_sequence_numbers(self, log_path):
        wal = WriteAheadLog(log_path)
        wal.append("a")
        wal.append("b")
        wal.close()
        resumed = WriteAheadLog(log_path)
        resumed.replay()
        assert resumed.append("c").seq == 3

    def test_oversized_record_rejected(self, log_path):
        wal = WriteAheadLog(log_path)
        with pytest.raises(StorageError):
            wal.append("blob", {"data": "x" * (MAX_RECORD_BYTES + 1)})
        assert wal.size() == 0  # nothing was written

    def test_reset_truncates_but_keeps_numbering(self, log_path):
        wal = WriteAheadLog(log_path)
        wal.append("a")
        wal.append("b")
        wal.reset()
        assert wal.size() == 0
        assert wal.append("c").seq == 3

    def test_reset_truncates_the_open_handle_in_place(self, log_path):
        wal = WriteAheadLog(log_path)
        wal.append("a")
        handle, inode = wal._file, os.stat(log_path).st_ino
        for kind in ("b", "c", "d"):
            wal.reset()
            wal.append(kind)
            assert wal._file is handle and not handle.closed
            assert os.stat(log_path).st_ino == inode
        wal.close()
        assert [r.kind for r in WriteAheadLog(log_path).replay().records] == ["d"]

    def test_resume_from_validates(self, log_path):
        with pytest.raises(StorageError):
            WriteAheadLog(log_path).resume_from(0)


class TestDamage:
    def _filled(self, log_path, count=5):
        wal = WriteAheadLog(log_path)
        for index in range(count):
            wal.append("object", {"version": {"number": index, "writer": 1}})
        wal.close()
        return wal

    def test_torn_tail_truncates_to_valid_prefix(self, log_path):
        self._filled(log_path)
        removed = inject_torn_tail(log_path, 3)
        assert removed == 3
        result = WriteAheadLog(log_path).replay()
        assert result.damaged
        assert result.truncated_bytes > 0
        assert [r.seq for r in result.records] == [1, 2, 3, 4]

    def test_damaged_log_is_clean_after_replay(self, log_path):
        """Replay physically cuts the damage off, so a second replay
        of the same file reports an undamaged (shorter) log."""
        self._filled(log_path)
        inject_torn_tail(log_path, 1)
        WriteAheadLog(log_path).replay()
        again = WriteAheadLog(log_path).replay()
        assert not again.damaged
        assert len(again.records) == 4

    def test_append_continues_after_damage(self, log_path):
        self._filled(log_path)
        inject_torn_tail(log_path, 2)
        wal = WriteAheadLog(log_path)
        wal.replay()
        record = wal.append("object", {"version": {"number": 9, "writer": 1}})
        assert record.seq == 5  # right after the last surviving record
        wal.close()
        result = WriteAheadLog(log_path).replay()
        assert not result.damaged
        assert result.records[-1].seq == 5

    def test_flipped_byte_fails_crc(self, log_path):
        self._filled(log_path)
        assert inject_tail_corruption(log_path, offset_from_end=1)
        result = WriteAheadLog(log_path).replay()
        assert result.damaged
        assert [r.seq for r in result.records] == [1, 2, 3, 4]

    def test_whole_log_torn_away(self, log_path):
        self._filled(log_path, count=2)
        inject_torn_tail(log_path, os.path.getsize(log_path))
        result = WriteAheadLog(log_path).replay()
        assert result.records == ()
        assert not result.damaged  # an empty file is a valid empty log

    def test_length_bomb_is_damage(self, log_path):
        self._filled(log_path, count=2)
        with open(log_path, "ab") as handle:
            handle.write(struct.pack(">II", MAX_RECORD_BYTES + 1, 0))
            handle.write(b"x" * 16)
        result = WriteAheadLog(log_path).replay()
        assert result.damaged
        assert len(result.records) == 2
        assert not WriteAheadLog(log_path).replay().damaged

    def test_garbage_tail_is_damage(self, log_path):
        self._filled(log_path, count=3)
        with open(log_path, "ab") as handle:
            handle.write(b"\x00\x01garbage-not-a-frame")
        result = WriteAheadLog(log_path).replay()
        assert result.damaged
        assert len(result.records) == 3

    def test_sequence_regression_is_damage(self, log_path):
        wal = WriteAheadLog(log_path)
        wal.append("a")
        wal.append("b")
        wal.resume_from(2)  # force a duplicate sequence number
        wal.append("dup")
        wal.close()
        result = WriteAheadLog(log_path).replay()
        assert result.damaged
        assert [r.kind for r in result.records] == ["a", "b"]

    def test_injectors_demand_an_existing_log(self, log_path):
        with pytest.raises(StorageError):
            inject_torn_tail(log_path, 1)
        with pytest.raises(StorageError):
            inject_tail_corruption(log_path)

    def test_corruption_offset_past_start_is_a_noop(self, log_path):
        self._filled(log_path, count=1)
        assert not inject_tail_corruption(
            log_path, offset_from_end=os.path.getsize(log_path) + 1
        )


class TestSnapshotStore:
    def test_round_trip(self, tmp_path):
        store = SnapshotStore(str(tmp_path / "snap.bin"))
        state = {"version": {"number": 4, "writer": 2}, "valid": True}
        store.save(state)
        assert store.load() == state

    def test_missing_is_none(self, tmp_path):
        assert SnapshotStore(str(tmp_path / "nope.bin")).load() is None

    def test_corrupt_is_none(self, tmp_path):
        path = str(tmp_path / "snap.bin")
        store = SnapshotStore(path)
        store.save({"valid": True})
        inject_tail_corruption(path, offset_from_end=1)
        assert store.load() is None

    def test_save_overwrites_the_older_slot_in_place(self, tmp_path):
        path = str(tmp_path / "snap.bin")
        store = SnapshotStore(path)
        store.save({"gen": 1, "last_seq": 1})
        store.save({"gen": 2, "last_seq": 2})
        assert store.load() == {"gen": 2, "last_seq": 2}
        assert not os.path.exists(path + ".tmp")
        inodes = [os.stat(slot).st_ino for slot in store.paths]
        store.save({"gen": 3, "last_seq": 3})
        assert [os.stat(slot).st_ino for slot in store.paths] == inodes
        assert SnapshotStore(path).load() == {"gen": 3, "last_seq": 3}
        assert sorted(os.listdir(tmp_path)) == ["snap.bin", "snap.bin.1"]

    def test_load_falls_back_to_the_older_valid_slot(self, tmp_path):
        path = str(tmp_path / "snap.bin")
        store = SnapshotStore(path)
        store.save({"gen": 1, "last_seq": 1})
        store.save({"gen": 2, "last_seq": 2})
        inject_tail_corruption(store.paths[1], offset_from_end=1)
        fresh = SnapshotStore(path)
        assert fresh.load() == {"gen": 1, "last_seq": 1}
        # The next save overwrites the corrupt slot, not the survivor.
        fresh.save({"gen": 3, "last_seq": 3})
        assert fresh.load() == {"gen": 3, "last_seq": 3}
        fresh.delete()
        assert SnapshotStore(path).load() is None

    def test_delete(self, tmp_path):
        store = SnapshotStore(str(tmp_path / "snap.bin"))
        store.save({"gen": 1})
        store.delete()
        assert store.load() is None


class TestNodeDurability:
    def _durability(self, tmp_path, node_id=1, **kwargs):
        metrics = NodeMetrics(node_id=node_id)
        return (
            NodeDurability(node_id, str(tmp_path), metrics, **kwargs),
            metrics,
        )

    def test_paths_follow_the_layout(self, tmp_path):
        root = str(tmp_path)
        assert node_state_dir(root, 3).endswith("node-3")
        assert wal_path(root, 3) == os.path.join(root, "node-3", "wal.log")
        assert snapshot_path(root, 3).endswith(
            os.path.join("node-3", "snapshot.bin")
        )

    def test_typed_records_fold_back(self, tmp_path):
        durability, _ = self._durability(tmp_path)
        durability.log_seed(ObjectVersion(0, writer=1))
        durability.log_object(ObjectVersion(5, writer=2))
        durability.log_join({4, 2}, steward=True)
        durability.log_scheme({1, 2, 3})
        durability.log_commit(rid=17, number=5)
        durability.log_note("checkpointing", reason="test")
        durability.close()

        fresh, metrics = self._durability(tmp_path)
        state = fresh.recover()
        assert state.version == ObjectVersion(5, writer=2)
        assert state.valid
        assert state.join_list == {2, 4}
        assert state.steward
        assert state.scheme == (1, 2, 3)
        assert state.latest_commit == 5
        assert state.replayed == 6
        assert state.replay_cost == 6  # no snapshot involved
        assert not state.empty
        assert metrics.wal_replayed == 6

    def test_invalidate_folds_to_invalid(self, tmp_path):
        durability, _ = self._durability(tmp_path)
        durability.log_object(ObjectVersion(2, writer=1))
        durability.log_invalidate()
        durability.close()
        state = self._durability(tmp_path)[0].recover()
        assert state.version == ObjectVersion(2, writer=1)
        assert not state.valid

    def test_muted_appends_nothing(self, tmp_path):
        durability, metrics = self._durability(tmp_path)
        with durability.muted():
            durability.log_object(ObjectVersion(1, writer=1))
            durability.log_join({2}, steward=False)
        assert durability.wal.size() == 0
        assert metrics.wal_appends == 0
        assert self._durability(tmp_path)[0].recover().empty

    def test_snapshot_every_compacts_the_log(self, tmp_path):
        durability, metrics = self._durability(tmp_path, snapshot_every=4)
        captured = {"version": None, "valid": False, "join_list": [],
                    "steward": False, "scheme": [1, 2], "latest_commit": 0}

        def snapshot_state():
            version = durability.wal.last_seq
            return dict(
                captured,
                version={"number": version, "writer": 1},
                valid=True,
            )

        durability.snapshot_state = snapshot_state
        for number in range(1, 10):
            durability.log_object(ObjectVersion(number, writer=1))
        durability.close()
        assert metrics.snapshots_written == 2  # after records 4 and 8

        fresh, fresh_metrics = self._durability(tmp_path)
        state = fresh.recover()
        assert state.from_snapshot
        assert state.version == ObjectVersion(9, writer=1)  # snapshot + log
        assert state.replayed == 1  # only the post-snapshot record
        assert state.replay_cost == 2  # one snapshot + one record
        assert state.last_seq == 9
        # Appends continue where the pre-crash numbering left off.
        assert fresh.wal.next_seq == 10

    def test_corrupt_snapshot_degrades_to_log_replay(self, tmp_path):
        durability, _ = self._durability(tmp_path, node_id=2)
        durability.log_object(ObjectVersion(3, writer=2))
        durability.snapshot_state = lambda: {
            "version": {"number": 3, "writer": 2}, "valid": True,
            "join_list": [], "steward": False, "scheme": [1, 2],
            "latest_commit": 0,
        }
        durability.take_snapshot()
        durability.log_object(ObjectVersion(4, writer=2))
        durability.close()
        inject_tail_corruption(snapshot_path(str(tmp_path), 2))

        state = self._durability(tmp_path, node_id=2)[0].recover()
        assert not state.from_snapshot
        assert state.version == ObjectVersion(4, writer=2)

    def test_damaged_log_reports_truncation(self, tmp_path):
        durability, _ = self._durability(tmp_path)
        for number in range(1, 5):
            durability.log_object(ObjectVersion(number, writer=1))
        durability.close()
        inject_torn_tail(wal_path(str(tmp_path), 1), 2)

        fresh, metrics = self._durability(tmp_path)
        state = fresh.recover()
        assert state.damaged
        assert state.truncated_bytes > 0
        assert state.version == ObjectVersion(3, writer=1)
        assert metrics.wal_truncations == 1

    def test_unknown_kinds_are_forward_compatible(self, tmp_path):
        durability, _ = self._durability(tmp_path)
        durability.log_object(ObjectVersion(1, writer=1))
        durability.record("hologram", {"from": "the future"})
        durability.close()
        state = self._durability(tmp_path)[0].recover()
        assert state.version == ObjectVersion(1, writer=1)
        assert state.replayed == 2  # replayed, folded to nothing

    def test_empty_state(self, tmp_path):
        state = self._durability(tmp_path)[0].recover()
        assert state.empty
        assert state.replay_cost == 0
        assert DurableState().empty


class TestCheckpointSlots:
    """Checkpoints overwrite two fixed slots in place; recovery takes
    the newest valid one and folds only the log records after it."""

    def _durability(self, tmp_path, **kwargs):
        metrics = NodeMetrics(node_id=1)
        durability = NodeDurability(1, str(tmp_path), metrics, **kwargs)
        durability.snapshot_state = lambda: {
            "version": {"number": durability.wal.last_seq, "writer": 1},
            "valid": True, "join_list": [], "steward": False,
            "scheme": [1, 2], "latest_commit": 0,
        }
        return durability, metrics

    @staticmethod
    def _log(durability, count):
        for _ in range(count):
            number = durability.wal.next_seq
            durability.log_object(ObjectVersion(number, writer=1))

    @staticmethod
    def _folded(state):
        return (state.version, state.valid, state.join_list, state.steward,
                state.scheme, state.latest_commit, state.last_seq)

    def test_slots_keep_their_inodes_and_no_temp_file_appears(self, tmp_path):
        durability, metrics = self._durability(tmp_path, snapshot_every=2)
        self._log(durability, 4)
        slots = durability.snapshots.paths
        inodes = [os.stat(slot).st_ino for slot in slots]
        wal_inode = os.stat(wal_path(str(tmp_path), 1)).st_ino
        for _ in range(4):
            self._log(durability, 2)
            assert [os.stat(slot).st_ino for slot in slots] == inodes
            assert os.stat(wal_path(str(tmp_path), 1)).st_ino == wal_inode
            assert sorted(os.listdir(node_state_dir(str(tmp_path), 1))) == [
                "snapshot.bin", "snapshot.bin.1", "wal.log",
            ]
        assert metrics.snapshots_written == 6

    @pytest.mark.parametrize("checkpoints", [3, 4])
    def test_fresh_node_loads_the_newest_slot_and_overwrites_the_other(
        self, tmp_path, checkpoints
    ):
        durability, _ = self._durability(tmp_path, snapshot_every=0)
        for _ in range(checkpoints):
            self._log(durability, 2)
            durability.take_snapshot()
        durability.close()
        newest = (checkpoints - 1) % 2
        slots = durability.snapshots.paths
        with open(slots[newest], "rb") as handle:
            newest_frame = handle.read()

        fresh, _ = self._durability(tmp_path, snapshot_every=0)
        state = fresh.recover()
        assert state.from_snapshot and state.replayed == 0
        assert state.last_seq == 2 * checkpoints
        assert state.version == ObjectVersion(2 * checkpoints, writer=1)
        self._log(fresh, 1)
        fresh.take_snapshot()
        fresh.close()
        with open(slots[newest], "rb") as handle:
            assert handle.read() == newest_frame
        assert SnapshotStore(slots[0]).load()["last_seq"] == 2 * checkpoints + 1

    def test_log_records_inside_the_checkpoint_are_not_charged_again(
        self, tmp_path
    ):
        """A crash between the checkpoint and the log reset leaves the
        checkpointed records in the log; recovery skips them."""
        durability, _ = self._durability(tmp_path, snapshot_every=0)
        self._log(durability, 3)
        durability.wal.reset = lambda: None  # the crash: no reset
        durability.take_snapshot()
        self._log(durability, 1)
        durability.close()

        fresh, metrics = self._durability(tmp_path)
        state = fresh.recover()
        assert state.from_snapshot and not state.damaged
        assert state.replayed == 1
        assert state.replay_cost == 2  # one checkpoint + one record
        assert metrics.wal_replayed == 1
        assert state.version == ObjectVersion(4, writer=1)
        assert state.last_seq == 4
        assert fresh.wal.next_seq == 5

    def test_log_that_skips_past_the_checkpoint_is_damage(self, tmp_path):
        durability, _ = self._durability(tmp_path, snapshot_every=0)
        self._log(durability, 2)
        durability.take_snapshot()  # last_seq 2
        durability.wal.resume_from(5)  # records 3 and 4 never reach the log
        self._log(durability, 1)
        durability.close()

        fresh, metrics = self._durability(tmp_path)
        state = fresh.recover()
        assert state.from_snapshot
        assert state.damaged
        assert metrics.wal_truncations == 1
        assert state.last_seq == 5

    def test_newest_slot_torn_at_every_offset_recovers_the_same_state(
        self, tmp_path
    ):
        """Crash mid-checkpoint: the slot being overwritten holds a
        prefix of the new frame over its old content, and the log was
        not yet reset.  The older slot plus the log give the same state
        as the finished checkpoint."""
        durability, _ = self._durability(tmp_path, snapshot_every=0)
        for _ in range(2):
            self._log(durability, 3)
            durability.take_snapshot()
        self._log(durability, 3)
        slot = durability.snapshots.paths[0]  # holds the oldest checkpoint
        with open(slot, "rb") as handle:
            old_frame = handle.read()
        durability.wal.reset = lambda: None  # the crash: no reset
        durability.take_snapshot()
        durability.close()
        with open(slot, "rb") as handle:
            new_frame = handle.read()
        expected = self._folded(self._durability(tmp_path)[0].recover())
        assert expected[-1] == 9

        for cut in range(len(new_frame)):
            with open(slot, "wb") as handle:
                handle.write(new_frame[:cut] + old_frame[cut:])
            state = self._durability(tmp_path)[0].recover()
            assert self._folded(state) == expected, cut
            assert state.from_snapshot and not state.damaged, cut
