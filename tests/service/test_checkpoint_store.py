"""Generational checkpoint stores: durability, fallback, WAL."""

import json
import os

import pytest

from repro.service import (
    CheckpointCorruptError,
    DirectoryCheckpointStore,
    MemoryCheckpointStore,
    open_store,
)


@pytest.fixture(params=["memory", "directory"])
def store(request, tmp_path):
    if request.param == "memory":
        return MemoryCheckpointStore()
    return DirectoryCheckpointStore(str(tmp_path / "ckpt"))


def corrupt_latest(store, tenant, key):
    """Truncate the newest generation, whatever the backend."""
    if isinstance(store, MemoryCheckpointStore):
        store.corrupt_latest(tenant, key)
        return
    gen = store._generations(tenant, key)[-1]
    path = store._gen_path(tenant, key, gen)
    text = open(path).read()
    with open(path, "w") as handle:
        handle.write(text[: len(text) // 2])


MATCHER = {"fake": "matcher-state"}


class TestRoundTrip:
    def test_save_load(self, store):
        store.save("t", "k", 5, MATCHER)
        payload = store.load("t", "k")
        assert payload["seq"] == 5
        assert payload["matcher"] == MATCHER
        assert payload["tenant"] == "t" and payload["key"] == "k"

    def test_missing_session_loads_none(self, store):
        assert store.load("t", "nope") is None
        assert not store.has("t", "nope")

    def test_generations_pruned_to_keep(self, store):
        for seq in range(1, 6):
            store.save("t", "k", seq, MATCHER)
        assert len(store._generations("t", "k")) == store.keep_generations
        assert store.load("t", "k")["seq"] == 5

    def test_discard_forgets_everything(self, store):
        store.save("t", "k", 1, MATCHER)
        store.append_wal("t", "k", 2, "a", 100)
        store.discard("t", "k")
        assert store.load("t", "k") is None
        assert store.wal_suffix("t", "k", 0) == []

    def test_sessions_enumerates_coordinates(self, store):
        store.save("t1", "k1", 1, MATCHER)
        store.save("t2", "k2", 1, MATCHER)
        assert store.sessions() == [("t1", "k1"), ("t2", "k2")]


class TestWal:
    def test_append_and_suffix(self, store):
        for seq in range(1, 5):
            store.append_wal("t", "k", seq, "a", seq * 100)
        assert store.wal_suffix("t", "k", 2) == [
            (3, "a", 300), (4, "a", 400),
        ]

    def test_save_truncates_through_oldest_retained(self, store):
        for seq in range(1, 4):
            store.append_wal("t", "k", seq, "a", seq * 100)
        store.save("t", "k", 3, MATCHER)
        for seq in range(4, 7):
            store.append_wal("t", "k", seq, "b", seq * 100)
        store.save("t", "k", 6, MATCHER)
        # Two generations retained (seq 3 and 6): the WAL must keep
        # everything after seq 3 so a fallback to the older generation
        # can still replay to the present.
        assert store.wal_suffix("t", "k", 3) == [
            (4, "b", 400), (5, "b", 500), (6, "b", 600),
        ]
        # A third save drops the seq-3 generation and its WAL prefix.
        store.save("t", "k", 6, MATCHER)
        assert store.wal_suffix("t", "k", 3) == []


def count_reads(store, monkeypatch):
    """Count ``_read_generation`` calls on one store."""
    calls = []
    read = store._read_generation

    def counting(tenant, key, gen):
        calls.append(gen)
        return read(tenant, key, gen)

    monkeypatch.setattr(store, "_read_generation", counting)
    return calls


class TestSeqBookkeeping:
    def test_saves_never_parse_their_own_generations(self, monkeypatch):
        store = MemoryCheckpointStore(keep_generations=3)
        calls = count_reads(store, monkeypatch)
        for seq in range(1, 41):
            store.append_wal("t", "k", seq, "a", seq * 100)
            if seq % 4 == 0:
                store.save("t", "k", seq, MATCHER)
        assert calls == []
        # Three generations retained (seq 32, 36, 40): WAL after 32.
        assert [e[0] for e in store.wal_suffix("t", "k", 0)] == [
            33, 34, 35, 36, 37, 38, 39, 40,
        ]

    def test_corrupted_generation_keeps_a_superset_of_the_wal(
        self, store
    ):
        for seq in range(1, 7):
            store.append_wal("t", "k", seq, "a", seq * 100)
            if seq % 3 == 0:
                store.save("t", "k", seq, MATCHER)
        corrupt_latest(store, "t", "k")  # the seq-6 generation
        for seq in range(7, 10):
            store.append_wal("t", "k", seq, "b", seq * 100)
        before = store.wal_suffix("t", "k", 0)
        store.save("t", "k", 9, MATCHER)
        kept = store.wal_suffix("t", "k", 0)
        # The parse-based rule: the floor is the lowest seq among the
        # generations that still parse (only seq 9 here).
        readable = []
        for gen in store._generations("t", "k"):
            try:
                readable.append(store._read_generation("t", "k", gen)["seq"])
            except ValueError:
                pass
        assert readable == [9]
        parsed_rule = [e for e in before if e[0] > min(readable)]
        assert set(parsed_rule) <= set(kept)
        # The corrupted seq-6 generation still counts toward the
        # floor, so the gap from it to the present stays replayable.
        assert [e[0] for e in kept] == [7, 8, 9]

    def test_reopened_directory_store_parses_generations(
        self, tmp_path, monkeypatch
    ):
        root = str(tmp_path / "ckpt")
        first = DirectoryCheckpointStore(root)
        for seq in range(1, 4):
            first.append_wal("t", "k", seq, "a", seq * 100)
        first.save("t", "k", 3, MATCHER)
        for seq in range(4, 7):
            first.append_wal("t", "k", seq, "b", seq * 100)

        reopened = DirectoryCheckpointStore(root)
        calls = count_reads(reopened, monkeypatch)
        (gen,) = reopened._generations("t", "k")
        assert reopened._generation_seq("t", "k", gen) == 3
        assert calls == [gen]
        reopened.save("t", "k", 6, MATCHER)
        # The inherited seq-3 generation is parsed again for the
        # floor; the one this store wrote is not.
        assert calls == [gen, gen]
        assert [e[0] for e in reopened.wal_suffix("t", "k", 0)] == [
            4, 5, 6,
        ]


class TestCorruption:
    def test_fallback_to_previous_generation(self, store):
        store.save("t", "k", 3, MATCHER)
        store.save("t", "k", 6, {"newer": True})
        corrupt_latest(store, "t", "k")
        payload = store.load("t", "k")
        assert payload["seq"] == 3
        assert payload["matcher"] == MATCHER

    def test_all_generations_corrupt_raises(self, store):
        store.save("t", "k", 3, MATCHER)
        corrupt_latest(store, "t", "k")
        with pytest.raises(CheckpointCorruptError) as excinfo:
            store.load("t", "k")
        assert excinfo.value.tenant == "t"
        assert excinfo.value.key == "k"

    def test_wrong_shape_json_is_treated_as_corrupt(self, store):
        store.save("t", "k", 3, MATCHER)
        store.save("t", "k", 6, MATCHER)
        if isinstance(store, MemoryCheckpointStore):
            gen = store._generations("t", "k")[-1]
            store._data[("t", "k")][gen] = json.dumps(["not", "a", "dict"])
        else:
            gen = store._generations("t", "k")[-1]
            with open(store._gen_path("t", "k", gen), "w") as handle:
                json.dump(["not", "a", "dict"], handle)
        assert store.load("t", "k")["seq"] == 3


class TestDirectoryStore:
    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        store = DirectoryCheckpointStore(str(tmp_path / "ckpt"))
        store.save("t", "k", 1, MATCHER)
        session_dir = store._session_dir("t", "k")
        assert not [
            name for name in os.listdir(session_dir)
            if name.endswith(".tmp")
        ]

    def test_survives_reopen(self, tmp_path):
        root = str(tmp_path / "ckpt")
        first = DirectoryCheckpointStore(root)
        first.save("t", "k", 2, MATCHER)
        first.append_wal("t", "k", 3, "a", 100)
        reopened = DirectoryCheckpointStore(root)
        assert reopened.load("t", "k")["seq"] == 2
        assert reopened.wal_suffix("t", "k", 2) == [(3, "a", 100)]
        assert reopened.sessions() == [("t", "k")]

    def test_torn_wal_tail_is_skipped(self, tmp_path):
        store = DirectoryCheckpointStore(str(tmp_path / "ckpt"))
        store.append_wal("t", "k", 1, "a", 100)
        with open(store._wal_path("t", "k"), "a") as handle:
            handle.write('[2, "b"')  # crash mid-append
        assert store.wal_suffix("t", "k", 0) == [(1, "a", 100)]

    def test_open_store_picks_backend(self, tmp_path):
        assert isinstance(open_store(None), MemoryCheckpointStore)
        assert isinstance(
            open_store(str(tmp_path / "d")), DirectoryCheckpointStore
        )
