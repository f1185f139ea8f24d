"""Checkpoint snapshot store: atomic writes, manifest commit, checksums,
the v2 covered-seq vector, carry-forward entries, and v1 compatibility."""

import json
import os

import pytest

from repro.errors import CheckpointError
from repro.service.snapshot import MANIFEST_NAME, SnapshotStore


@pytest.fixture
def store(tmp_path):
    return SnapshotStore(str(tmp_path / "ckpt"))


def uniform(states, wal_seq):
    """Covered-seq vector placing every document at one position."""
    return {doc: wal_seq for doc in states}


class TestRoundTrip:
    def test_write_and_read_back(self, store):
        states = {"a.xml": b"<a/>", "b.xml": b"<b attr='1'/>"}
        manifest = store.write_checkpoint(states, uniform(states, 7))
        assert manifest.wal_seq == 7
        loaded = store.load_manifest()
        assert loaded is not None
        assert loaded.wal_seq == 7
        assert sorted(loaded.documents) == ["a.xml", "b.xml"]
        for doc, data in states.items():
            assert store.read_state(loaded, doc) == data
            assert loaded.documents[doc].covered_seq == 7

    def test_no_manifest_means_no_checkpoint(self, store):
        assert store.load_manifest() is None

    def test_wal_seq_is_the_minimum_covered_seq(self, store):
        """The manifest floor governs WAL retirement: it must be the
        *minimum* of the vector, not any single document's position."""
        states = {"a.xml": b"<a/>", "b.xml": b"<b/>"}
        manifest = store.write_checkpoint(states, {"a.xml": 3, "b.xml": 11})
        assert manifest.wal_seq == 3
        loaded = store.load_manifest()
        assert loaded.wal_seq == 3
        assert loaded.documents["a.xml"].covered_seq == 3
        assert loaded.documents["b.xml"].covered_seq == 11
        assert loaded.covered_for("a.xml") == 3
        assert loaded.covered_for("b.xml") == 11
        assert loaded.covered_for("unknown.xml") == 3  # falls back to the floor

    def test_filenames_are_versioned_by_covered_seq(self, store):
        """A crash mid-checkpoint must never leave the *old* manifest
        pointing at a *new* state file, so each re-snapshot writes under
        a fresh name (covered seqs strictly increase for a dirty
        document); delta replay is not idempotent and a mixed base
        would replay records already reflected in it."""
        store.write_checkpoint({"a.xml": b"v1"}, {"a.xml": 3})
        first = store.load_manifest().documents["a.xml"].file
        store.write_checkpoint({"a.xml": b"v2"}, {"a.xml": 9})
        second = store.load_manifest().documents["a.xml"].file
        assert first != second

    def test_old_checkpoint_files_are_swept(self, store):
        store.write_checkpoint({"a.xml": b"v1"}, {"a.xml": 3})
        store.write_checkpoint({"a.xml": b"v2"}, {"a.xml": 9})
        names = set(os.listdir(store.directory))
        manifest = store.load_manifest()
        assert names == {MANIFEST_NAME, manifest.documents["a.xml"].file}


class TestCarryForward:
    def test_carried_entry_reuses_the_previous_file(self, store):
        """An incremental checkpoint re-references a clean document's
        file — same bytes, same checksum, a possibly advanced covered
        seq — without rewriting it."""
        states = {"a.xml": b"<a/>", "b.xml": b"<b/>"}
        first = store.write_checkpoint(states, uniform(states, 5))
        b_file = first.documents["b.xml"].file
        b_mtime = os.path.getmtime(os.path.join(store.directory, b_file))
        second = store.write_checkpoint(
            {"a.xml": b"<a v='2'/>"},
            {"a.xml": 12, "b.xml": 12},
            carry={"b.xml": first.documents["b.xml"]},
        )
        assert second.documents["b.xml"].file == b_file
        assert second.documents["b.xml"].covered_seq == 12
        assert second.wal_seq == 12
        assert (
            os.path.getmtime(os.path.join(store.directory, b_file)) == b_mtime
        ), "carried state file must not be rewritten"
        loaded = store.load_manifest()
        assert store.read_state(loaded, "b.xml") == b"<b/>"
        assert store.read_state(loaded, "a.xml") == b"<a v='2'/>"

    def test_garbage_collection_keeps_carried_files(self, store):
        states = {"a.xml": b"<a/>", "b.xml": b"<b/>"}
        first = store.write_checkpoint(states, uniform(states, 5))
        second = store.write_checkpoint(
            {"a.xml": b"<a v='2'/>"},
            {"a.xml": 9, "b.xml": 9},
            carry={"b.xml": first.documents["b.xml"]},
        )
        names = set(os.listdir(store.directory))
        assert names == {
            MANIFEST_NAME,
            second.documents["a.xml"].file,
            second.documents["b.xml"].file,
        }

    def test_fresh_and_carried_must_not_overlap(self, store):
        first = store.write_checkpoint({"a.xml": b"<a/>"}, {"a.xml": 2})
        with pytest.raises(ValueError):
            store.write_checkpoint(
                {"a.xml": b"<a v='2'/>"},
                {"a.xml": 5},
                carry={"a.xml": first.documents["a.xml"]},
            )

    def test_every_document_needs_a_covered_seq(self, store):
        with pytest.raises(ValueError):
            store.write_checkpoint({"a.xml": b"<a/>", "b.xml": b"<b/>"}, {"a.xml": 2})

    def test_empty_corpus_uses_the_default_floor(self, store):
        manifest = store.write_checkpoint({}, {}, default_floor=17)
        assert manifest.wal_seq == 17
        assert store.load_manifest().wal_seq == 17


class TestV1Refused:
    def test_v1_manifest_is_refused_by_name(self, store):
        """A manifest written by the old quiesced protocol (version 1,
        one global ``wal_seq``, no per-entry covered seq) is no longer
        read: refused with the version in the message, never treated as
        "no checkpoint" (which would replay the WAL over the wrong
        base)."""
        states = {"a.xml": b"<a/>", "b.xml": b"<b/>"}
        store.write_checkpoint(states, uniform(states, 6))
        path = os.path.join(store.directory, MANIFEST_NAME)
        with open(path) as handle:
            payload = json.load(handle)
        payload["version"] = 1
        for entry in payload["documents"].values():
            del entry["covered_seq"]
        with open(path, "w") as handle:
            json.dump(payload, handle)
        with pytest.raises(CheckpointError, match="version 1"):
            store.load_manifest()


class TestCorruptionDetection:
    def test_checksum_mismatch_raises(self, store):
        store.write_checkpoint({"a.xml": b"good bytes"}, {"a.xml": 1})
        manifest = store.load_manifest()
        path = os.path.join(store.directory, manifest.documents["a.xml"].file)
        with open(path, "r+b") as handle:
            handle.write(b"BAD")
        with pytest.raises(CheckpointError):
            store.read_state(manifest, "a.xml")

    def test_missing_state_file_raises(self, store):
        store.write_checkpoint({"a.xml": b"bytes"}, {"a.xml": 1})
        manifest = store.load_manifest()
        os.remove(os.path.join(store.directory, manifest.documents["a.xml"].file))
        with pytest.raises(CheckpointError):
            store.read_state(manifest, "a.xml")

    def test_malformed_manifest_raises(self, store):
        store.write_checkpoint({"a.xml": b"bytes"}, {"a.xml": 1})
        with open(os.path.join(store.directory, MANIFEST_NAME), "w") as handle:
            handle.write('{"version": 2}')  # missing required keys
        with pytest.raises(CheckpointError):
            store.load_manifest()

    def test_v2_entry_missing_covered_seq_raises(self, store):
        """A version-2 manifest whose entries lack the vector is
        corrupt, not a v1 fallback."""
        store.write_checkpoint({"a.xml": b"bytes"}, {"a.xml": 4})
        path = os.path.join(store.directory, MANIFEST_NAME)
        with open(path) as handle:
            payload = json.load(handle)
        for entry in payload["documents"].values():
            del entry["covered_seq"]
        with open(path, "w") as handle:
            json.dump(payload, handle)
        with pytest.raises(CheckpointError):
            store.load_manifest()

    def test_unsupported_version_raises(self, store):
        store.write_checkpoint({"a.xml": b"bytes"}, {"a.xml": 1})
        path = os.path.join(store.directory, MANIFEST_NAME)
        with open(path) as handle:
            payload = json.load(handle)
        payload["version"] = 99
        with open(path, "w") as handle:
            json.dump(payload, handle)
        with pytest.raises(CheckpointError):
            store.load_manifest()

    def test_hostile_document_names_stay_in_directory(self, store):
        states = {"../escape.xml": b"x", "weird name?.xml": b"y"}
        store.write_checkpoint(states, uniform(states, 2))
        manifest = store.load_manifest()
        for doc, entry in manifest.documents.items():
            assert os.sep not in entry.file
            assert store.read_state(manifest, doc) == states[doc]
