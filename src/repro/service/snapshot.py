"""Crash-safe checkpoint snapshots of hosted state.

A checkpoint persists each host's state so the WAL segments covering it
can be retired, bounding recovery time by the post-checkpoint log
length.  The store keeps one directory per service::

    <dir>/MANIFEST.json          the checkpoint's commit record
    <dir>/<slug>.<seq>.snap      one state file per snapshotted document

The manifest commits a *per-document covered-seq vector*: each entry
records the last WAL sequence number its state file reflects, and the
manifest's top-level ``wal_seq`` is the **minimum** covered seq across
documents — the retirement floor.  Recovery replays, per document, only
records past that document's own covered seq, so a fuzzy checkpoint can
capture documents one at a time (at different log positions) while
commits continue.  A manifest of any other version (v1 carried a single
global ``wal_seq``) is refused with :class:`CheckpointError`.

Incremental checkpoints pass ``carry``: entries from the previous
manifest whose documents are unchanged are re-referenced (same file,
same checksum, a possibly advanced covered seq) without rewriting their
state bytes — checkpoint cost tracks write volume, not corpus size.

Protocol (every step crash-safe):

1. each *fresh* state file is written to a temp name, fsynced, and
   atomically renamed into place — under a *versioned* name (the
   document's covered seq is part of the filename, and covered seqs
   strictly increase for a re-snapshotted document), so a checkpoint in
   progress never overwrites a file the committed manifest references;
2. the directory entry is fsynced;
3. the manifest — JSON naming the covered-seq floor and, per document,
   the exact file with its SHA-256, size, and covered seq — is written
   the same way: temp, fsync, rename, directory fsync.  **The manifest
   rename is the checkpoint's commit point**: before it, recovery uses
   the previous checkpoint (or none); after it, the new vector governs;
4. files not referenced by the new manifest (superseded snapshots,
   stray temp files) are garbage-collected — carried-forward files are
   referenced and therefore kept; a crash here leaves only unreferenced
   litter for the next checkpoint to sweep.

State bytes are host-defined: serialised XML for document hosts, a
SQLite database image for store hosts (which preserves tuple ids, so
post-checkpoint relational operations replay against the right rows).

All writes go through :class:`~repro.service.faults.Filesystem` so the
fault-injection harness can crash a checkpoint at every boundary; loads
verify the manifest's checksums and raise :class:`CheckpointError` on
any mismatch rather than recovering from a corrupt base.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from dataclasses import dataclass
from typing import Mapping, Optional

from repro.errors import CheckpointError
from repro.obs import get_registry, span
from repro.service.faults import Filesystem

MANIFEST_NAME = "MANIFEST.json"
MANIFEST_VERSION = 2


def _slug(doc: str) -> str:
    """A filesystem-safe, collision-free stand-in for a document name."""
    safe = re.sub(r"[^A-Za-z0-9._-]+", "-", doc).strip(".-") or "doc"
    digest = hashlib.sha256(doc.encode("utf-8")).hexdigest()[:8]
    return f"{safe}-{digest}"


@dataclass(frozen=True)
class SnapshotEntry:
    """One document's state file, as named by the manifest."""

    file: str
    sha256: str
    size: int
    covered_seq: int  # every WAL record for this doc with seq <= this is in the file


@dataclass(frozen=True)
class CheckpointManifest:
    """A loaded checkpoint: its covered-seq vector and state files.

    ``wal_seq`` is the minimum covered seq across documents — the WAL
    retirement floor (0 for an empty corpus unless the writer supplied
    a floor).
    """

    wal_seq: int
    documents: dict  # doc name -> SnapshotEntry

    def covered_for(self, doc: str) -> int:
        """The replay threshold for one document (the floor if unknown)."""
        entry = self.documents.get(doc)
        return entry.covered_seq if entry is not None else self.wal_seq


class SnapshotStore:
    """Atomic persistence of per-host state plus the covering manifest."""

    def __init__(self, directory: str, fs: Optional[Filesystem] = None) -> None:
        self.directory = directory
        self.fs = fs or Filesystem()

    # ------------------------------------------------------------------
    # Write path (fuzzy: commits may land while states are written; the
    # covered-seq vector is the caller's consistency claim per document)
    # ------------------------------------------------------------------
    def write_checkpoint(
        self,
        states: Mapping[str, bytes],
        covered: Mapping[str, int],
        carry: Optional[Mapping[str, SnapshotEntry]] = None,
        default_floor: int = 0,
    ) -> CheckpointManifest:
        """Persist a checkpoint: fresh ``states`` plus carried entries.

        ``covered`` maps every document (fresh *and* carried) to the
        last WAL seq its state reflects.  ``carry`` re-references a
        previous manifest's still-valid files — their bytes are not
        rewritten, only their manifest entry (with the new covered seq).
        ``default_floor`` is the manifest ``wal_seq`` when there are no
        documents at all (an empty corpus still retires its log).
        """
        carry = carry or {}
        overlap = set(states) & set(carry)
        if overlap:
            raise ValueError(f"documents both fresh and carried: {sorted(overlap)}")
        missing = (set(states) | set(carry)) - set(covered)
        if missing:
            raise ValueError(f"documents without a covered seq: {sorted(missing)}")
        self.fs.makedirs(self.directory)
        entries: dict[str, SnapshotEntry] = {}
        registry = get_registry()
        with span("snapshot.write", documents=len(states), carried=len(carry)):
            for doc in sorted(states):
                data = states[doc]
                name = f"{_slug(doc)}.{covered[doc]:012d}.snap"
                self._write_atomic(name, data)
                entries[doc] = SnapshotEntry(
                    file=name,
                    sha256=hashlib.sha256(data).hexdigest(),
                    size=len(data),
                    covered_seq=covered[doc],
                )
                registry.counter("checkpoint.snapshot_bytes").inc(len(data))
            for doc in sorted(carry):
                previous = carry[doc]
                entries[doc] = SnapshotEntry(
                    file=previous.file,
                    sha256=previous.sha256,
                    size=previous.size,
                    covered_seq=covered[doc],
                )
            floor = min(
                (entry.covered_seq for entry in entries.values()),
                default=default_floor,
            )
            payload = {
                "version": MANIFEST_VERSION,
                "wal_seq": floor,
                "documents": {
                    doc: {
                        "file": entry.file,
                        "sha256": entry.sha256,
                        "size": entry.size,
                        "covered_seq": entry.covered_seq,
                    }
                    for doc, entry in entries.items()
                },
            }
            encoded = json.dumps(payload, indent=2, sort_keys=True).encode("ascii")
            self._write_atomic(MANIFEST_NAME, encoded)  # the commit point
            self._collect_garbage(
                {MANIFEST_NAME} | {entry.file for entry in entries.values()}
            )
        return CheckpointManifest(wal_seq=floor, documents=entries)

    def _write_atomic(self, name: str, data: bytes) -> None:
        path = os.path.join(self.directory, name)
        tmp = path + ".tmp"
        file = self.fs.open(tmp, "w+b")
        try:
            file.write(data)
            self.fs.fsync(file)
        finally:
            file.close()
        self.fs.replace(tmp, path)
        self.fs.fsync_dir(self.directory)

    def _collect_garbage(self, keep: set) -> None:
        """Sweep files no manifest references (older checkpoints, temps)."""
        for name in sorted(os.listdir(self.directory)):
            if name in keep:
                continue
            try:
                self.fs.remove(os.path.join(self.directory, name))
            except OSError:  # pragma: no cover - a racing sweep is harmless
                pass

    # ------------------------------------------------------------------
    # Read path (recovery; plain reads, never injected)
    # ------------------------------------------------------------------
    def load_manifest(self) -> Optional[CheckpointManifest]:
        """The last committed checkpoint, or None if there has been none."""
        path = os.path.join(self.directory, MANIFEST_NAME)
        if not os.path.exists(path):
            return None
        try:
            with open(path, "rb") as handle:
                payload = json.loads(handle.read().decode("ascii"))
            version = payload["version"]
            if version != MANIFEST_VERSION:
                raise CheckpointError(
                    f"unsupported checkpoint manifest version {version!r} "
                    f"(only version {MANIFEST_VERSION} is read)"
                )
            wal_seq = int(payload["wal_seq"])
            documents = {
                doc: SnapshotEntry(
                    file=str(entry["file"]),
                    sha256=str(entry["sha256"]),
                    size=int(entry["size"]),
                    covered_seq=int(entry["covered_seq"]),
                )
                for doc, entry in payload["documents"].items()
            }
            return CheckpointManifest(wal_seq=wal_seq, documents=documents)
        except (ValueError, KeyError, TypeError) as error:
            raise CheckpointError(f"malformed checkpoint manifest: {error}") from error

    def read_state(self, manifest: CheckpointManifest, doc: str) -> bytes:
        """One document's checkpointed state, checksum-verified."""
        entry = manifest.documents[doc]
        path = os.path.join(self.directory, entry.file)
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except OSError as error:
            raise CheckpointError(
                f"checkpoint state for {doc!r} unreadable: {error}"
            ) from error
        if len(data) != entry.size or hashlib.sha256(data).hexdigest() != entry.sha256:
            raise CheckpointError(
                f"checkpoint state for {doc!r} fails its manifest checksum"
            )
        return data
