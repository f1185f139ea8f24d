"""`UpdateService`: a long-lived concurrent update server over the stores.

The service fronts any number of *hosts* — a :class:`DocumentHost`
(an in-memory :class:`~repro.xmlmodel.model.Document`, updated with
deltas) or a :class:`StoreHost` (an :class:`~repro.relational.store.XmlStore`,
updated with subtree delete/copy operations that run through the
paper's SQL strategies) — behind one WAL, one group-commit batcher,
and per-document reader-writer locks:

* ``submit`` enqueues an operation and returns a ticket that resolves
  once the operation is durable and applied;
* ``query`` runs read-only work on a thread pool under the document's
  read lock, so readers proceed concurrently while writers serialise;
* ``execute`` runs an XQuery statement server-side: a read as a query,
  an update on a copy of the document whose recorded effect is
  submitted as one delta;
* ``flush`` is a barrier over everything submitted before it;
* ``close`` drains the queue, stops the committer, and closes the WAL.

Batch application coalesces *adjacent* compatible relational operations
per document — same kind, relation, and (for copies) target parent —
into one strategy invocation, which is where the measured
statements-per-update drop at batch size 64 comes from.  Store hosts
get transactional batches: if any operation of a document's group
fails, the whole group rolls back and every one of its tickets fails.
Document hosts apply deltas in place, so a failing delta fails only its
own ticket.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence, Union

from repro.errors import ServiceClosedError, ServiceError, ServiceTimeoutError
from repro.obs import get_registry, span
from repro.relational.store import XmlStore
from repro.service.batcher import GroupCommitBatcher, Ticket
from repro.service.faults import Filesystem
from repro.service.locks import LockManager
from repro.service.ops import DeltaUpdate, ServiceOp, SubtreeCopy, SubtreeDelete
from repro.service.recovery import RecoveryReport, replay
from repro.service.snapshot import CheckpointManifest, SnapshotStore
from repro.service.wal import WriteAheadLog
from repro.updates.delta import DeltaOp, apply_delta
from repro.xmlmodel.model import Document, Element
from repro.xmlmodel.parser import XmlParser
from repro.xmlmodel.policy import RefPolicy
from repro.xmlmodel.serializer import serialize
from repro.xpath.evaluator import string_value
from repro.xquery.engine import QueryResult, XQueryEngine


class DocumentHost:
    """An in-memory document served with delta updates."""

    transactional = False

    def __init__(
        self, name: str, document: Document, policy: Optional[RefPolicy] = None
    ) -> None:
        self.name = name
        self.document = document
        self.policy = policy or RefPolicy.default()

    def apply(self, op: ServiceOp) -> None:
        if not isinstance(op, DeltaUpdate):
            raise ServiceError(
                f"document host {self.name!r} only accepts delta updates, "
                f"got {type(op).__name__}"
            )
        apply_delta(self.document, list(op.ops), self.policy)

    def commit(self) -> None:  # in-memory: nothing to do
        pass

    def rollback(self) -> None:  # in-memory: cannot undo
        pass

    def serialize(self) -> str:
        return serialize(self.document)

    def snapshot_state(self) -> bytes:
        """Checkpoint image: the serialised document."""
        return serialize(self.document).encode("utf-8")

    def restore_state(self, data: bytes) -> None:
        self.document = XmlParser(data.decode("utf-8"), policy=self.policy).parse()


class StoreHost:
    """An `XmlStore` served with relational subtree operations."""

    transactional = True

    def __init__(self, name: str, store: XmlStore) -> None:
        self.name = name
        self.store = store

    def apply(self, op: ServiceOp) -> None:
        if isinstance(op, SubtreeDelete):
            where, params = _ids_where(op.relation, op.ids)
            self.store.delete_subtrees(op.relation, where, params)
        elif isinstance(op, SubtreeCopy):
            where, params = _ids_where(op.relation, op.ids)
            self.store.copy_subtrees(op.relation, where, params, op.new_parent_id)
        else:
            raise ServiceError(
                f"store host {self.name!r} only accepts relational operations, "
                f"got {type(op).__name__}"
            )

    def commit(self) -> None:
        self.store.db.commit()

    def rollback(self) -> None:
        self.store.db.rollback()

    def serialize(self) -> str:
        return serialize(self.store.to_document())

    def snapshot_state(self) -> bytes:
        """Checkpoint image: the SQLite database bytes.

        A database image (not re-serialised XML) because replayed
        relational operations name tuple ids — re-shredding XML would
        renumber them and the post-checkpoint log would target the
        wrong rows.  The id allocator's high-water mark lives in a
        table, so it travels with the image.

        Captured via :meth:`Database.committed_image` — the reader
        pool's version-stamped committed image (one ``serialize()`` per
        commit, shared with reader refreshes) rather than a fresh dump,
        so a fuzzy checkpoint's capture under the document's *read*
        lock costs nothing when the store is unchanged since the last
        commit and never issues a commit of its own.
        """
        return self.store.db.committed_image()

    def restore_state(self, data: bytes) -> None:
        self.store.db.load_bytes(data)


Host = Union[DocumentHost, StoreHost]


def run_statement_query(host: Host, statement: str) -> list[str]:
    """A read-only XQuery statement against either host kind, rendered
    to strings (runs under the document's read lock on the query pool)."""
    if isinstance(host, StoreHost):
        nodes = host.store.query(statement)
    else:
        engine = XQueryEngine({host.name: host.document}, policy=host.policy)
        result = engine.execute(statement)
        if not isinstance(result, QueryResult):
            raise ServiceError(
                "query only runs read-only statements; use 'execute' for updates"
            )
        nodes = list(result)
    return [
        serialize(node) if isinstance(node, Element) else string_value(node)
        for node in nodes
    ]


def _deadline(timeout: Optional[float]) -> Optional[float]:
    """A monotonic deadline, or None for 'wait forever'."""
    return None if timeout is None else time.monotonic() + timeout


def _remaining(deadline: Optional[float]) -> Optional[float]:
    """Budget left until ``deadline`` (clamped at 0), or None if unbounded."""
    return None if deadline is None else max(0.0, deadline - time.monotonic())


def _ids_where(relation: str, ids: Sequence[int]) -> tuple[str, tuple]:
    """Id-set predicate for a coalesced batch operation.

    Consecutive ids (the common shape after group-commit merges many
    single-subtree deletes over DFS-allocated ids) compress into
    ``BETWEEN`` runs; stragglers stay in one ``IN`` list.  The interval
    delete strategy then sees the same contiguity and fuses each run
    into a single pre/post range delete."""
    if not ids:
        raise ServiceError("a subtree operation needs at least one id")
    unique = sorted(set(ids))
    runs: list[tuple[int, int]] = []
    start = previous = unique[0]
    for value in unique[1:]:
        if value == previous + 1:
            previous = value
            continue
        runs.append((start, previous))
        start = previous = value
    runs.append((start, previous))
    column = f'"{relation}".id'
    clauses: list[str] = []
    params: list[int] = []
    singles = [low for low, high in runs if low == high]
    if singles:
        clauses.append(f"{column} IN ({', '.join('?' for _ in singles)})")
        params.extend(singles)
    for low, high in runs:
        if low != high:
            clauses.append(f"{column} BETWEEN ? AND ?")
            params.extend((low, high))
    where = " OR ".join(clauses)
    if len(clauses) > 1:
        where = f"({where})"
    return where, tuple(params)


@dataclass(frozen=True)
class ServiceConfig:
    """Service knobs (see DESIGN.md, "Service layer").

    ``wal_path`` of None runs without durability (tests, benchmarks of
    pure batching).  ``batch_size`` is the group-commit window; 1
    degenerates to one-commit-per-update.  ``coalesce_wait`` optionally
    holds the committer a few milliseconds after the first dequeue so
    concurrent submitters join the same batch.

    The read path: ``query_workers`` sizes the thread pool queries run
    on; ``readers`` sizes each store host's snapshot reader pool
    (:class:`~repro.relational.pool.ReaderPool`) so those concurrent
    queries execute on parallel SQLite connections instead of
    serialising behind the store's writer lock.  0 disables pooling
    (reads fall back to the locked writer connection).

    Checkpointing: ``checkpoint_dir`` defaults to ``<wal_path>.ckpt``;
    ``checkpoint_every_ops`` / ``checkpoint_every_bytes`` arm the
    automatic policy — after a commit that pushes the count of applied
    operations (or the live segment's record bytes) past the threshold,
    the committer takes a checkpoint itself.  ``wal_segment_bytes``
    additionally rotates the log whenever the live segment outgrows it,
    keeping individual segment files bounded between checkpoints.
    """

    wal_path: Optional[str] = None
    wal_sync: str = "commit"
    batch_size: int = 64
    queue_limit: int = 1024
    coalesce_wait: float = 0.0
    submit_timeout: float = 30.0
    query_workers: int = 4
    readers: int = 4
    checkpoint_dir: Optional[str] = None
    checkpoint_every_ops: Optional[int] = None
    checkpoint_every_bytes: Optional[int] = None
    checkpoint_timeout: float = 30.0
    wal_segment_bytes: Optional[int] = None


@dataclass(frozen=True)
class CheckpointReport:
    """What one checkpoint covered and reclaimed."""

    wal_seq: int  # the covered-seq floor: every record <= this is snapshotted
    documents: int
    segments_retired: int
    bytes_retired: int
    snapshotted: int = 0  # documents whose state was re-captured (dirty)
    carried: int = 0  # documents re-referencing the previous checkpoint's file

    def summary(self) -> str:
        return (
            f"checkpointed {self.documents} document(s) at seq {self.wal_seq} "
            f"({self.snapshotted} snapshotted, {self.carried} carried forward; "
            f"retired {self.segments_retired} segment(s), "
            f"{self.bytes_retired} byte(s))"
        )


class UpdateService:
    """The serving layer: WAL + locks + group commit + sessions."""

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        *,
        fs: Optional[Filesystem] = None,
        **overrides: Any,
    ) -> None:
        if config is None:
            config = ServiceConfig(**overrides)
        elif overrides:
            raise ValueError("pass either a ServiceConfig or keyword overrides")
        self.config = config
        self._fs = fs or Filesystem()
        self._hosts: dict[str, Host] = {}
        self._locks = LockManager()
        # `execute` is read-modify-write: one mutex per document keeps a
        # statement from copying the document while another statement's
        # delta is still on its way to the committer.
        self._execute_locks: dict[str, threading.Lock] = {}
        self._execute_mutex = threading.Lock()
        self._closed = False
        self.wal = (
            WriteAheadLog(
                config.wal_path,
                sync_mode=config.wal_sync,
                fs=self._fs,
                max_segment_bytes=config.wal_segment_bytes,
            )
            if config.wal_path
            else None
        )
        checkpoint_dir = config.checkpoint_dir
        if checkpoint_dir is None and config.wal_path:
            checkpoint_dir = config.wal_path + ".ckpt"
        self.snapshots = (
            SnapshotStore(checkpoint_dir, fs=self._fs) if checkpoint_dir else None
        )
        self._checkpoint_mutex = threading.Lock()
        self._ops_since_checkpoint = 0
        #: Formatted exception of the most recent failed checkpoint
        #: (auto or explicit); None after a success.  Surfaced through
        #: :meth:`stats` so operators can see why checkpoints stopped
        #: retiring WAL segments.
        self.checkpoint_last_error: Optional[str] = None
        #: Last WAL seq applied per document, maintained by the
        #: committer under each document's write lock and seeded by
        #: :meth:`recover`.  A fuzzy checkpoint reads it under the
        #: document's read lock: it is that document's exact covered
        #: seq, and comparing it against the previous manifest decides
        #: dirty-vs-carry (derived, not a mutable dirty set — a failed
        #: manifest write must not lose dirtiness).
        self._applied_seq: dict[str, int] = {}
        #: The manifest incremental checkpoints carry forward from:
        #: trusted only when loaded by :meth:`recover` or written by
        #: this process — never re-read mid-flight from disk.
        self._last_manifest: Optional[CheckpointManifest] = None
        auto = (
            config.checkpoint_every_ops is not None
            or config.checkpoint_every_bytes is not None
        )
        self._batcher = GroupCommitBatcher(
            self._apply_batch,
            wal=self.wal,
            max_batch=config.batch_size,
            max_queue=config.queue_limit,
            coalesce_wait=config.coalesce_wait,
            after_commit=self._after_commit if auto else None,
        )
        self._pool = ThreadPoolExecutor(
            max_workers=config.query_workers, thread_name_prefix="service-query"
        )
        self._started = False

    # ------------------------------------------------------------------
    # Host registry
    # ------------------------------------------------------------------
    def host_document(
        self, name: str, document: Document, policy: Optional[RefPolicy] = None
    ) -> DocumentHost:
        host = DocumentHost(name, document, policy)
        self._register(host)
        return host

    def host_store(self, name: str, store: XmlStore) -> StoreHost:
        host = StoreHost(name, store)
        self._register(host)
        if store.db.pool is None:
            # Stores arriving with their own pool keep it; everything
            # else gets the service-wide ``readers`` sizing.
            store.configure_readers(self.config.readers)
        return host

    def _register(self, host: Host) -> None:
        if self._started:
            raise ServiceError("register hosts before start() so recovery sees them")
        if host.name in self._hosts:
            raise ServiceError(f"document {host.name!r} is already hosted")
        self._hosts[host.name] = host

    def host(self, name: str) -> Host:
        try:
            return self._hosts[name]
        except KeyError:
            raise ServiceError(f"no hosted document named {name!r}") from None

    @property
    def documents(self) -> list[str]:
        return sorted(self._hosts)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def recover(self) -> RecoveryReport:
        """Restore the last checkpoint (if any), then replay the WAL past
        it onto the registered hosts.  Call after hosting, before
        :meth:`start`.

        The checkpoint manifest carries a per-document covered-seq
        vector (manifest v2; a v1 manifest loads with every document at
        its global ``wal_seq``): each document's records replay only
        past its *own* covered seq, so a fuzzy checkpoint's staggered
        capture points recover exactly.  Replay work is bounded by the
        post-checkpoint log length, not the service's lifetime.
        """
        if self._started:
            raise ServiceError("recover() must run before start()")
        if self.wal is None:
            return RecoveryReport()
        min_seq = 0
        doc_min_seq: Optional[dict[str, int]] = None
        snapshot_docs = 0
        manifest = self.snapshots.load_manifest() if self.snapshots else None
        if manifest is not None:
            with span("service.restore", documents=len(manifest.documents)):
                for doc in sorted(manifest.documents):
                    host = self._hosts.get(doc)
                    if host is None:
                        continue  # snapshot of a no-longer-hosted document
                    host.restore_state(self.snapshots.read_state(manifest, doc))
                    snapshot_docs += 1
            min_seq = manifest.wal_seq
            doc_min_seq = {
                doc: entry.covered_seq
                for doc, entry in manifest.documents.items()
            }
            # Seed per-document positions from the vector so the first
            # post-recovery checkpoint carries clean documents forward.
            self._applied_seq.update(doc_min_seq)

        def apply(op: ServiceOp) -> object:
            host = self._hosts.get(op.doc)
            if host is None:
                return False
            host.apply(op)
            host.commit()
            return True

        report = replay(self.wal, apply, min_seq=min_seq, doc_min_seq=doc_min_seq)
        report.snapshot_docs = snapshot_docs
        self._applied_seq.update(report.doc_last_applied)
        self._last_manifest = manifest
        if manifest is not None:
            # A crash between manifest commit and retirement leaves fully
            # covered segments behind; sweep them now.  The manifest's
            # wal_seq is the minimum covered seq across documents, so
            # nothing any document still needs can be removed.
            self.wal.retire_covered_segments(manifest.wal_seq)
        return report

    def start(self) -> "UpdateService":
        if not self._started:
            self._started = True
            self._batcher.start()
        return self

    def __enter__(self) -> "UpdateService":
        return self.start()

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Client operations
    # ------------------------------------------------------------------
    def submit(self, op: ServiceOp, timeout: Optional[float] = None) -> Ticket:
        """Queue one operation; the ticket resolves at its commit point."""
        if self._closed:
            raise ServiceClosedError("service is closed")
        if not self._started:
            raise ServiceError("service not started; call start() first")
        host = self.host(op.doc)
        # Fail obviously mistyped traffic at submission time rather than
        # poisoning a batch.
        if isinstance(host, DocumentHost) and not isinstance(op, DeltaUpdate):
            raise ServiceError(f"{op.doc!r} is document-hosted; submit deltas")
        if isinstance(host, StoreHost) and isinstance(op, DeltaUpdate):
            raise ServiceError(f"{op.doc!r} is store-hosted; submit relational ops")
        if timeout is None:
            timeout = self.config.submit_timeout
        return self._batcher.submit(op, timeout=timeout)

    def submit_wait(self, op: ServiceOp, timeout: Optional[float] = None) -> Optional[int]:
        """Submit and block until durable + applied; returns the WAL seq.

        ``timeout`` bounds the *total* call: queue admission and the
        ticket wait draw down one monotonic deadline (previously each
        phase was granted the full budget, so a call could take 2x its
        timeout — the same double-grant fixed earlier in ``query()``).
        """
        deadline = _deadline(timeout)
        ticket = self.submit(op, timeout=timeout)
        return ticket.wait(_remaining(deadline))

    def query(
        self,
        doc: str,
        work: Optional[Union[str, Callable[[Host], Any]]] = None,
        timeout: Optional[float] = None,
    ) -> Any:
        """Run read-only work under ``doc``'s read lock on the pool.

        ``work`` may be an XQuery FLWR statement (store hosts), a
        callable receiving the host, or None for the serialised document
        text.  Readers of the same document run concurrently; a query
        issued while a batch is being applied waits for the write lock
        to drop.

        ``timeout`` bounds the *total* time: pool queueing, read-lock
        acquisition, and the work itself all draw down one monotonic
        deadline (previously the same budget was granted twice — once to
        the lock wait and again to the result wait — so a query could
        take 2x its timeout before failing).
        """
        deadline = _deadline(timeout)
        future = self.query_future(doc, work, timeout)
        try:
            return future.result(timeout=_remaining(deadline))
        except FutureTimeoutError:
            # Still queued behind a saturated pool: keep it from running
            # after its caller has already given up.
            future.cancel()
            raise ServiceTimeoutError(f"query on {doc!r} timed out") from None

    def query_future(
        self,
        doc: str,
        work: Optional[Union[str, Callable[[Host], Any]]] = None,
        timeout: Optional[float] = None,
    ) -> Future:
        """:meth:`query` without the wait: start the work on the pool and
        return its future.  ``timeout`` bounds the read-lock wait; a
        caller that stops waiting should ``cancel()`` the future so work
        still queued behind a saturated pool never runs (an event loop
        gets that from ``asyncio.wrap_future``)."""
        if self._closed:
            raise ServiceClosedError("service is closed")
        host = self.host(doc)
        deadline = _deadline(timeout)

        def run() -> Any:
            get_registry().counter("service.queries").inc()
            with self._locks.read(doc, _remaining(deadline)), span(
                "service.query", doc=doc
            ):
                if work is None:
                    return host.serialize()
                if callable(work):
                    return work(host)
                if isinstance(host, StoreHost):
                    return host.store.query(work)
                raise ServiceError(
                    f"{doc!r} is document-hosted; query with a callable or None"
                )

        return self._pool.submit(run)

    def query_elements(self, doc: str, statement: str) -> list[Element]:
        """Convenience wrapper: an XQuery RETURN query against a store host."""
        result = self.query(doc, statement)
        if not isinstance(result, list):
            # A typed error, not an assert: an assert raises the wrong
            # class (AssertionError is not a ServiceError) and vanishes
            # entirely under ``python -O``.
            raise ServiceError(
                f"query on {doc!r} returned {type(result).__name__}, "
                "not a result list; was the statement an update?"
            )
        return result

    def execute(
        self, doc: str, statement: str, timeout: Optional[float] = None
    ) -> dict:
        """Run an XQuery statement server-side, within one deadline.

        A read answers ``{"results": [...]}`` from the query pool, under
        the read lock.  An update answers ``{"seq", "delta_ops"}``: the
        statement runs on a copy of the live document, taken under its
        read lock, with the executor recording each primitive's effect;
        that delta is submitted and waited for.  The WAL thus holds the
        statement's *effect*, which replays without re-evaluating a
        binding, and a statement that fails part-way submits nothing.

        The per-document execute lock serialises statements, so each
        one copies the state its predecessor's delta produced.  Raw
        deltas submitted concurrently by other clients can still
        interleave, exactly as for any read-modify-write client.
        """
        deadline = _deadline(timeout)
        host = self.host(doc)
        parsed = XQueryEngine({}, policy=getattr(host, "policy", None)).parse(statement)
        if not parsed.is_update:
            results = self.query(
                doc,
                lambda h: run_statement_query(h, statement),
                timeout=_remaining(deadline),
            )
            return {"results": results}
        if not isinstance(host, DocumentHost):
            raise ServiceError(
                f"{doc!r} is store-hosted; submit relational operations instead "
                "of update statements"
            )
        lock = self._execute_lock(doc)
        remaining = _remaining(deadline)
        if not lock.acquire(timeout=-1 if remaining is None else remaining):
            raise ServiceTimeoutError(f"timed out waiting to execute on {doc!r}")
        try:
            with self._locks.read(doc, _remaining(deadline)):
                working = host.document.copy()
            delta: list[DeltaOp] = []
            XQueryEngine({doc: working}, policy=host.policy).execute(
                parsed, recorder=delta
            )
            seq = self.submit_wait(
                DeltaUpdate(doc, tuple(delta)), timeout=_remaining(deadline)
            )
        finally:
            lock.release()
        return {"seq": seq, "delta_ops": len(delta)}

    def _execute_lock(self, doc: str) -> threading.Lock:
        with self._execute_mutex:
            lock = self._execute_locks.get(doc)
            if lock is None:
                lock = self._execute_locks[doc] = threading.Lock()
            return lock

    def flush(self, timeout: Optional[float] = None) -> None:
        """Barrier: everything submitted before this call is durable."""
        self._batcher.flush(timeout)

    @property
    def backlog(self) -> int:
        """Operations queued behind the committer right now (admission
        control reads this to shed load before blocking)."""
        return self._batcher.backlog

    def stats(self) -> dict:
        """An operator-facing snapshot: hosted documents, queue state,
        read-path caches/pools, and checkpoint health — the structure
        the network ``stats`` request and the CLI both render."""
        from repro.xquery.cache import statement_cache_stats

        snapshot: dict = {
            "documents": self.documents,
            "started": self._started,
            "closed": self._closed,
            "backlog": self.backlog,
            "queue_limit": self.config.queue_limit,
            "batch_size": self.config.batch_size,
            "wal_path": self.config.wal_path,
            "read_path": {
                "query_workers": self.config.query_workers,
                "readers": self.config.readers,
                "statement_cache": statement_cache_stats(),
                "stores": {
                    name: {
                        "plan_cache": host.store.plan_cache.stats(),
                        "pool": host.store.db.pool_stats(),
                    }
                    for name, host in sorted(self._hosts.items())
                    if isinstance(host, StoreHost)
                },
            },
            "checkpoint": {
                "last_error": self.checkpoint_last_error,
                "ops_since": self._ops_since_checkpoint,
                # The covered-seq floor the last manifest committed (WAL
                # retirement cannot pass it) and its incremental split.
                "covered_floor": (
                    self._last_manifest.wal_seq
                    if self._last_manifest is not None
                    else None
                ),
                "manifest_docs": (
                    len(self._last_manifest.documents)
                    if self._last_manifest is not None
                    else 0
                ),
            },
        }
        if self.wal is not None:
            snapshot["wal_next_seq"] = self.wal.next_seq
        return snapshot

    def checkpoint(
        self, timeout: Optional[float] = None, *, full: bool = False
    ) -> CheckpointReport:
        """Persist the hosted state *without stalling writes* and retire
        the WAL segments the new manifest covers.

        Fuzzy (non-quiescent) protocol — the batcher keeps committing
        throughout; no global pause, no all-documents write lock:

        1. flush (explicit checkpoints only), so everything already
           submitted is in the log before the capture begins;
        2. sample the WAL high-water mark ``S``, then read the
           batcher's in-flight document set (in that order — see the
           safe-advance rule below);
        3. for each document in turn, under *its read lock only*
           (the committer applies under the write lock, so a read lock
           excludes mid-apply states for exactly that document while
           every other document keeps committing): read the document's
           last applied seq; if it is not past the previous manifest's
           covered seq, **carry** the previous state file forward,
           otherwise capture fresh state bytes.  The document's new
           covered seq is its applied seq — advanced to ``S`` when the
           document was not in the in-flight set (*safe advance*: a
           logged-but-unapplied record with ``seq <= S`` would have had
           its document in the set, so its absence proves no such
           record exists and an idle document cannot pin the
           retirement floor forever);
        4. rotate the log, then write fresh snapshots + the v2 manifest
           (per-document covered-seq vector; the manifest rename is the
           commit point — a crash before it leaves the previous
           checkpoint governing);
        5. retire segments up to the manifest's ``wal_seq`` — the
           *minimum* covered seq — so no record any document still
           needs is removed.

        ``timeout`` is one monotonic deadline across every stage
        (previously flush, quiesce, and lock acquisition each drew a
        fresh budget, so a checkpoint could take ~4x its timeout).
        ``full=True`` re-snapshots every document instead of carrying
        clean ones forward (operator escape hatch: re-verifies every
        state file on disk).
        """
        if self._closed:
            raise ServiceClosedError("service is closed")
        if timeout is None:
            timeout = self.config.checkpoint_timeout
        deadline = _deadline(timeout)
        if self.wal is None or self.snapshots is None:
            self.flush(_remaining(deadline))
            return CheckpointReport(
                wal_seq=0, documents=len(self._hosts), segments_retired=0, bytes_retired=0
            )
        if self._started:
            self.flush(_remaining(deadline))
        return self._checkpoint_locked(deadline, full=full)

    def _checkpoint_locked(
        self, deadline: Optional[float], full: bool = False
    ) -> CheckpointReport:
        try:
            return self._checkpoint_inner(deadline, full)
        except Exception as error:
            self.checkpoint_last_error = f"{type(error).__name__}: {error}"
            raise

    def _checkpoint_inner(
        self, deadline: Optional[float], full: bool
    ) -> CheckpointReport:
        registry = get_registry()
        remaining = _remaining(deadline)
        acquired = self._checkpoint_mutex.acquire(
            timeout=-1 if remaining is None else remaining
        )
        if not acquired:
            raise ServiceTimeoutError("timed out waiting for a running checkpoint")
        try:
            with span("service.checkpoint", full=full):
                previous = None if full else self._last_manifest
                # Order matters: sample the high-water mark *before*
                # the in-flight set.  A record logged after the sample
                # has seq > safe_seq and cannot be mis-covered; one
                # logged before it that is still unapplied keeps its
                # document in the set and blocks the advance.
                safe_seq = self.wal.last_seq
                inflight = self._batcher.inflight_docs
                states: dict[str, bytes] = {}
                covered: dict[str, int] = {}
                carry: dict[str, Any] = {}
                for name in sorted(self._hosts):
                    host = self._hosts[name]
                    with self._locks.read(name, _remaining(deadline)):
                        applied = self._applied_seq.get(name, 0)
                        entry = (
                            previous.documents.get(name)
                            if previous is not None
                            else None
                        )
                        if entry is not None and applied <= entry.covered_seq:
                            # Clean since the last manifest: re-reference
                            # its file.  (Nothing applied past the old
                            # covered seq, and post-checkpoint records
                            # all have seq above it — see safe advance —
                            # so the old bytes are still exact.)
                            carry[name] = entry
                            base = entry.covered_seq
                        else:
                            states[name] = host.snapshot_state()
                            base = applied
                        covered[name] = (
                            base if name in inflight else max(base, safe_seq)
                        )
                self.wal.rotate()
                # Settle the rotation's deferred fsyncs (sealed segment,
                # new header, directory entry) from this thread, off the
                # append lock — otherwise the next commit's sync pays
                # them, which is exactly the stall fuzziness removes.
                self.wal.sync()
                manifest = self.snapshots.write_checkpoint(
                    states, covered, carry=carry, default_floor=safe_seq
                )
                self._last_manifest = manifest
                segments, size = self.wal.retire_covered_segments(manifest.wal_seq)
                self._ops_since_checkpoint = 0
                self.checkpoint_last_error = None
                registry.counter("checkpoint.count").inc()
                registry.counter("checkpoint.docs_snapshotted").inc(len(states))
                registry.counter("checkpoint.docs_carried").inc(len(carry))
                return CheckpointReport(
                    wal_seq=manifest.wal_seq,
                    documents=len(states) + len(carry),
                    segments_retired=segments,
                    bytes_retired=size,
                    snapshotted=len(states),
                    carried=len(carry),
                )
        finally:
            self._checkpoint_mutex.release()

    def _after_commit(self, batch_size: int) -> None:
        """Auto-checkpoint policy; runs on the committer thread after
        each batch's durability point."""
        if self.wal is None or self.snapshots is None:
            return
        config = self.config
        self._ops_since_checkpoint += batch_size
        due = (
            config.checkpoint_every_ops is not None
            and self._ops_since_checkpoint >= config.checkpoint_every_ops
        ) or (
            config.checkpoint_every_bytes is not None
            and self.wal.bytes_since_rotation >= config.checkpoint_every_bytes
        )
        if not due:
            return
        try:
            # No flush here: flushing from the committer thread would
            # deadlock on work only this thread can complete.  The fuzzy
            # capture is safe on this thread — it takes only read locks,
            # and the writers they exclude all run on this very thread,
            # which is idle between batches when this hook fires.
            self._checkpoint_locked(_deadline(config.checkpoint_timeout))
        except Exception:
            # A failed auto-checkpoint must not kill the committer; the
            # next due batch retries.  `_checkpoint_locked` has already
            # recorded the formatted error in `checkpoint_last_error` —
            # a counter alone tells operators *that* checkpoints stopped
            # retiring segments, not *why*.
            get_registry().counter("checkpoint.failed").inc()

    def close(self, drain: bool = True, timeout: Optional[float] = None) -> int:
        """Graceful shutdown: drain the queue (unless told not to), stop
        the committer, and close the WAL.  Hosted stores stay open —
        the service does not own them.

        Returns the number of operations still undrained when the
        batcher's committer join gave up (0 for a clean shutdown) —
        previously a stalled committer was silently reported as
        success, with acked-but-unapplied work pending.  The count is
        also published as ``batcher.close.undrained``."""
        if self._closed:
            return 0
        self._closed = True
        undrained = self._batcher.close(drain=drain, timeout=timeout)
        self._pool.shutdown(wait=True)
        if self.wal is not None:
            self.wal.close()
        return undrained

    def open_session(self, default_timeout: Optional[float] = None) -> "Session":
        from repro.service.session import Session

        return Session(self, default_timeout=default_timeout)

    # ------------------------------------------------------------------
    # Batch application (runs on the group-commit thread)
    # ------------------------------------------------------------------
    def _apply_batch(
        self, ops: Sequence[ServiceOp], seqs: Sequence[Optional[int]]
    ) -> list[Optional[Exception]]:
        errors: list[Optional[Exception]] = [None] * len(ops)
        by_doc: dict[str, list[tuple[int, ServiceOp]]] = {}
        for index, op in enumerate(ops):
            by_doc.setdefault(op.doc, []).append((index, op))
        with self._locks.write_many(by_doc.keys()):
            for doc, entries in by_doc.items():
                host = self._hosts.get(doc)
                if host is None:
                    missing = ServiceError(f"no hosted document named {doc!r}")
                    for index, _ in entries:
                        errors[index] = missing
                    continue
                if host.transactional:
                    self._apply_transactional(host, entries, errors)
                else:
                    self._apply_independent(host, entries, errors)
                # Advance the document's covered position under its
                # write lock.  Failed entries advance too: their seqs
                # never reach a commit marker, so recovery skips them
                # regardless of any covered threshold — while a fuzzy
                # capture that trusted a stale position would needlessly
                # re-snapshot.
                last = max(
                    (seqs[index] for index, _ in entries if seqs[index] is not None),
                    default=None,
                )
                if last is not None:
                    self._applied_seq[doc] = last
        return errors

    def _apply_transactional(
        self,
        host: Host,
        entries: list[tuple[int, ServiceOp]],
        errors: list[Optional[Exception]],
    ) -> None:
        """All-or-nothing per document: coalesce, apply, commit once."""
        try:
            for group in _coalesce(entries):
                host.apply(group)
            host.commit()
        except Exception as error:
            host.rollback()
            for index, _ in entries:
                errors[index] = error

    def _apply_independent(
        self,
        host: Host,
        entries: list[tuple[int, ServiceOp]],
        errors: list[Optional[Exception]],
    ) -> None:
        """Per-operation outcomes for hosts that cannot roll back."""
        for index, op in entries:
            try:
                host.apply(op)
            except Exception as error:
                errors[index] = error


def _coalesce(entries: list[tuple[int, ServiceOp]]) -> list[ServiceOp]:
    """Merge *adjacent* compatible relational operations.

    Only adjacent runs merge, so per-document submission order is
    preserved (a delete-copy-delete sequence on the same relation stays
    three invocations).  Deltas never merge, and neither does a copy
    naming an id its group already copies: the merged id set is
    de-duplicated, so the second copy would be applied zero times.
    """
    groups: list[ServiceOp] = []
    last_key: Optional[tuple] = None
    for _, op in entries:
        key: Optional[tuple]
        if isinstance(op, SubtreeDelete):
            key = ("delete", op.relation)
        elif isinstance(op, SubtreeCopy):
            key = ("copy", op.relation, op.new_parent_id)
        else:
            key = None
        previous = groups[-1] if groups else None
        if (
            key is not None
            and key == last_key
            and isinstance(previous, (SubtreeDelete, SubtreeCopy))
            and not (
                isinstance(op, SubtreeCopy) and not set(op.ids).isdisjoint(previous.ids)
            )
        ):
            get_registry().counter("batcher.ops_coalesced").inc()
            merged_ids = previous.ids + op.ids
            if isinstance(previous, SubtreeDelete):
                groups[-1] = SubtreeDelete(previous.doc, previous.relation, merged_ids)
            else:
                groups[-1] = SubtreeCopy(
                    previous.doc, previous.relation, merged_ids, previous.new_parent_id
                )
        else:
            groups.append(op)
        last_key = key
    return groups
