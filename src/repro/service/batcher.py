"""Group-commit batching of update operations.

The paper attributes most of the cost differences between its SQL
translation strategies to *statement counts*; a serving layer can
shrink both the statement count and the durability cost per update by
coalescing concurrent submissions:

* all operations drained in one cycle share a **single WAL fsync**
  (append every record plus one commit marker, then ``sync()`` once);
* the server's apply callback merges compatible relational operations
  (same document, kind, relation, target parent) into **one strategy
  invocation** — e.g. 64 single-subtree deletes become one ``DELETE …
  WHERE id IN (…)``, so a per-statement trigger sweeps once instead of
  64 times, and a table-based insert pays its constant statement
  overhead once.

Submitters get a :class:`Ticket` that resolves once their operation is
durable *and* applied (or failed).  The queue is bounded: when it is
full, ``submit`` blocks up to its timeout, providing backpressure.

The commit discipline is: append every record → apply the batch →
append a commit marker listing the sequence numbers whose apply
succeeded → ``fsync`` once.  That single fsync is the durability point:
tickets resolve only after it returns, and recovery replays exactly the
operations a durable commit marker covers (an op logged but aborted —
e.g. its whole per-document transaction rolled back — is skipped on
replay, as is any torn tail past the last fsync).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeoutError
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Sequence

from repro.errors import ServiceClosedError, ServiceTimeoutError
from repro.obs import get_registry, span
from repro.service.ops import CommitMarker, ServiceOp, encode_op
from repro.service.wal import WriteAheadLog

#: apply callback: receives the batch in submission order plus each
#: operation's WAL sequence number, and returns one entry per operation
#: — None on success, an exception on failure.  The seqs let the server
#: track, per document, the last applied sequence number (the fuzzy
#: checkpoint's covered-seq vector) under the same write locks the
#: apply itself holds.
ApplyBatch = Callable[
    [Sequence[ServiceOp], Sequence[Optional[int]]],
    Sequence[Optional[Exception]],
]


class Ticket:
    """A submitted operation's handle: wait for durability + apply.

    ``future`` resolves to the WAL sequence number or the apply error;
    an event loop awaits it through ``asyncio.wrap_future``.  It is
    marked running at birth, so ``cancel()`` always fails: a waiter
    that gives up (a deadline, an aborted connection) can never cancel
    the ticket out from under the committer, whose later ``set_result``
    would otherwise raise and kill the committer thread.
    """

    def __init__(self, op: ServiceOp) -> None:
        self.op = op
        self.future: Future = Future()
        self.future.set_running_or_notify_cancel()

    def _resolve(self, seq: Optional[int]) -> None:
        self.future.set_result(seq)

    def _fail(self, error: Exception) -> None:
        self.future.set_exception(error)

    @property
    def done(self) -> bool:
        return self.future.done()

    @property
    def failed(self) -> bool:
        """True once the ticket resolved with an apply error."""
        return self.future.done() and self.future.exception() is not None

    def wait(self, timeout: Optional[float] = None) -> Optional[int]:
        """Block until resolved; returns the WAL sequence number (None if
        the service runs without a WAL), or raises the apply error."""
        try:
            self.future.exception(timeout)
        except FutureTimeoutError:
            raise ServiceTimeoutError("operation not yet durable") from None
        return self.future.result()


@dataclass
class BatcherStats:
    """Counters exposed for benchmarks and tests."""

    submitted: int = 0
    applied: int = 0
    failed: int = 0
    batches: int = 0
    syncs: int = 0
    largest_batch: int = 0
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )


class GroupCommitBatcher:
    """A bounded queue drained by one committer thread."""

    def __init__(
        self,
        apply_batch: ApplyBatch,
        wal: Optional[WriteAheadLog] = None,
        max_batch: int = 64,
        max_queue: int = 1024,
        coalesce_wait: float = 0.0,
        after_commit: Optional[Callable[[int], None]] = None,
    ) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        self._apply_batch = apply_batch
        self._wal = wal
        self._max_batch = max_batch
        self._max_queue = max_queue
        self._coalesce_wait = coalesce_wait
        self._after_commit = after_commit
        self._cond = threading.Condition()
        self._queue: deque[Ticket] = deque()
        self._submitted = 0
        self._completed = 0
        self._stopping = False
        self._paused = False
        self._in_commit = False
        self._seq_counter = 0  # stand-in sequence numbers when wal is None
        #: Documents of the batch currently between its first WAL append
        #: and the end of its apply.  Published *before* the batch logs
        #: and cleared only *after* the apply returns, so a fuzzy
        #: checkpoint that samples ``wal.next_seq`` and then reads this
        #: set sees every document that could still have a logged-but-
        #: unapplied record at or below its sample (see
        #: ``UpdateService._checkpoint_inner``'s safe-advance rule).
        self._inflight_docs: frozenset[str] = frozenset()
        self.stats = BatcherStats()
        self._thread = threading.Thread(
            target=self._run, name="group-commit", daemon=True
        )
        self._started = False

    # ------------------------------------------------------------------
    # Client side
    # ------------------------------------------------------------------
    def start(self) -> None:
        if not self._started:
            self._started = True
            self._thread.start()

    def submit(self, op: ServiceOp, timeout: Optional[float] = None) -> Ticket:
        """Enqueue one operation; blocks while the queue is full.

        ``timeout`` bounds the *total* time spent blocked: the wait loop
        runs against one monotonic deadline, so spurious wake-ups (every
        batch completion notifies this condition) cannot extend it.
        """
        ticket = Ticket(op)
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            if self._stopping:
                raise ServiceClosedError("service is shutting down")
            while len(self._queue) >= self._max_queue:
                if not self._wait(deadline):
                    raise ServiceTimeoutError(
                        f"submission queue stayed full for {timeout}s"
                    )
                if self._stopping:
                    raise ServiceClosedError("service is shutting down")
            self._queue.append(ticket)
            self._submitted += 1
            get_registry().gauge("batcher.queue_depth").set(len(self._queue))
            with self.stats._lock:
                self.stats.submitted += 1
            self._cond.notify_all()
        get_registry().counter("batcher.submitted").inc()
        return ticket

    def flush(self, timeout: Optional[float] = None) -> None:
        """Block until everything submitted before this call is resolved.

        Like :meth:`submit`, the timeout is a single monotonic deadline
        across all wake-ups, not a per-wait budget.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            target = self._submitted
            while self._completed < target:
                if not self._wait(deadline):
                    raise ServiceTimeoutError("flush timed out")

    @property
    def backlog(self) -> int:
        """Operations queued but not yet drained into a batch."""
        with self._cond:
            return len(self._queue)

    @property
    def queue_limit(self) -> int:
        return self._max_queue

    @property
    def inflight_docs(self) -> frozenset:
        """Documents of the batch currently logging or applying.

        Read it *after* sampling ``wal.next_seq``: any document absent
        from the set has no logged-but-unapplied record at or below
        that sample (single committer thread; the set is assigned
        before the batch's first append and cleared only after its
        apply returns)."""
        return self._inflight_docs

    def _wait(self, deadline: Optional[float]) -> bool:
        """Wait on the condition; False once the deadline has passed.

        Mirrors ``ReadWriteLock._wait``: the caller's loop re-checks its
        predicate after every wake-up, this only bounds the total wait.
        """
        if deadline is None:
            self._cond.wait()
            return True
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            return False
        self._cond.wait(remaining)
        return True

    @contextmanager
    def paused(self, timeout: Optional[float] = None) -> Iterator[None]:
        """Quiesce the committer: block until no batch is in flight and
        keep new batches from starting until the context exits.

        While paused, every operation ever appended to the WAL belongs
        to a *completed* commit cycle — applied with a durable marker,
        or failed with its tickets already rejected — which is exactly
        the window a checkpoint needs.  Submissions still queue (and
        block on a full queue); they commit after the pause lifts.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while self._paused:  # a concurrent pauser: queue up behind it
                if not self._wait(deadline):
                    raise ServiceTimeoutError("timed out waiting for the batcher pause")
            self._paused = True
            try:
                while self._in_commit:
                    if not self._wait(deadline):
                        raise ServiceTimeoutError(
                            "timed out waiting for the in-flight batch"
                        )
            except BaseException:
                self._paused = False
                self._cond.notify_all()
                raise
        try:
            yield
        finally:
            with self._cond:
                self._paused = False
                self._cond.notify_all()

    def close(self, drain: bool = True, timeout: Optional[float] = None) -> int:
        """Stop accepting work; by default drain what was already queued.

        Returns the number of operations still *undrained* when the
        close gave up — submissions whose tickets had not resolved by
        the time the committer join timed out.  0 is a clean shutdown;
        anything else means acked-but-unapplied work is pending (a
        stalled apply, a wedged WAL) and is also counted in the
        ``batcher.close.undrained`` metric.  Callers that previously
        ignored the silent join-timeout now get a truthful signal.
        """
        with self._cond:
            if self._stopping:
                return self._undrained_locked()
            self._stopping = True
            if not drain:
                while self._queue:
                    self._queue.popleft()._fail(
                        ServiceClosedError("service closed before commit")
                    )
                    self._completed += 1
            self._cond.notify_all()
        if self._started:
            self._thread.join(timeout)
        with self._cond:
            undrained = self._undrained_locked()
        if undrained:
            get_registry().counter("batcher.close.undrained").inc(undrained)
        return undrained

    def _undrained_locked(self) -> int:
        """Submissions not yet resolved (call with ``_cond`` held).

        A cleanly drained committer leaves this at 0; a join timeout, a
        never-started batcher with queued work, or a committer thread
        that died mid-batch all leave it positive."""
        return max(0, self._submitted - self._completed)

    # ------------------------------------------------------------------
    # Committer thread
    # ------------------------------------------------------------------
    def _run(self) -> None:
        while True:
            with self._cond:
                while self._paused or (not self._queue and not self._stopping):
                    self._cond.wait()
                if not self._queue and self._stopping:
                    return
                # Give concurrent submitters a brief window to join the
                # batch (group commit proper); under load the queue is
                # already non-empty and no waiting happens.
                if (
                    self._coalesce_wait > 0
                    and len(self._queue) < self._max_batch
                    and not self._stopping
                ):
                    self._cond.wait(self._coalesce_wait)
                    if self._paused:
                        continue  # a pause arrived during the coalesce nap
                batch = [
                    self._queue.popleft()
                    for _ in range(min(len(self._queue), self._max_batch))
                ]
                get_registry().gauge("batcher.queue_depth").set(len(self._queue))
                self._in_commit = True
                self._cond.notify_all()  # wake submitters blocked on a full queue
            try:
                self._commit(batch)
            finally:
                with self._cond:
                    self._in_commit = False
                    self._completed += len(batch)
                    self._cond.notify_all()
            # Post-commit hook (auto-checkpoint policy): runs outside the
            # condition and outside _in_commit so a checkpoint triggered
            # here may pause the batcher (this very thread) re-entrantly.
            if self._after_commit is not None:
                self._after_commit(len(batch))

    def _commit(self, batch: list[Ticket]) -> None:
        with span("service.commit", batch_size=len(batch)):
            self._commit_batch(batch)

    def _commit_batch(self, batch: list[Ticket]) -> None:
        registry = get_registry()
        registry.histogram("batcher.batch_size").observe(len(batch))
        ops = [ticket.op for ticket in batch]
        # Publish the batch's documents *before* the first append: a
        # fuzzy checkpoint reading this set after sampling the WAL's
        # high-water mark sees every document with a logged-but-
        # unapplied record at or below its sample.
        self._inflight_docs = frozenset(op.doc for op in ops)
        try:
            # 1. Log every operation (buffered; not yet durable).
            try:
                with span("wal.append", records=len(ops)):
                    seqs = self._log(ops)
            except Exception as error:  # WAL failure: nothing was applied
                with self.stats._lock:
                    self.stats.failed += len(batch)
                registry.counter("batcher.ops.failed").inc(len(batch))
                for ticket in batch:
                    ticket._fail(error)
                return
            # 2. Apply, collecting one outcome per operation.
            try:
                with span("service.apply", ops=len(ops)):
                    errors = list(self._apply_batch(ops, seqs))
                if len(errors) != len(ops):
                    raise RuntimeError("apply callback returned a misaligned result")
            except Exception as error:
                errors = [error] * len(ops)
        finally:
            self._inflight_docs = frozenset()
        # 3. Commit marker + the batch's one fsync: the durability point.
        committed = [
            seq for seq, err in zip(seqs, errors) if err is None and seq is not None
        ]
        if self._wal is not None and committed:
            try:
                self._wal.append(encode_op(CommitMarker(tuple(committed))))
                self._wal.sync()
                with self.stats._lock:
                    self.stats.syncs += 1
            except Exception as error:
                errors = [err if err is not None else error for err in errors]
        # Count before resolving: a client that sees its ack and then
        # reads `stats` must never find fewer applied ops than acks.
        failed = sum(err is not None for err in errors)
        applied = len(batch) - failed
        with self.stats._lock:
            self.stats.applied += applied
            self.stats.failed += failed
            self.stats.batches += 1
            self.stats.largest_batch = max(self.stats.largest_batch, len(batch))
        registry.counter("batcher.batches").inc()
        registry.counter("batcher.ops.applied").inc(applied)
        if failed:
            registry.counter("batcher.ops.failed").inc(failed)
        for ticket, seq, err in zip(batch, seqs, errors):
            if err is None:
                ticket._resolve(seq)
            else:
                ticket._fail(err)

    def _log(self, ops: Sequence[ServiceOp]) -> list[Optional[int]]:
        if self._wal is None:
            seqs = []
            for _ in ops:
                self._seq_counter += 1
                seqs.append(self._seq_counter)
            return seqs
        return [self._wal.append(encode_op(op)) for op in ops]
