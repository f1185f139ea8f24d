"""Thin SQLite wrapper: statement counting, triggers, transactions.

The paper substrate was IBM DB2 7.1 via JDBC; we use the stdlib
``sqlite3`` (see DESIGN.md for why the substitution preserves the
comparisons).  The wrapper adds what the experiments need:

* **statement counting** — the paper repeatedly attributes performance
  differences to the number of SQL statements issued, so every
  ``execute`` bumps a counter, split into client statements and
  emulated-trigger statements;
* **per-statement trigger emulation** — SQLite only has ``FOR EACH
  ROW`` triggers.  DB2-style ``FOR EACH STATEMENT`` delete triggers are
  emulated by registering sweep statements that the wrapper runs after
  a client ``DELETE`` on the triggering table, transitively, inside the
  same transaction (exactly the orphan-sweep SQL a DB2 trigger body
  would contain);
* an in-memory default (the paper's experiments run with all data in
  memory);
* **thread safety** — the update service applies batches from a
  group-commit thread while client threads read, so the wrapper
  serialises all connection access behind a reentrant lock (and opens
  the connection with ``check_same_thread=False``; SQLite itself is
  compiled threadsafe, the lock guarantees one statement at a time).
  Contended acquisitions are recorded in the ``sql.lock.wait_ms``
  histogram, which is how the benchmarks *prove* the single-connection
  lock was the read-path bottleneck;
* an optional **read-only reader pool**
  (:class:`~repro.relational.pool.ReaderPool`) — N snapshot-consistent
  connections reading the writer's committed pages from one
  WAL-journaled file, so concurrent reads no longer serialise behind
  the writer's lock.  Writers keep the single counted connection; the
  pool is enabled per store by :meth:`Database.configure_pool` (the
  update service does this from its ``readers`` knob).
"""

from __future__ import annotations

import os
import shutil
import sqlite3
import tempfile
import threading
import time
import weakref
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Optional, Sequence

from repro.errors import StorageError
from repro.obs import get_registry, span
from repro.relational.pool import ReaderPool


@dataclass
class StatementCounts:
    """Counters for issued SQL, split by origin.

    Increments go through :meth:`bump_client` / :meth:`bump_trigger` so
    concurrent submitters never lose a count; the attributes stay plain
    integers for cheap reads.  Every bump is mirrored into the process
    metrics registry (``sql.statements.client`` /
    ``sql.statements.trigger``), which is the source benchmarks and
    ``python -m repro stats`` report from; the instance-level fields
    remain as a per-connection view that :meth:`reset` can zero without
    disturbing other connections.
    """

    client: int = 0  # statements the application issued
    trigger_emulation: int = 0  # statements run by the per-statement emulation
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def bump_client(self, count: int = 1) -> None:
        with self._lock:
            self.client += count
        get_registry().counter("sql.statements.client").inc(count)

    def bump_trigger(self, count: int = 1) -> None:
        with self._lock:
            self.trigger_emulation += count
        get_registry().counter("sql.statements.trigger").inc(count)

    def reset(self) -> None:
        with self._lock:
            self.client = 0
            self.trigger_emulation = 0

    @property
    def total(self) -> int:
        return self.client + self.trigger_emulation


class Database:
    """A SQLite connection with counting and trigger emulation.

    The database starts in memory.  The first :meth:`configure_pool`
    moves it into a WAL-journaled file in a private temporary directory
    (removed by :meth:`close`, or when the object is collected) so that
    reader connections can open it too.
    """

    def __init__(self) -> None:
        self._connection = sqlite3.connect(":memory:", check_same_thread=False)
        self._connection.execute("PRAGMA foreign_keys = OFF")
        self._lock = threading.RLock()
        self._closed = False
        self.counts = StatementCounts()
        # table name -> list of (sql, params) run after a client DELETE on it.
        self._statement_triggers: dict[str, list[str]] = {}
        self._pool: Optional[ReaderPool] = None
        # The shared file once pooled, and the finalizer that removes it.
        self._path: Optional[str] = None
        self._remove_directory: Optional[weakref.finalize] = None

    @property
    def closed(self) -> bool:
        return self._closed

    def _checked_connection(self) -> sqlite3.Connection:
        if self._closed:
            raise StorageError("database connection is closed")
        return self._connection

    @contextmanager
    def _locked(self) -> Iterator[None]:
        """The connection lock, with contended waits recorded in the
        ``sql.lock.wait_ms`` histogram.  The uncontended (and reentrant)
        fast path records nothing, so hot loops stay cheap."""
        if not self._lock.acquire(blocking=False):
            started = time.monotonic()
            self._lock.acquire()
            get_registry().histogram("sql.lock.wait_ms").observe(
                (time.monotonic() - started) * 1000.0
            )
        try:
            yield
        finally:
            self._lock.release()

    # ------------------------------------------------------------------
    # Core execution
    # ------------------------------------------------------------------
    def execute(self, sql: str, params: Sequence[Any] = ()) -> sqlite3.Cursor:
        """Run one client statement (counted), firing emulated triggers."""
        with self._locked(), span("sql.execute"):
            self.counts.bump_client()
            try:
                cursor = self._checked_connection().execute(sql, params)
            except sqlite3.Error as error:
                raise StorageError(f"SQL failed: {error}\n  statement: {sql}") from error
            self._fire_statement_triggers(sql)
            return cursor

    def executemany(self, sql: str, rows: Iterable[Sequence[Any]]) -> sqlite3.Cursor:
        """Run one statement against many parameter rows (counted once per
        row, matching how a JDBC batch still ships per-row work)."""
        rows = list(rows)
        with self._locked(), span("sql.execute", rows=len(rows)):
            self.counts.bump_client(len(rows))
            try:
                cursor = self._checked_connection().executemany(sql, rows)
            except sqlite3.Error as error:
                raise StorageError(f"SQL failed: {error}\n  statement: {sql}") from error
            return cursor

    def executescript(self, script: str) -> None:
        """Run DDL; counted as a single client statement."""
        with self._locked():
            self.counts.bump_client()
            try:
                self._checked_connection().executescript(script)
            except sqlite3.Error as error:
                raise StorageError(f"SQL script failed: {error}") from error

    def query(self, sql: str, params: Sequence[Any] = ()) -> list[tuple]:
        with self._locked():
            return self.execute(sql, params).fetchall()

    def query_one(self, sql: str, params: Sequence[Any] = ()) -> Optional[tuple]:
        with self._locked():
            rows = self.execute(sql, params).fetchmany(2)
        if not rows:
            return None
        if len(rows) > 1:
            raise StorageError(f"expected at most one row from: {sql}")
        return rows[0]

    # ------------------------------------------------------------------
    # Pooled reads
    # ------------------------------------------------------------------
    def configure_pool(self, readers: int) -> None:
        """Enable (or resize/disable) the snapshot reader pool.

        ``readers`` of 0 disables pooling: :meth:`read_query` falls back
        to the locked writer connection (the pre-pool behaviour).
        Enabling it the first time moves the database into its shared
        file; it stays there when the pool is resized or disabled.
        Reconfiguring closes the previous pool.
        """
        if readers < 0:
            raise ValueError("readers must be >= 0")
        if readers and self._path is None:
            self._share()
        previous = self._pool
        self._pool = ReaderPool(readers, self._path) if readers else None
        if previous is not None:
            previous.close()

    def _share(self) -> None:
        """Move the in-memory database into a WAL-journaled file.

        In WAL mode a reader connection sees the last committed
        transaction of the file, and neither blocks the writer nor is
        blocked by it.  The file is scratch space, not a durability
        mechanism (the update service has its own log and checkpoints),
        so commits skip the fsync: ``synchronous = OFF``, and the file
        goes to a RAM-backed directory where there is one, so its page
        writes never queue behind the disk the service's log syncs to.
        """
        directory = tempfile.mkdtemp(prefix="repro-db-", dir=_memory_directory())
        path = os.path.join(directory, "store.sqlite")
        shared = sqlite3.connect(path, check_same_thread=False)
        try:
            shared.execute("PRAGMA journal_mode = WAL")
            shared.execute("PRAGMA synchronous = OFF")
            shared.execute("PRAGMA foreign_keys = OFF")
            with self._locked():
                connection = self._checked_connection()
                connection.commit()
                connection.backup(shared)
                connection.close()
                self._connection = shared
        except BaseException:
            shared.close()
            shutil.rmtree(directory, ignore_errors=True)
            raise
        self._path = path
        self._remove_directory = weakref.finalize(
            self, shutil.rmtree, directory, ignore_errors=True
        )

    @property
    def pool(self) -> Optional[ReaderPool]:
        return self._pool

    def pool_stats(self) -> Optional[dict]:
        """Pool snapshot for ``stats()`` surfaces; None when disabled."""
        return self._pool.stats() if self._pool is not None else None

    def read_query(
        self, sql: str, params: Sequence[Any] = (), timeout: Optional[float] = None
    ) -> list[tuple]:
        """Run one read-only statement, concurrently when pooled.

        With a configured pool this executes on a snapshot reader —
        concurrent ``read_query`` calls run genuinely in parallel and
        never touch the writer lock.  Without a pool, or while the
        writer holds an open transaction (whose uncommitted state a
        snapshot would not show), it falls back to the locked
        :meth:`query` path, so results always reflect every statement
        issued so far.
        """
        pool = self._pool
        if pool is not None and not self._closed and not self._connection.in_transaction:
            with span("sql.read"):
                rows = pool.query(sql, params, timeout=timeout)
            self.counts.bump_client()
            return rows
        return self.query(sql, params)

    # ------------------------------------------------------------------
    def clone(self) -> "Database":
        """Copy the full database into a fresh in-memory instance.

        Uses SQLite's backup API (page-level copy), so a loaded store can
        be snapshotted once and restored per benchmark run far faster
        than reloading.  Emulated statement-trigger registrations are
        wrapper state and are copied too; counters start at zero and the
        clone's reader pool starts unconfigured.
        """
        clone = Database()
        with self._locked():
            connection = self._checked_connection()
            connection.commit()
            connection.backup(clone._connection)
            clone._statement_triggers = dict(self._statement_triggers)
        return clone

    def dump_bytes(self) -> bytes:
        """The whole database as a SQLite image (``Connection.serialize``).

        Used by checkpoint snapshots: unlike re-serialising to XML, the
        image preserves tuple ids, so relational operations logged after
        the checkpoint replay against the same rows they named.
        """
        with self._locked():
            connection = self._checked_connection()
            connection.commit()
            return _rollback_journal_image(connection.serialize())

    def committed_image(self) -> bytes:
        """The last *committed* state as a SQLite image.

        The fuzzy checkpoint's capture hook.  On a pooled database it
        serialises a leased snapshot reader, so it never takes the
        writer lock and never issues a commit: the image is exactly
        the committed state even while the writer holds an open
        transaction.  Without a pool it is :meth:`dump_bytes` (under
        the service's per-document read lock the writer has no open
        transaction, so the commit there is a no-op).
        """
        pool = self._pool
        if pool is None:
            return self.dump_bytes()
        with pool.acquire() as connection:
            try:
                return _rollback_journal_image(connection.serialize())
            except sqlite3.Error as error:
                raise StorageError(f"cannot serialise a snapshot: {error}") from error

    def load_bytes(self, data: bytes) -> None:
        """Replace the database contents with a ``dump_bytes`` image.

        The image is written to a temporary file in the RAM-backed
        directory and copied in from there with the backup API, so the
        process never holds a second in-memory copy of it; the file is
        removed whether the restore succeeds or not.  The backup writes
        the image as one transaction: a pooled read running meanwhile
        keeps the snapshot it started on, and the next lease sees the
        restored state.
        """
        directory = tempfile.mkdtemp(prefix="repro-restore-", dir=_memory_directory())
        try:
            path = os.path.join(directory, "image.sqlite")
            with open(path, "wb") as file:
                file.write(data)
            source = sqlite3.connect(path)
            try:
                with self._locked():
                    source.backup(self._checked_connection())
            finally:
                source.close()
        except (sqlite3.Error, OSError) as error:
            raise StorageError(f"cannot load database image: {error}") from error
        finally:
            shutil.rmtree(directory, ignore_errors=True)

    def commit(self) -> None:
        with self._locked():
            self._checked_connection().commit()

    def rollback(self) -> None:
        with self._locked():
            self._checked_connection().rollback()

    def close(self) -> None:
        """Close the connection (and pool); safe to call more than once."""
        pool = self._pool
        if pool is not None:
            pool.close()
        with self._locked():
            if self._closed:
                return
            self._closed = True
            self._connection.close()
        if self._remove_directory is not None:
            self._remove_directory()

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Per-statement trigger emulation
    # ------------------------------------------------------------------
    def register_statement_trigger(self, table: str, sweep_sql: list[str]) -> None:
        """Register DELETE-trigger bodies fired after client deletes on
        ``table``.  Each body statement is itself treated as a delete on
        its own target table, so registered triggers chain (as DB2
        statement triggers would)."""
        self._statement_triggers[table.lower()] = list(sweep_sql)

    def clear_statement_triggers(self) -> None:
        self._statement_triggers.clear()

    def _fire_statement_triggers(self, sql: str) -> None:
        if not self._statement_triggers:
            return
        table = _delete_target(sql)
        if table is None:
            return
        self._run_trigger_chain(table)

    def _run_trigger_chain(self, table: str) -> None:
        for sweep_sql in self._statement_triggers.get(table.lower(), ()):
            self.counts.bump_trigger()
            try:
                cursor = self._connection.execute(sweep_sql)
            except sqlite3.Error as error:
                raise StorageError(
                    f"emulated trigger failed: {error}\n  statement: {sweep_sql}"
                ) from error
            chained = _delete_target(sweep_sql)
            # Chain into the swept table's own trigger.  Stopping when a
            # sweep removed nothing bounds recursive schemas (a real DB2
            # statement trigger on a self-referencing table would not
            # terminate either; cascading delete stops the same way).
            if chained is not None and cursor.rowcount:
                self._run_trigger_chain(chained)


def _memory_directory() -> Optional[str]:
    """``/dev/shm`` when it is a writable directory (Linux tmpfs), else
    None: :func:`tempfile.mkdtemp`'s default, ``$TMPDIR`` or ``/tmp``."""
    shm = "/dev/shm"
    return shm if os.path.isdir(shm) and os.access(shm, os.W_OK) else None


def _rollback_journal_image(image: bytes) -> bytes:
    """``image`` with its header naming the rollback journal.

    A WAL-mode database serialises with file-format bytes 18–19 set to
    2, and a restore must not open its image in WAL mode (that needs
    ``-wal``/``-shm`` side files; an in-memory database has no WAL at
    all).  Checkpoint images therefore always carry the rollback-journal
    marks, whichever mode they were taken in.  The header is patched in
    a single mutable copy, and the serialised original is released
    before it is returned: a bytes-like result that hashing, file
    writes and restores all accept.
    """
    if image[18:20] != b"\x02\x02":
        return image
    patched = bytearray(image)
    del image
    patched[18:20] = b"\x01\x01"
    return patched


def _delete_target(sql: str) -> Optional[str]:
    """Table name if ``sql`` is a DELETE statement, else None."""
    stripped = sql.lstrip().lower()
    if not stripped.startswith("delete"):
        return None
    parts = stripped.split()
    try:
        from_index = parts.index("from")
    except ValueError:
        return None
    if from_index + 1 >= len(parts):
        return None
    return parts[from_index + 1].strip('";')
