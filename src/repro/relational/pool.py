"""Snapshot-consistent read-only connection pool over one store.

The write path scales with group commit; before this module the read
path did not scale at all — every ``query`` serialised behind the one
per-store SQLite connection lock in
:class:`~repro.relational.database.Database`, so the threaded front
end gained nothing from concurrent clients on read-heavy workloads.

A pooled store lives in one WAL-journaled SQLite file (see
:meth:`Database.configure_pool`), and each pooled reader is a
read-only connection to that same file: readers share the writer's
committed pages instead of holding copies of them.  In WAL mode a
reader sees the newest committed version without blocking the writer
or being blocked by it, so nothing is copied per commit and nothing is
refreshed per reader beyond SQLite dropping a reader's page cache when
the file has changed.  :meth:`ReaderPool.query` runs one statement,
which is a snapshot by itself; :meth:`ReaderPool.acquire` leases a
reader inside a read transaction (:meth:`ReaderPool._refresh`) for
callers that need several statements to see one version.  Statement
stepping releases the GIL, so pooled readers execute genuinely in
parallel on separate connections, and none of them ever sees the
writer's uncommitted in-flight state.

Instrumentation: ``sql.pool.size`` / ``sql.pool.in_use`` gauges,
``sql.pool.wait_ms`` (time to get a reader) histogram, and the
``sql.pool.reads`` counter.
"""

from __future__ import annotations

import sqlite3
import threading
import time
from pathlib import Path
from typing import Any, Optional, Sequence

from repro.errors import StorageError
from repro.obs import get_registry


class _Reader:
    """One pooled read-only connection to the writer's file."""

    __slots__ = ("connection",)

    def __init__(self, path: str) -> None:
        self.connection = sqlite3.connect(
            f"{Path(path).as_uri()}?mode=ro",
            uri=True,
            check_same_thread=False,
            isolation_level=None,  # the only transaction is a lease's
        )

    def end_lease(self) -> None:
        """Close the lease's read transaction (releasing its snapshot)."""
        try:
            if self.connection.in_transaction:
                self.connection.execute("ROLLBACK")
        except sqlite3.Error:
            pass

    def close(self) -> None:
        try:
            self.connection.close()
        except sqlite3.Error:
            pass


class ReaderPool:
    """A bounded pool of snapshot readers over one WAL-mode database file.

    ``path`` names the file the writer keeps its committed state in.
    ``close()`` is idempotent; leased readers close as they come back.
    """

    def __init__(self, size: int, path: str) -> None:
        if size < 1:
            raise ValueError("reader pool size must be >= 1")
        self._size = size
        self._cond = threading.Condition()
        self._idle: list[_Reader] = [_Reader(path) for _ in range(size)]
        self._in_use = 0
        self._closed = False
        get_registry().gauge("sql.pool.size").set(size)

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        return self._size

    def acquire(self, timeout: Optional[float] = None) -> "_LeasedReader":
        """Lease a reader pinned to the newest committed version (a
        context manager), for callers that run several statements
        against one snapshot.

        Blocks while the pool is exhausted; raises
        :class:`StorageError` on timeout or once the pool is closed.
        """
        reader = self._checkout(timeout)
        try:
            self._refresh(reader)
        except BaseException:
            self._release(reader)
            raise
        return _LeasedReader(self, reader)

    def _checkout(self, timeout: Optional[float]) -> _Reader:
        """Take an idle reader, waiting while the pool is exhausted."""
        started = time.monotonic()
        deadline = None if timeout is None else started + timeout
        with self._cond:
            while True:
                if self._closed:
                    raise StorageError("reader pool is closed")
                if self._idle:
                    reader = self._idle.pop()
                    self._in_use += 1
                    # Publish while still holding the lock: each set is
                    # then serialised with the ±1 it reports, so the
                    # gauge walks the true lease count instead of
                    # racing a concurrent release's stale read.
                    get_registry().gauge("sql.pool.in_use").set(self._in_use)
                    break
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise StorageError(
                            f"timed out waiting for a pooled reader "
                            f"({self._size} in use)"
                        )
                    self._cond.wait(remaining)
                else:
                    self._cond.wait()
        registry = get_registry()
        registry.histogram("sql.pool.wait_ms").observe(
            (time.monotonic() - started) * 1000.0
        )
        registry.counter("sql.pool.reads").inc()
        return reader

    def _refresh(self, reader: _Reader) -> None:
        """Open the lease's read transaction on the newest committed
        version: the first read inside ``BEGIN`` fixes the snapshot."""
        try:
            reader.connection.execute("BEGIN")
            reader.connection.execute("PRAGMA schema_version").fetchone()
        except sqlite3.Error as error:
            raise StorageError(f"cannot open a pooled snapshot: {error}") from error

    def _release(self, reader: _Reader) -> None:
        reader.end_lease()
        with self._cond:
            self._in_use -= 1
            # Inside the lock, like acquire: re-reading `_in_use` after
            # releasing raced concurrent acquires into publishing stale
            # (negative-clamped) values out of order.
            get_registry().gauge("sql.pool.in_use").set(self._in_use)
            if self._closed:
                reader.close()
            else:
                self._idle.append(reader)
            self._cond.notify_all()

    # ------------------------------------------------------------------
    def query(
        self, sql: str, params: Sequence[Any] = (), timeout: Optional[float] = None
    ) -> list[tuple]:
        """Run one read-only statement on a pooled reader.

        One statement reads one committed version by itself (SQLite
        holds a read transaction while it steps), so no lease
        transaction is opened around it.
        """
        reader = self._checkout(timeout)
        try:
            return reader.connection.execute(sql, params).fetchall()
        except sqlite3.Error as error:
            raise StorageError(
                f"SQL failed on pooled reader: {error}\n  statement: {sql}"
            ) from error
        finally:
            self._release(reader)

    def close(self) -> None:
        with self._cond:
            if self._closed:
                return
            self._closed = True
            for reader in self._idle:
                reader.close()
            self._idle.clear()
            self._cond.notify_all()

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        with self._cond:
            return {
                "size": self._size,
                "in_use": self._in_use,
                "idle": len(self._idle),
                "closed": self._closed,
            }


class _LeasedReader:
    """Context manager handing out the leased connection."""

    __slots__ = ("_pool", "_reader")

    def __init__(self, pool: ReaderPool, reader: _Reader) -> None:
        self._pool = pool
        self._reader = reader

    def __enter__(self) -> sqlite3.Connection:
        return self._reader.connection

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self._pool._release(self._reader)
