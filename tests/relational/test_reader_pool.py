"""The snapshot reader pool and the writer-lock contention histogram."""

import os
import threading
import time

import pytest

from repro.errors import StorageError
from repro.obs import get_registry
from repro.relational.database import Database


def _hist(name: str) -> dict:
    data = get_registry().snapshot().get(name)
    return data if data is not None else {"count": 0, "sum": 0.0}


@pytest.fixture
def db():
    db = Database()
    db.executescript('CREATE TABLE "t" (id INTEGER PRIMARY KEY, val TEXT)')
    db.executemany('INSERT INTO "t" (id, val) VALUES (?, ?)',
                   [(i, f"v{i}") for i in range(5)])
    db.commit()
    yield db
    db.close()


class TestReadQuery:
    def test_without_a_pool_reads_use_the_writer_path(self, db):
        assert db.pool is None
        assert db.pool_stats() is None
        rows = db.read_query('SELECT val FROM "t" ORDER BY id')
        assert rows == db.query('SELECT val FROM "t" ORDER BY id')

    def test_pooled_reads_see_committed_state(self, db):
        db.configure_pool(2)
        before = get_registry().snapshot()
        rows = db.read_query('SELECT val FROM "t" ORDER BY id')
        assert rows == [(f"v{i}",) for i in range(5)]
        after = get_registry().snapshot()
        pooled = after["sql.pool.reads"]["value"] - before.get(
            "sql.pool.reads", {"value": 0}
        )["value"]
        assert pooled == 1

    def test_uncommitted_writer_state_stays_visible(self, db):
        db.configure_pool(2)
        db.execute('INSERT INTO "t" (id, val) VALUES (99, "pending")')
        assert db._connection.in_transaction
        # A pooled snapshot would miss the in-flight row, so the read
        # falls back to the writer connection and sees it (exactly the
        # pre-pool semantics).
        rows = db.read_query('SELECT val FROM "t" WHERE id = 99')
        assert rows == [("pending",)]
        db.commit()
        assert db.read_query('SELECT val FROM "t" WHERE id = 99') == [("pending",)]

    def test_each_read_bumps_the_client_counter(self, db):
        db.configure_pool(1)
        start = db.counts.client
        for _ in range(4):
            db.read_query('SELECT COUNT(*) FROM "t"')
        assert db.counts.client == start + 4

    def test_pooled_reads_never_wait_for_the_writer_lock(self, db):
        """Regression: every pooled read fetched the committed image
        under the writer's connection lock first, so a read queued
        behind any long writer statement."""
        db.configure_pool(1)
        results = []
        reader = threading.Thread(
            target=lambda: results.append(db.read_query('SELECT COUNT(*) FROM "t"'))
        )
        assert db._lock.acquire(timeout=5.0)
        try:
            reader.start()
            reader.join(5.0)
            assert results == [[(5,)]], "the pooled read waited for the writer lock"
        finally:
            db._lock.release()
            reader.join(5.0)


class TestSnapshotIsolation:
    def test_leased_reader_is_a_point_in_time_snapshot(self, db):
        db.configure_pool(2)
        pool = db.pool
        with pool.acquire() as held:
            db.execute('INSERT INTO "t" (id, val) VALUES (50, "new")')
            db.commit()
            # The lease was taken before the commit: it must not see it.
            rows = held.execute('SELECT COUNT(*) FROM "t"').fetchall()
            assert rows == [(5,)]
        # A read after the lease sees the commit.
        assert db.read_query('SELECT COUNT(*) FROM "t"') == [(6,)]

    def test_pooled_reads_see_each_commit(self, db):
        db.configure_pool(3)
        for value in range(100, 105):
            db.execute('INSERT INTO "t" (id, val) VALUES (?, "c")', (value,))
            db.commit()
            expected = [(value - 100 + 6,)]
            for _ in range(3):
                assert db.read_query('SELECT COUNT(*) FROM "t"') == expected

    def test_readers_share_the_writers_file(self, db):
        db.configure_pool(2)
        [(_, _, writer_file)] = db.query("PRAGMA database_list")
        assert writer_file and db.query("PRAGMA journal_mode") == [("wal",)]
        with db.pool.acquire() as first, db.pool.acquire() as second:
            for reader in (first, second):
                [(_, _, reader_file)] = reader.execute("PRAGMA database_list").fetchall()
                assert reader_file == writer_file


class TestCommittedImage:
    def test_capture_leaves_an_open_transaction_alone(self, db):
        """Regression: the capture fell back to ``dump_bytes`` while the
        writer held an open transaction, which committed that
        transaction and put its uncommitted rows into the image."""
        db.configure_pool(1)
        db.execute('INSERT INTO "t" (id, val) VALUES (99, "pending")')
        image = db.committed_image()
        assert db._connection.in_transaction
        db.rollback()
        assert db.query('SELECT COUNT(*) FROM "t"') == [(5,)]
        restored = Database()
        try:
            restored.load_bytes(image)
            assert restored.query('SELECT COUNT(*) FROM "t"') == [(5,)]
        finally:
            restored.close()


class TestPoolLifecycle:
    def test_exhausted_pool_times_out(self, db):
        db.configure_pool(1)
        with db.pool.acquire():
            with pytest.raises(StorageError, match="timed out"):
                db.pool.acquire(timeout=0.05)
        # Releasing the lease makes the reader available again.
        assert db.pool.query('SELECT COUNT(*) FROM "t"') == [(5,)]

    def test_load_bytes_keeps_a_held_snapshot(self, db):
        db.configure_pool(2)
        image = db.dump_bytes()
        db.execute('DELETE FROM "t"')
        db.commit()
        with db.pool.acquire() as held:
            db.load_bytes(image)
            # The restore is one write transaction: the lease taken
            # before it still reads its own version...
            assert held.execute('SELECT COUNT(*) FROM "t"').fetchall() == [(0,)]
        # ...and the next lease reads the restored one.
        assert db.read_query('SELECT COUNT(*) FROM "t"') == [(5,)]

    def test_close_removes_the_shared_file(self, db):
        db.configure_pool(1)
        [(_, _, path)] = db.query("PRAGMA database_list")
        assert os.path.exists(path)
        db.close()
        assert not os.path.exists(os.path.dirname(path))

    def test_load_bytes_swaps_the_image_under_quiesce(self, db):
        db.configure_pool(2)
        image = db.dump_bytes()
        db.execute('DELETE FROM "t"')
        db.commit()
        assert db.read_query('SELECT COUNT(*) FROM "t"') == [(0,)]
        db.load_bytes(image)
        assert db.read_query('SELECT COUNT(*) FROM "t"') == [(5,)]

    def test_configure_zero_disables_pooling(self, db):
        db.configure_pool(2)
        db.configure_pool(0)
        assert db.pool is None
        assert db.read_query('SELECT COUNT(*) FROM "t"') == [(5,)]

    def test_closed_pool_rejects_acquisition(self, db):
        db.configure_pool(1)
        pool = db.pool
        pool.close()
        pool.close()  # idempotent
        with pytest.raises(StorageError, match="closed"):
            pool.acquire(timeout=0.05)


class TestLockWaitHistogram:
    def test_contended_acquire_records_a_wait(self, db):
        # Regression for the pre-pool read path: with no reader pool,
        # a read arriving while another statement holds the connection
        # lock must surface as a recorded `sql.lock.wait_ms` wait —
        # the evidence the benchmarks use to attribute flat read
        # scaling to the single-connection lock.
        before = _hist("sql.lock.wait_ms")
        results = []

        def reader():
            results.append(db.query('SELECT COUNT(*) FROM "t"'))

        assert db._lock.acquire(timeout=5.0)
        try:
            contender = threading.Thread(target=reader)
            contender.start()
            time.sleep(0.05)  # let the reader block on the held lock
        finally:
            db._lock.release()
        contender.join(5.0)
        assert results == [[(5,)]]
        after = _hist("sql.lock.wait_ms")
        assert after["count"] >= before["count"] + 1
        assert after["sum"] > before["sum"]

    def test_uncontended_reads_record_nothing(self, db):
        before = _hist("sql.lock.wait_ms")["count"]
        for _ in range(10):
            db.query('SELECT COUNT(*) FROM "t"')
        assert _hist("sql.lock.wait_ms")["count"] == before


class TestInUseGaugeConsistency:
    def test_gauge_walks_the_true_lease_count_under_concurrency(
        self, db, monkeypatch
    ):
        """Regression: acquire/release used to publish ``sql.pool.in_use``
        *after* dropping the condition lock, from a stale re-read of the
        count — two racing releases could publish the same value (the
        clamp then hid the negative excursions).  Publishing under the
        lock makes the gauge walk the true lease count: every published
        value is exactly ±1 from the previous one, stays within
        [0, size], and ends at zero."""
        from repro.obs.metrics import Gauge

        db.configure_pool(3)
        condition = db.pool._cond
        gauge = get_registry().gauge("sql.pool.in_use")
        assert gauge.value == 0
        values = []
        unlocked = []
        original_set = Gauge.set

        def recording_set(self, value):
            # Invoked under the pool's condition lock (that is the fix),
            # so appends are ordered exactly as the publications are.
            if self.name == "sql.pool.in_use":
                if not condition._is_owned():
                    unlocked.append(value)
                values.append(value)
            original_set(self, value)

        monkeypatch.setattr(Gauge, "set", recording_set)
        start = threading.Barrier(4)

        def worker():
            start.wait()
            for _ in range(50):
                rows = db.read_query('SELECT COUNT(*) FROM "t"')
                assert rows == [(5,)]

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
            assert not thread.is_alive()
        assert len(values) == 2 * 4 * 50  # one set per acquire, one per release
        # The deterministic half of the regression: a publication made
        # after dropping the condition lock is exactly the stale-read
        # race, whether or not this run's timing exposed it in the walk.
        assert unlocked == [], "gauge published outside the pool's lock"
        walk = [0] + values
        deltas = [b - a for a, b in zip(walk, walk[1:])]
        assert all(delta in (-1, 1) for delta in deltas), (
            "gauge skipped or repeated a value: the publication raced"
        )
        assert all(0 <= value <= 3 for value in values)
        assert values[-1] == 0
        assert gauge.value == 0
