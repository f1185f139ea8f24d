"""Group-commit batcher: batching, coalescing, failure isolation."""

import threading
import time

import pytest

from repro.bench.experiments import build_fixed_store
from repro.errors import (
    ReproError,
    ServiceClosedError,
    ServiceError,
    ServiceTimeoutError,
)
from repro.obs import get_registry
from repro.obs.metrics import Counter
from repro.service import ServiceConfig, SubtreeCopy, SubtreeDelete, UpdateService
from repro.service.batcher import GroupCommitBatcher
from repro.workloads.synthetic import SyntheticParams


def spawn(target):
    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    return thread


@pytest.fixture(scope="module")
def master():
    store = build_fixed_store(SyntheticParams(48, 3, 2))
    store.set_delete_method("per_statement_trigger")
    yield store
    store.close()


def subtree_ids(store, count):
    rows = store.db.query(
        'SELECT id FROM "n1" WHERE parentId = (SELECT id FROM "root") ORDER BY id'
    )
    assert len(rows) >= count
    return [row[0] for row in rows[:count]]


def run_deletes(master, batch_size, count=24):
    """Delete ``count`` subtrees through a service; returns (store, tickets)."""
    store = master.snapshot()
    ids = subtree_ids(store, count)
    store.db.counts.reset()
    # A small coalesce window keeps the test deterministic: the committer
    # waits a beat after the first dequeue so all submissions join one batch.
    service = UpdateService(
        ServiceConfig(
            batch_size=batch_size, coalesce_wait=0.05 if batch_size > 1 else 0.0
        )
    )
    service.host_store("db.xml", store)
    service.start()
    tickets = [
        service.submit(SubtreeDelete("db.xml", "n1", (subtree_id,)))
        for subtree_id in ids
    ]
    service.flush(timeout=30)
    for ticket in tickets:
        ticket.wait(5)
    counts = (store.db.counts.client, store.db.counts.trigger_emulation)
    service.close()
    return store, counts


class TestCoalescing:
    def test_batched_deletes_issue_fewer_statements(self, master):
        store1, counts1 = run_deletes(master, batch_size=1)
        store64, counts64 = run_deletes(master, batch_size=64)
        try:
            # Same end state either way...
            assert (
                store1.db.query('SELECT id FROM "n1" ORDER BY id')
                == store64.db.query('SELECT id FROM "n1" ORDER BY id')
            )
            # ...but the batch coalesces 24 single-subtree deletes into one
            # DELETE ... WHERE id IN (...), so the per-statement trigger
            # sweeps once instead of 24 times.
            assert counts1[0] == 24  # one client DELETE per update
            assert counts64[0] < counts1[0]
            assert counts64[0] <= 4  # 1 per batch; allow a straggler batch
            assert counts64[1] < counts1[1]
        finally:
            store1.close()
            store64.close()

    def test_copy_coalescing_preserves_content(self, master):
        store = master.snapshot()
        root_id = store.db.query_one('SELECT id FROM "root"')[0]
        ids = subtree_ids(store, 6)
        before = store.db.query_one('SELECT COUNT(*) FROM "n1"')[0]
        service = UpdateService(ServiceConfig(batch_size=64))
        service.host_store("db.xml", store)
        service.start()
        tickets = [
            service.submit(SubtreeCopy("db.xml", "n1", (subtree_id,), root_id))
            for subtree_id in ids
        ]
        service.flush(timeout=30)
        for ticket in tickets:
            ticket.wait(5)
        service.close()
        after = store.db.query_one('SELECT COUNT(*) FROM "n1"')[0]
        assert after == before + len(ids)
        store.close()

    def test_same_id_copies_in_one_batch_both_apply(self, master):
        """Failing before: ``_coalesce`` concatenated the two copies' id
        tuples and ``_ids_where`` de-duplicated them, so the subtree was
        copied once while both tickets acked and ``batcher.ops.applied``
        counted two."""
        store = master.snapshot()
        root_id = store.db.query_one('SELECT id FROM "root"')[0]
        (subtree_id,) = subtree_ids(store, 1)
        before = store.db.query_one('SELECT COUNT(*) FROM "n1"')[0]
        applied = get_registry().counter("batcher.ops.applied")
        applied_before = applied.value
        service = UpdateService(ServiceConfig(batch_size=64))
        service.host_store("db.xml", store)
        service.start()
        # Queue both while the committer is paused: they form one batch.
        with service._batcher.paused(timeout=5):
            tickets = [
                service.submit(SubtreeCopy("db.xml", "n1", (subtree_id,), root_id))
                for _ in range(2)
            ]
        for ticket in tickets:
            ticket.wait(5)
        assert service._batcher.stats.batches == 1
        service.close()
        after = store.db.query_one('SELECT COUNT(*) FROM "n1"')[0]
        store.close()
        assert after == before + 2
        assert applied.value == applied_before + 2

    def test_order_preserving_coalescing(self):
        """delete/copy/delete on one relation must stay three invocations."""
        from repro.service.server import _coalesce

        ops = [
            (0, SubtreeDelete("d", "n1", (1,))),
            (1, SubtreeDelete("d", "n1", (2,))),
            (2, SubtreeCopy("d", "n1", (3,), 99)),
            (3, SubtreeDelete("d", "n1", (4,))),
            (4, SubtreeCopy("d", "n1", (5,), 99)),
            (5, SubtreeCopy("d", "n1", (6,), 98)),  # different parent: no merge
        ]
        groups = _coalesce(ops)
        assert [type(g).__name__ for g in groups] == [
            "SubtreeDelete", "SubtreeCopy", "SubtreeDelete",
            "SubtreeCopy", "SubtreeCopy",
        ]
        assert groups[0].ids == (1, 2)
        assert groups[3].ids == (5,)
        assert groups[4].ids == (6,)


class TestFailureIsolation:
    def test_bad_relation_fails_batch_group_but_not_other_docs(self, master):
        store_a = master.snapshot()
        store_b = master.snapshot()
        # The coalesce window guarantees all three submissions join one
        # batch, so both a.xml ops share a transaction deterministically.
        service = UpdateService(ServiceConfig(batch_size=64, coalesce_wait=0.1))
        service.host_store("a.xml", store_a)
        service.host_store("b.xml", store_b)
        service.start()
        good_b = service.submit(SubtreeDelete("b.xml", "n1", tuple(subtree_ids(store_b, 1))))
        bad_a = service.submit(SubtreeDelete("a.xml", "no_such_relation", (1,)))
        good_a = service.submit(SubtreeDelete("a.xml", "n1", tuple(subtree_ids(store_a, 1))))
        service.flush(timeout=30)
        # b committed; a's whole group aborted (transactional per document).
        assert good_b.wait(5) is not None
        with pytest.raises(ReproError):
            bad_a.wait(5)
        with pytest.raises(ReproError):
            good_a.wait(5)
        service.close()
        store_a.close()
        store_b.close()

    def test_unknown_document_rejected_at_submit(self, master):
        service = UpdateService()
        service.start()
        with pytest.raises(ServiceError):
            service.submit(SubtreeDelete("ghost.xml", "n1", (1,)))
        service.close()


class TestQueueDiscipline:
    def test_flush_is_a_barrier(self):
        applied = []

        def apply(ops, seqs):
            applied.extend(ops)
            return [None] * len(ops)

        batcher = GroupCommitBatcher(apply, max_batch=8)
        batcher.start()
        for i in range(20):
            batcher.submit(SubtreeDelete("d", "n1", (i,)))
        batcher.flush(timeout=10)
        assert len(applied) == 20
        batcher.close()

    def test_bounded_queue_times_out(self):
        release = threading.Event()

        def slow_apply(ops, seqs):
            release.wait(10)
            return [None] * len(ops)

        batcher = GroupCommitBatcher(slow_apply, max_batch=1, max_queue=1)
        batcher.start()
        batcher.submit(SubtreeDelete("d", "n1", (1,)))  # picked up by worker
        batcher.submit(SubtreeDelete("d", "n1", (2,)))  # fills the queue
        with pytest.raises(ServiceTimeoutError):
            batcher.submit(SubtreeDelete("d", "n1", (3,)), timeout=0.05)
        release.set()
        batcher.close()

    def test_close_drains_by_default(self):
        applied = []

        def apply(ops, seqs):
            applied.extend(ops)
            return [None] * len(ops)

        batcher = GroupCommitBatcher(apply, max_batch=4)
        batcher.start()
        tickets = [batcher.submit(SubtreeDelete("d", "n1", (i,))) for i in range(10)]
        assert batcher.close(drain=True) == 0  # clean drain: nothing undrained
        assert len(applied) == 10
        assert all(ticket.done for ticket in tickets)
        with pytest.raises(ServiceClosedError):
            batcher.submit(SubtreeDelete("d", "n1", (99,)))

    def test_close_with_stalled_committer_reports_undrained(self):
        """Regression: ``close(drain=True, timeout=...)`` joined the
        committer thread and returned None even when the join timed out
        — a stalled apply meant acked-but-unapplied work was silently
        reported as a clean shutdown.  It must return the undrained
        count and bump ``batcher.close.undrained``."""
        release = threading.Event()

        def stalled_apply(ops, seqs):
            release.wait(30)
            return [None] * len(ops)

        batcher = GroupCommitBatcher(stalled_apply, max_batch=1, max_queue=4)
        batcher.start()
        batcher.submit(SubtreeDelete("d", "n1", (1,)))  # wedged in apply
        batcher.submit(SubtreeDelete("d", "n1", (2,)))  # still queued
        counter = get_registry().counter("batcher.close.undrained")
        before = counter.value
        try:
            undrained = batcher.close(drain=True, timeout=0.2)
            assert undrained == 2
            assert counter.value == before + 2
        finally:
            release.set()
        # The committer finishes once unstalled; a repeated close
        # re-reports the (now clean) state without double-counting.
        batcher._thread.join(5)
        assert batcher.close(timeout=1) == 0
        assert counter.value == before + 2

    def test_service_close_surfaces_undrained_count(self):
        """The service must pass the batcher's undrained signal through
        instead of swallowing it (previously ``UpdateService.close``
        ignored the result entirely)."""
        from repro.service.ops import DeltaUpdate
        from repro.updates.delta import InsertNode
        from repro.xmlmodel.parser import XmlParser

        service = UpdateService(ServiceConfig(batch_size=1))
        doc = "doc.xml"
        service.host_document(doc, XmlParser("<db></db>").parse())
        release = threading.Event()
        host = service.host(doc)
        original_apply = host.apply

        def stalled(op):
            release.wait(30)
            return original_apply(op)

        host.apply = stalled
        service.start()
        service.submit(DeltaUpdate(doc, (InsertNode((), 0, xml="<e/>"),)))
        try:
            assert service.close(drain=True, timeout=0.2) == 1  # the wedged op
        finally:
            release.set()

    def test_submit_timeout_is_a_deadline_not_per_wait(self):
        """Regression: the full timeout used to be passed to every
        ``cond.wait()``, so each wake-up (every batch completion
        notifies this condition) restarted the clock and a busy service
        could block a submitter far past its timeout."""
        release = threading.Event()

        def slow_apply(ops, seqs):
            release.wait(10)
            return [None] * len(ops)

        batcher = GroupCommitBatcher(slow_apply, max_batch=1, max_queue=1)
        batcher.start()
        batcher.submit(SubtreeDelete("d", "n1", (1,)))  # picked up by worker
        batcher.submit(SubtreeDelete("d", "n1", (2,)))  # fills the queue
        stop_poking = threading.Event()

        def poke():
            # Spurious wake-ups every 50ms: pre-fix, each one restarted
            # the full 0.3s wait, so the submit below never timed out.
            while not stop_poking.wait(0.05):
                with batcher._cond:
                    batcher._cond.notify_all()

        poker = spawn(poke)
        started = time.monotonic()
        try:
            with pytest.raises(ServiceTimeoutError):
                batcher.submit(SubtreeDelete("d", "n1", (3,)), timeout=0.3)
            assert time.monotonic() - started < 1.5
        finally:
            stop_poking.set()
            poker.join(5)
            release.set()
            batcher.close()

    def test_flush_timeout_is_a_deadline_not_per_wait(self):
        """Same regression as above, for ``flush``."""
        release = threading.Event()

        def slow_apply(ops, seqs):
            release.wait(10)
            return [None] * len(ops)

        batcher = GroupCommitBatcher(slow_apply, max_batch=1)
        batcher.start()
        batcher.submit(SubtreeDelete("d", "n1", (1,)))
        stop_poking = threading.Event()

        def poke():
            while not stop_poking.wait(0.05):
                with batcher._cond:
                    batcher._cond.notify_all()

        poker = spawn(poke)
        started = time.monotonic()
        try:
            with pytest.raises(ServiceTimeoutError):
                batcher.flush(timeout=0.3)
            assert time.monotonic() - started < 1.5
        finally:
            stop_poking.set()
            poker.join(5)
            release.set()
            batcher.close()

    def test_paused_quiesces_in_flight_batch_and_resumes(self):
        """``paused()`` must wait out the in-flight batch, hold new ones
        back (submissions still queue), and drain them on exit."""
        started = threading.Event()
        release = threading.Event()

        def gated_apply(ops, seqs):
            started.set()
            release.wait(10)
            return [None] * len(ops)

        batcher = GroupCommitBatcher(gated_apply, max_batch=1)
        batcher.start()
        first = batcher.submit(SubtreeDelete("d", "n1", (1,)))
        assert started.wait(5)

        entered = threading.Event()
        resume = threading.Event()
        failures = []

        def pauser():
            try:
                with batcher.paused(timeout=10):
                    entered.set()
                    resume.wait(5)
            except Exception as error:  # pragma: no cover - failure path
                failures.append(error)

        thread = spawn(pauser)
        time.sleep(0.05)
        assert not entered.is_set(), "pause must wait for the in-flight batch"
        release.set()
        assert first.wait(5) is not None
        assert entered.wait(5)
        pending = batcher.submit(SubtreeDelete("d", "n1", (2,)))
        time.sleep(0.1)
        assert not pending.done, "no batch may start while paused"
        resume.set()
        thread.join(5)
        assert failures == []
        assert pending.wait(5) is not None
        batcher.close()

    def test_paused_times_out_on_a_stuck_batch(self):
        release = threading.Event()
        picked_up = threading.Event()

        def slow_apply(ops, seqs):
            picked_up.set()
            release.wait(10)
            return [None] * len(ops)

        batcher = GroupCommitBatcher(slow_apply, max_batch=1)
        batcher.start()
        batcher.submit(SubtreeDelete("d", "n1", (1,)))
        assert picked_up.wait(5)
        with pytest.raises(ServiceTimeoutError):
            with batcher.paused(timeout=0.1):
                pass  # pragma: no cover - never entered
        release.set()
        batcher.close()

    def test_after_commit_hook_fires_per_batch(self):
        sizes = []

        def apply(ops, seqs):
            return [None] * len(ops)

        batcher = GroupCommitBatcher(apply, max_batch=4, after_commit=sizes.append)
        batcher.start()
        for i in range(6):
            batcher.submit(SubtreeDelete("d", "n1", (i,)))
        batcher.flush(timeout=10)
        batcher.close()
        assert sum(sizes) == 6
        assert all(size >= 1 for size in sizes)

    def test_counts_move_before_any_ticket_resolves(self, monkeypatch):
        """Failing before: ``_commit_batch`` resolved every ticket and
        only then counted the batch, so a client that saw its ack and
        then asked for ``stats`` could read applied < acked."""
        batcher = GroupCommitBatcher(lambda ops, seqs: [None] * len(ops), max_batch=8)
        # Queued before the committer starts: one batch of three.
        tickets = [batcher.submit(SubtreeDelete("d", "n1", (i,))) for i in range(3)]
        seen = []
        original_inc = Counter.inc

        def recording_inc(counter, amount=1):
            if counter.name == "batcher.ops.applied":
                seen.append(
                    ([ticket.done for ticket in tickets], batcher.stats.applied)
                )
            original_inc(counter, amount)

        monkeypatch.setattr(Counter, "inc", recording_inc)
        batcher.start()
        for ticket in tickets:
            ticket.wait(5)
        batcher.close()
        assert seen == [([False, False, False], 3)]

    def test_close_without_drain_fails_pending(self):
        started = threading.Event()
        release = threading.Event()

        def gated_apply(ops, seqs):
            started.set()
            release.wait(10)
            return [None] * len(ops)

        batcher = GroupCommitBatcher(gated_apply, max_batch=1)
        batcher.start()
        first = batcher.submit(SubtreeDelete("d", "n1", (1,)))
        started.wait(5)
        pending = batcher.submit(SubtreeDelete("d", "n1", (2,)))
        release.set()
        batcher.close(drain=False)
        first.wait(5)  # in-flight op still completes
        with pytest.raises(ServiceClosedError):
            pending.wait(5)
