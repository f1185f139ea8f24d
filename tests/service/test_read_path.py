"""The concurrent read path through the service: pooled readers, cache
stats surfacing, and counter integrity under reader/writer stress."""

import json
import threading

import pytest

from repro.bench.experiments import build_fixed_store
from repro.obs import get_registry
from repro.service import (
    AsyncNetServer,
    ServiceClient,
    ServiceConfig,
    SubtreeDelete,
    UpdateService,
)
from repro.workloads.synthetic import SyntheticParams

DOC = "synthetic.xml"
READ = f'FOR $x IN document("{DOC}")/root/n1[str="no-such-value"] RETURN $x'
JOIN_TIMEOUT = 30


@pytest.fixture(scope="module")
def master():
    store = build_fixed_store(SyntheticParams(64, 3, 1))
    store.set_delete_method("per_statement_trigger")
    yield store
    store.close()


def make_service(master, **overrides):
    config = dict(batch_size=8, coalesce_wait=0.002, query_workers=8, readers=4)
    config.update(overrides)
    service = UpdateService(ServiceConfig(**config))
    service.host_store(DOC, master.snapshot())
    return service.start()


def subtree_ids(store, count):
    rows = store.db.query(
        'SELECT id FROM "n1" WHERE parentId = (SELECT id FROM "root") ORDER BY id'
    )
    assert len(rows) >= count
    return [row[0] for row in rows[:count]]


class TestPoolWiring:
    def test_hosting_a_store_configures_its_reader_pool(self, master):
        service = make_service(master, readers=3)
        try:
            store = service.host(DOC).store
            assert store.db.pool is not None
            assert store.db.pool.size == 3
        finally:
            service.close()

    def test_readers_zero_keeps_the_locked_path(self, master):
        service = make_service(master, readers=0)
        try:
            assert service.host(DOC).store.db.pool is None
            assert service.query_elements(DOC, READ) == []
        finally:
            service.close()

    def test_a_store_with_its_own_pool_is_left_alone(self, master):
        store = master.snapshot()
        store.configure_readers(1)
        service = UpdateService(ServiceConfig(readers=6))
        service.host_store(DOC, store)
        try:
            assert store.db.pool.size == 1
        finally:
            service.close()


class TestStatsSurfaces:
    def test_service_stats_expose_the_read_path(self, master):
        service = make_service(master, readers=2)
        try:
            for _ in range(3):
                service.query_elements(DOC, READ)
            read_path = service.stats()["read_path"]
            assert read_path["query_workers"] == 8
            assert read_path["readers"] == 2
            assert read_path["statement_cache"]["capacity"] > 0
            per_store = read_path["stores"][DOC]
            assert per_store["pool"]["size"] == 2
            assert per_store["plan_cache"]["entries"] >= 1
            assert per_store["plan_cache"]["hits"] >= 2
        finally:
            service.close()

    def test_net_stats_request_carries_the_read_path(self, master):
        service = make_service(master)
        server = AsyncNetServer(service, own_service=True).start()
        client = ServiceClient(*server.address)
        try:
            client.query(DOC, READ)
            stats = client.stats()
            read_path = stats["service"]["read_path"]
            assert read_path["readers"] == 4
            assert DOC in read_path["stores"]
        finally:
            client.close()
            server.close()

    def test_cli_stats_json_includes_cache_counters(self, capsys):
        from repro.cli import main

        assert main(["stats", "--json"]) == 0
        snapshot = json.loads(capsys.readouterr().out)
        for name in (
            "cache.parse.hits",
            "cache.parse.misses",
            "cache.plan.hits",
            "cache.plan.misses",
            "sql.pool.reads",
        ):
            assert name in snapshot


class TestConcurrentReads:
    def test_eight_readers_and_a_writer_lose_no_counter_increments(self, master):
        # Satellite acceptance: StatementCounts and the mirrored
        # ``sql.statements.*`` registry counters must agree exactly after
        # 8 reader threads and 1 writer hammer one store — a lost
        # increment on either side breaks the benchmarks' attribution.
        service = make_service(master, readers=8)
        store = service.host(DOC).store
        ids = subtree_ids(store, 10)
        reads_per_thread = 25
        errors = []
        before_instance = store.db.counts.client
        before_registry = get_registry().snapshot().get(
            "sql.statements.client", {"value": 0}
        )["value"]
        pool_reads_before = get_registry().snapshot().get(
            "sql.pool.reads", {"value": 0}
        )["value"]

        def reader():
            try:
                for _ in range(reads_per_thread):
                    service.query_elements(DOC, READ)
            except Exception as error:  # propagated to the assertion below
                errors.append(error)

        def writer():
            try:
                for subtree_id in ids:
                    service.submit_wait(
                        SubtreeDelete(DOC, "n1", (subtree_id,)), timeout=JOIN_TIMEOUT
                    )
            except Exception as error:
                errors.append(error)

        threads = [threading.Thread(target=reader) for _ in range(8)]
        threads.append(threading.Thread(target=writer))
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(JOIN_TIMEOUT)
        finally:
            service.close()
        assert errors == []
        assert not any(thread.is_alive() for thread in threads)
        snapshot = get_registry().snapshot()
        delta_instance = store.db.counts.client - before_instance
        delta_registry = (
            snapshot["sql.statements.client"]["value"] - before_registry
        )
        # Both views agree (nothing lost on either side of the mirror)...
        assert delta_instance == delta_registry
        # ...each read issued exactly one counted outer-union statement,
        # and the writer's delete batches accounted for the rest.
        reads_total = 8 * reads_per_thread
        assert delta_instance >= reads_total + len(ids)
        # Every read went down the pooled snapshot path (the writer only
        # holds its transaction inside the document write lock, so reads
        # never need the uncommitted-writer fallback).
        pool_reads = snapshot["sql.pool.reads"]["value"] - pool_reads_before
        assert pool_reads >= reads_total

    def test_reads_stay_correct_across_a_checkpoint(self, master, tmp_path):
        # Checkpointing serialises a pooled snapshot reader; reads
        # racing the checkpoint must see either the before or the after
        # state, never an error or a torn snapshot.
        service = make_service(
            master,
            readers=4,
            wal_path=str(tmp_path / "read.wal"),
            checkpoint_dir=str(tmp_path / "ckpt"),
        )
        stop = threading.Event()
        errors = []

        def reader():
            statement = f'FOR $x IN document("{DOC}")/root/n1 RETURN $x'
            try:
                while not stop.is_set():
                    count = len(service.query_elements(DOC, statement))
                    assert count in (64, 63)
            except Exception as error:
                errors.append(error)

        threads = [threading.Thread(target=reader) for _ in range(4)]
        store = service.host(DOC).store
        try:
            for thread in threads:
                thread.start()
            service.submit_wait(
                SubtreeDelete(DOC, "n1", (subtree_ids(store, 1)[0],)),
                timeout=JOIN_TIMEOUT,
            )
            report = service.checkpoint(timeout=JOIN_TIMEOUT)
            assert report.documents >= 1
        finally:
            stop.set()
            for thread in threads:
                thread.join(JOIN_TIMEOUT)
            service.close()
        assert errors == []
