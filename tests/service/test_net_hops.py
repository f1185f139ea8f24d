"""The one-round-trip request path of ``AsyncNetServer``.

The event loop admits writes itself and awaits the committer's ticket,
and awaits the query pool's future for reads; no thread parks on
behalf of a request.  These tests pin the hazards that path creates,
each through a real server:

* a ``submit_wait`` whose deadline expires, or whose connection is cut
  loose at the drain deadline, stops *waiting* for its ticket — it must
  never cancel it, or the committer's later ``set_result`` raises and
  kills the committer thread;
* a ticket that resolves after the server's loop is gone raises nothing
  on the committer thread and logs nothing;
* a full queue answers ``submit_wait`` and an update ``execute`` with
  retryable ``BUSY`` at once, not after the request's deadline
  (admission cannot block the loop);
* an update ``execute`` whose deadline passes while it is queued fails
  with ``ServiceTimeoutError`` and never runs;
* no dispatch thread exists, admission runs on the loop thread, nothing
  runs on the loop's default executor, and no thread blocks on a
  ticket or a query result for the server: ``submit_wait``, ``query``
  and both kinds of ``execute`` make two hand-offs each (loop → the
  committer or a query-pool thread → loop);
* ``execute``'s read runs on the query pool without holding any other
  thread, so more concurrent executes than query workers complete;
* no request creates a task on the server's loop: a connection is
  protocol callbacks, and a request another thread answers is written
  from its future's done-callback (3 tasks per request when each
  connection was a coroutine racing a frame read against drain, timing
  the rest of the frame with ``wait_for``, and spawning the dispatch).
"""

import asyncio
import collections
import concurrent.futures
import gc
import logging
import threading
import time

import pytest

from repro.errors import ServiceBusyError, ServiceConnectionError, ServiceTimeoutError
from repro.obs import get_registry
from repro.service import (
    AsyncNetServer,
    AsyncServiceClient,
    DeltaUpdate,
    ServiceClient,
    ServiceConfig,
    UpdateService,
)
from repro.service import server as server_module
from repro.service.batcher import Ticket
from repro.service.server import DocumentHost
from repro.updates.delta import DeleteNode, InsertNode
from repro.xmlmodel.parser import XmlParser

DOC = "doc.xml"
JOIN_TIMEOUT = 30


def entry_op(index):
    return DeltaUpdate(DOC, (InsertNode((), 1 << 30, xml=f'<e i="{index}"/>'),))


def insert_statement(index):
    return (
        f'FOR $d IN document("{DOC}")/log UPDATE $d {{ INSERT <x n="{index}"/> }}'
    )


READ_STATEMENT = f'FOR $d IN document("{DOC}")/log RETURN $d'


def make_service(**overrides):
    config = dict(batch_size=8, coalesce_wait=0.002)
    config.update(overrides)
    service = UpdateService(ServiceConfig(**config))
    service.host_document(DOC, XmlParser("<log></log>").parse())
    return service.start()


def gate_apply(service):
    """Hold the committer inside its first apply until the returned gate
    opens; the first returned event fires once it is held."""
    host = service.host(DOC)
    started, gate = threading.Event(), threading.Event()
    original_apply = host.apply

    def gated(op):
        started.set()
        gate.wait(JOIN_TIMEOUT)
        return original_apply(op)

    host.apply = gated
    return started, gate


@pytest.fixture
def thread_errors(monkeypatch):
    """Exceptions that escaped any thread while the test ran."""
    errors = []
    monkeypatch.setattr(threading, "excepthook", errors.append)
    return errors


def assert_committer_serves(service, index):
    """A fresh request on a fresh server commits: the committer is alive."""
    assert service._batcher._thread.is_alive()
    with AsyncNetServer(service) as server, ServiceClient(*server.address) as client:
        assert client.submit_wait(entry_op(index), timeout=JOIN_TIMEOUT) is not None
    assert f'i="{index}"' in service.query(DOC, timeout=JOIN_TIMEOUT)


class TestAbandonedTickets:
    def test_deadline_expiry_leaves_the_op_and_the_committer(
        self, caplog, thread_errors
    ):
        service = make_service()
        started, gate = gate_apply(service)
        server = AsyncNetServer(service).start()
        try:
            with ServiceClient(*server.address) as client:
                with pytest.raises(ServiceTimeoutError):
                    client.submit_wait(entry_op(0), timeout=0.3)
                assert started.is_set()
                gate.set()
                # A fresh request on the same connection still commits.
                assert client.submit_wait(entry_op(1), timeout=JOIN_TIMEOUT) == 2
            # The timed-out op committed all the same.
            assert 'i="0"' in service.query(DOC, timeout=JOIN_TIMEOUT)
            assert_committer_serves(service, 2)
        finally:
            gate.set()
            server.close()
            service.close()
        assert thread_errors == []
        assert not [r for r in caplog.records if r.levelno >= logging.ERROR]

    def test_connection_aborted_at_the_drain_deadline(self, caplog, thread_errors):
        service = make_service()
        started, gate = gate_apply(service)
        server = AsyncNetServer(service).start()
        client = ServiceClient(*server.address)
        outcome = {}

        def doomed():
            try:
                client.submit_wait(entry_op(0), timeout=JOIN_TIMEOUT)
            except Exception as error:
                outcome["error"] = error

        waiter = threading.Thread(target=doomed)
        waiter.start()
        try:
            assert started.wait(JOIN_TIMEOUT)
            assert server.close(timeout=0.3) == 1
        finally:
            gate.set()
            waiter.join(JOIN_TIMEOUT)
            client.close()
        try:
            assert isinstance(outcome.get("error"), ServiceConnectionError)
            service.flush(timeout=JOIN_TIMEOUT)
            assert 'i="0"' in service.query(DOC, timeout=JOIN_TIMEOUT)
            assert_committer_serves(service, 1)
        finally:
            service.close()
        assert thread_errors == []
        assert not [r for r in caplog.records if r.levelno >= logging.ERROR]

    def test_tickets_resolving_after_close_raise_and_log_nothing(
        self, caplog, thread_errors
    ):
        """A ``submit_wait`` the loop is awaiting and an async ``submit``
        the connection holds are both unresolved when ``close()`` cuts
        the connection loose and stops and closes the loop; the
        committer resolves their tickets afterwards.  (Failing before:
        the connection's task was left pending on the closed loop and
        logged "Task was destroyed but it is pending!".)"""
        caplog.set_level(logging.DEBUG)
        service = make_service()
        started, gate = gate_apply(service)
        server = AsyncNetServer(service).start()

        async def scenario():
            client = await AsyncServiceClient.connect(*server.address)
            await client.submit(entry_op(0))
            waiting = asyncio.ensure_future(
                client.submit_wait(entry_op(1), timeout=JOIN_TIMEOUT)
            )
            while not started.is_set():
                await asyncio.sleep(0.01)
            # Closed from another thread while both tickets are held; the
            # loop stops at once, with nothing left waiting on them.
            began = time.monotonic()
            await asyncio.get_running_loop().run_in_executor(
                None, server.close, 0.3
            )
            assert time.monotonic() - began < 5.0
            with pytest.raises(ServiceConnectionError):
                await waiting
            await client.close()

        try:
            asyncio.run(scenario())
            gate.set()
            service.flush(timeout=JOIN_TIMEOUT)
            gc.collect()
            text = service.query(DOC, timeout=JOIN_TIMEOUT)
            assert 'i="0"' in text and 'i="1"' in text
            assert_committer_serves(service, 2)
        finally:
            gate.set()
            service.close()
        assert thread_errors == []
        assert not [r for r in caplog.records if r.levelno >= logging.ERROR]


    def test_failed_ticket_awaited_at_release_logs_nothing(
        self, caplog, thread_errors
    ):
        """The connection's release awaits its async submits on the
        loop; one that fails must be counted, not logged as an exception
        nobody retrieved."""
        service = make_service()
        started, gate = gate_apply(service)
        server = AsyncNetServer(service, own_service=True).start()
        failed = get_registry().counter("session.close.failed")
        before = failed.value
        bad = DeltaUpdate(DOC, (DeleteNode((7,)),))  # no such child
        try:
            with ServiceClient(*server.address) as client:
                client.submit(bad)
                assert started.wait(JOIN_TIMEOUT)
            # The client is gone; its connection's release now awaits
            # the held ticket, which fails once the gate opens.
            gate.set()
            deadline = time.monotonic() + JOIN_TIMEOUT
            while failed.value == before:
                assert time.monotonic() < deadline
                time.sleep(0.01)
        finally:
            gate.set()
            server.close()
        gc.collect()
        assert failed.value == before + 1
        assert thread_errors == []
        assert not [r for r in caplog.records if r.levelno >= logging.ERROR]


class TestLoopAdmission:
    def test_full_queue_answers_busy_at_once(self):
        service = make_service(queue_limit=1, batch_size=1, coalesce_wait=0.0)
        started, gate = gate_apply(service)
        server = AsyncNetServer(service, own_service=True).start()
        try:
            with ServiceClient(*server.address) as client:
                client.submit(entry_op(0))  # the committer takes it and is held
                assert started.wait(JOIN_TIMEOUT)
                client.submit(entry_op(1))  # fills the one-slot queue
                began = time.monotonic()
                with pytest.raises(ServiceBusyError) as excinfo:
                    client.submit_wait(entry_op(2), timeout=10.0)
                assert time.monotonic() - began < 0.5
                assert excinfo.value.retryable
        finally:
            gate.set()
            server.close()

    def test_full_queue_answers_execute_busy_at_once(self):
        service = make_service(queue_limit=1, batch_size=1, coalesce_wait=0.0)
        started, gate = gate_apply(service)
        server = AsyncNetServer(service, own_service=True).start()
        try:
            with ServiceClient(*server.address) as client:
                client.submit(entry_op(0))  # the committer takes it and is held
                assert started.wait(JOIN_TIMEOUT)
                client.submit(entry_op(1))  # fills the one-slot queue
                began = time.monotonic()
                with pytest.raises(ServiceBusyError) as excinfo:
                    client.execute(DOC, insert_statement(2), timeout=10.0)
                assert time.monotonic() - began < 0.5
                assert excinfo.value.retryable
                gate.set()
                client.flush(timeout=JOIN_TIMEOUT)
                assert 'n="2"' not in client.query(DOC, timeout=JOIN_TIMEOUT)
        finally:
            gate.set()
            server.close()

    def test_statement_expiring_in_the_queue_fails_and_runs_nothing(self):
        service = make_service()
        started, gate = gate_apply(service)
        server = AsyncNetServer(service, own_service=True).start()
        try:
            with ServiceClient(*server.address) as client:
                client.submit(entry_op(0))  # the committer takes it and is held
                assert started.wait(JOIN_TIMEOUT)
                with pytest.raises(ServiceTimeoutError):
                    client.execute(DOC, insert_statement(1), timeout=0.3)
                gate.set()
                # The held op is seq 1; the expired statement logged nothing.
                assert client.submit_wait(entry_op(2), timeout=JOIN_TIMEOUT) == 2
                text = client.query(DOC, timeout=JOIN_TIMEOUT)
        finally:
            gate.set()
            server.close()
        assert 'i="0"' in text and 'i="2"' in text
        assert 'n="1"' not in text

    def test_no_thread_parks_for_a_request(self, monkeypatch):
        """Pipelined writes, reads, update and read executes, pings and
        stats: admission and statement parsing run on the loop thread,
        nothing runs on the loop's default executor, each statement runs
        on the committer and each read on a query-pool thread (two
        hand-offs per request), and no thread blocks in ``Ticket.wait``,
        ``UpdateService.query`` or ``UpdateService.execute``, or on a
        future that has not resolved."""
        service = make_service()
        batcher = service._batcher
        original_submit = batcher.submit
        threads = {"submit": set(), "execute": set(), "statement": set(), "read": set()}
        blocked, executor_calls = [], []

        def recording_submit(op, timeout=None):
            threads["submit"].add(threading.current_thread().name)
            return original_submit(op, timeout)

        def recorded(key, original):
            def wrapper(*args, **kwargs):
                threads[key].add(threading.current_thread().name)
                return original(*args, **kwargs)

            return wrapper

        def waiting(name, original):
            def wrapper(future, *args, **kwargs):
                if not future.done():
                    blocked.append(name)
                return original(future, *args, **kwargs)

            return wrapper

        def recording_run_in_executor(loop, *args):
            executor_calls.append(threading.current_thread().name)
            return original_run_in_executor(loop, *args)

        batcher.submit = recording_submit
        server = AsyncNetServer(service, own_service=True).start()
        original_run_in_executor = asyncio.BaseEventLoop.run_in_executor
        monkeypatch.setattr(Ticket, "wait", lambda *a, **k: blocked.append("wait"))
        for name in ("query", "execute"):
            monkeypatch.setattr(
                UpdateService, name, lambda *a, name=name, **k: blocked.append(name)
            )
        monkeypatch.setattr(
            UpdateService, "execute_future",
            recorded("execute", UpdateService.execute_future),
        )
        monkeypatch.setattr(
            DocumentHost, "apply", recorded("statement", DocumentHost.apply)
        )
        monkeypatch.setattr(
            server_module, "run_statement_query",
            recorded("read", server_module.run_statement_query),
        )
        for name in ("result", "exception"):
            monkeypatch.setattr(
                concurrent.futures.Future, name,
                waiting(name, getattr(concurrent.futures.Future, name)),
            )
        monkeypatch.setattr(
            asyncio.BaseEventLoop, "run_in_executor", recording_run_in_executor
        )

        async def scenario():
            async with await AsyncServiceClient.connect(*server.address) as client:
                return await asyncio.gather(
                    *(client.submit_wait(entry_op(i)) for i in range(8)),
                    *(client.query(DOC) for _ in range(4)),
                    *(client.execute(DOC, insert_statement(i)) for i in range(4)),
                    *(client.execute(DOC, READ_STATEMENT) for _ in range(4)),
                    client.ping(),
                    client.stats(),
                )

        try:
            results = asyncio.run(scenario())
            names = [thread.name for thread in threading.enumerate()]
            blocked_in_scenario = list(blocked)
        finally:
            monkeypatch.undo()
            server.close()
        assert sorted(results[:8] + [r["seq"] for r in results[12:16]]) == list(
            range(1, 13)
        )
        assert all(text.startswith("<log") for text in results[8:12])
        assert all(len(r["results"]) == 1 for r in results[16:20])
        assert not [name for name in names if name.startswith("net-aio-exec")]
        assert "net-aio" not in executor_calls
        assert threads["submit"] == {"net-aio"}
        assert threads["execute"] == {"net-aio"}
        assert threads["statement"] == {"group-commit"}
        assert threads["read"] and all(
            name.startswith("service-query") for name in threads["read"]
        )
        assert blocked_in_scenario == []


class TestNoTaskPerRequest:
    KINDS = {
        "ping": lambda client, i: client.ping(),
        "submit": lambda client, i: client.submit(entry_op(i)),
        "submit_wait": lambda client, i: client.submit_wait(entry_op(i)),
        "query": lambda client, i: client.query(DOC),
        "execute_read": lambda client, i: client.execute(DOC, READ_STATEMENT),
        "execute_update": lambda client, i: client.execute(DOC, insert_statement(i)),
    }

    def test_steady_state_requests_create_no_task(self):
        """A counting task factory on the server's loop, installed once
        the connection is open: 20 lockstep requests of each kind create
        no task there."""
        service = make_service()
        server = AsyncNetServer(service, own_service=True).start()
        loop = server._loop_thread._loop
        created = collections.Counter()
        installed = threading.Event()

        def counting_factory(loop, coro, **kwargs):
            created[coro.__qualname__] += 1
            return asyncio.Task(coro, loop=loop, **kwargs)

        def install():
            loop.set_task_factory(counting_factory)
            installed.set()

        async def scenario():
            per_kind = {}
            async with await AsyncServiceClient.connect(*server.address) as client:
                for kind, request in self.KINDS.items():
                    for index in range(3):  # warm: first-use paths
                        await request(client, index)
                    await client.flush()  # runs on the default executor
                    loop.call_soon_threadsafe(install)
                    assert installed.wait(JOIN_TIMEOUT)
                    before = sum(created.values())
                    for index in range(20):
                        await request(client, index)
                    per_kind[kind] = sum(created.values()) - before
            return per_kind

        try:
            per_kind = asyncio.run(scenario())
        finally:
            server.close()
        assert per_kind == dict.fromkeys(self.KINDS, 0), dict(created)


class TestNestedPools:
    def test_more_executes_than_query_workers_complete_beside_queries(self):
        """Executes hold no pool thread of their own: an update waits on
        the committer and a read runs once on the query pool, so more
        concurrent executes than query workers, beside plain queries,
        all complete."""
        workers = 2
        service = make_service(query_workers=workers)
        server = AsyncNetServer(service, own_service=True).start()
        concurrent = workers + 1

        async def scenario():
            async with await AsyncServiceClient.connect(*server.address) as client:
                updates = [
                    client.execute(
                        DOC,
                        f'FOR $d IN document("{DOC}")/log UPDATE $d '
                        f'{{ INSERT <x n="{i}"/> }}',
                        timeout=JOIN_TIMEOUT,
                    )
                    for i in range(concurrent)
                ]
                reads = [
                    client.execute(
                        DOC,
                        f'FOR $d IN document("{DOC}")/log RETURN $d',
                        timeout=JOIN_TIMEOUT,
                    )
                    for _ in range(concurrent)
                ]
                queries = [client.query(DOC, timeout=JOIN_TIMEOUT) for _ in range(4)]
                return await asyncio.wait_for(
                    asyncio.gather(*updates, *reads, *queries), JOIN_TIMEOUT
                )

        try:
            results = asyncio.run(scenario())
            text = service.query(DOC, timeout=JOIN_TIMEOUT)
        finally:
            server.close()
        assert sorted(r["seq"] for r in results[:concurrent]) == [1, 2, 3]
        assert all(len(r["results"]) == 1 for r in results[concurrent : 2 * concurrent])
        assert all(isinstance(r, str) for r in results[2 * concurrent :])
        for index in range(concurrent):
            assert f'n="{index}"' in text
