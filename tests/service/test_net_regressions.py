"""Regression tests for the framing/client bug sweep.

Each class pins one bug that failed before its fix (found on the
since-deleted threaded server and elected-receiver client; the
scenarios now run against ``AsyncNetServer`` and the ``ServiceClient``
facade, which must keep the same guarantees):

* **Slow readers lost large responses mid-frame.**  A multi-megabyte
  response to a reader with a full receive window must not be cut off
  by any short idle timeout: the write gets the time the peer needs
  (the client used to see ``ProtocolError: connection closed
  mid-frame``).
* **A peer stalled mid-frame desynchronised the stream.**  A request
  frame that starts arriving and then stalls must be dropped as a
  protocol error (the connection closed), never retried as if the
  socket were idle — and the stall must not take the server down for
  other connections.
* **A shared client serialised the whole round trip under one lock.**
  A slow ``query`` on one thread must not block a concurrent
  ``submit_wait`` on another: sends are serialised alone; response
  waits are id-matched and concurrent.
* **``close()`` reported nothing about connections it gave up on.**
  Drain waits for every connection against the deadline and reports
  the stragglers — return value and
  ``net.close.undrained_connections`` counter — mirroring
  ``batcher.close.undrained``.
* **Closing a client stranded its in-flight requests.**  ``close()``
  cancelled the receiver but never failed the pending futures, so a
  caller blocked in ``query(timeout=3)`` hung 5 s and got a misleading
  timeout.  Every pending request now fails at once with
  ``ServiceClosedError``.
"""

import asyncio
import socket
import threading
import time

import pytest

from repro.errors import ServiceClosedError, ServiceTimeoutError
from repro.obs import get_registry
from repro.service import (
    AsyncNetServer,
    AsyncServiceClient,
    DeltaUpdate,
    ServiceClient,
    ServiceConfig,
    UpdateService,
)
from repro.service.net import PROTOCOL_VERSION, ChunkAssembler
from repro.updates.delta import InsertNode
from repro.xmlmodel.parser import XmlParser
from tests.service.wire import FrameSocket

DOC = "doc.xml"
JOIN_TIMEOUT = 30


def fresh_doc():
    return XmlParser("<log></log>").parse()


def entry_op(index, payload=""):
    return DeltaUpdate(
        DOC, (InsertNode((), 1 << 30, xml=f'<e i="{index}"{payload}/>'),)
    )


def make_service(**overrides):
    config = dict(batch_size=8, coalesce_wait=0.002)
    config.update(overrides)
    service = UpdateService(ServiceConfig(**config))
    service.host_document(DOC, fresh_doc())
    return service.start()


def gate_queries(service):
    """Make every query the service's pool runs block (before its read
    lock) until the returned gate opens; the first returned event fires
    once a query is blocked.  The server awaits the pool's future on
    its event loop, so the gate holds a pool thread, never the loop."""
    started, gate = threading.Event(), threading.Event()
    pool = service._pool
    original_submit = pool.submit

    def gated_submit(fn, *args, **kwargs):
        def gated():
            started.set()
            gate.wait(JOIN_TIMEOUT)
            return fn(*args, **kwargs)

        return original_submit(gated)

    pool.submit = gated_submit
    return started, gate


class TestSlowReaderSurvivesLargeResponse:
    def test_large_response_to_sleeping_reader_arrives_intact(self):
        """A ~4 MiB response to a client with a tiny receive buffer that
        does not read for a couple of seconds arrives whole.  The probe
        speaks raw frames, so the response comes back as the chunk
        sequence any large result is streamed as."""
        service = make_service()
        server = AsyncNetServer(service, own_service=True).start()
        try:
            with ServiceClient(*server.address, request_timeout=60.0) as seed:
                seed.submit_wait(
                    entry_op(0, payload=f' t="{"x" * (4 * 1024 * 1024)}"'),
                    timeout=60.0,
                )
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            # Shrink the receive window so the server's send genuinely
            # blocks while we sleep (must be set before connect).
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 32768)
            sock.connect(server.address)
            sock.settimeout(JOIN_TIMEOUT)
            try:
                probe = FrameSocket(sock)
                probe.send(
                    {
                        "v": PROTOCOL_VERSION,
                        "id": 1,
                        "op": "query",
                        "doc": DOC,
                        "timeout": JOIN_TIMEOUT,
                    }
                )
                # Sleep so the server's write genuinely blocks on the
                # full receive window before anything is read.
                time.sleep(2.0)
                assembler = ChunkAssembler()
                response = None
                while response is None:
                    response = assembler.feed(probe.recv())
            finally:
                sock.close()
            assert response["ok"] is True
            assert "x" * (4 * 1024 * 1024) in response["text"]
        finally:
            server.close()


class TestMidFrameStall:
    @staticmethod
    def _stall_and_probe(address):
        """Send a torn frame, stall past the request timeout, and
        return what the server did with the connection."""
        wedged = socket.create_connection(address, timeout=JOIN_TIMEOUT)
        try:
            wedged.sendall(b"\x00\x00")  # half a length prefix, then silence
            # The server must declare the peer wedged and close — not
            # spin retrying the partial read as if the socket were idle.
            return wedged.recv(1)
        finally:
            wedged.close()

    def test_server_drops_stalled_peer_and_keeps_serving(self):
        service = make_service()
        server = AsyncNetServer(
            service, own_service=True, max_request_timeout=0.5
        ).start()
        try:
            assert self._stall_and_probe(server.address) == b""
            with ServiceClient(*server.address) as healthy:
                assert healthy.ping() == [DOC]
        finally:
            server.close()


class TestSharedClientConcurrency:
    def test_slow_query_does_not_block_concurrent_submit(self):
        """With one lock around the whole round trip, the submit below
        could not even *send* until the gated query's full round trip
        finished, so it timed out.  (The server pipelines requests on
        one connection, so the only serialisation left would be the
        client's own.)"""
        service = make_service()
        query_started, gate = gate_queries(service)
        server = AsyncNetServer(service, own_service=True).start()
        client = ServiceClient(*server.address)
        outcome = {}

        def slow_query():
            try:
                outcome["text"] = client.query(DOC, timeout=JOIN_TIMEOUT)
            except Exception as error:  # pragma: no cover - fail below
                outcome["error"] = error

        slow = threading.Thread(target=slow_query)
        slow.start()
        try:
            assert query_started.wait(JOIN_TIMEOUT)
            # The same shared client, a different thread: must complete
            # while the query is still gated server-side.
            started = time.monotonic()
            seq = client.submit_wait(entry_op(1), timeout=JOIN_TIMEOUT)
            elapsed = time.monotonic() - started
            assert seq == 1
            assert not gate.is_set()
            assert elapsed < JOIN_TIMEOUT / 2
        finally:
            gate.set()
            slow.join(JOIN_TIMEOUT)
            client.close()
            server.close()
        assert "error" not in outcome
        assert '<e i="1"/>' in outcome["text"]

    def test_timed_out_request_abandons_only_itself(self):
        """A deadline miss on one request must not poison the shared
        connection: the late response is discarded by id and the next
        request succeeds."""
        service = make_service()
        query_started, gate = gate_queries(service)
        server = AsyncNetServer(service, own_service=True).start()
        client = ServiceClient(*server.address)
        try:
            with pytest.raises(ServiceTimeoutError):
                client.query(DOC, timeout=0.2)
            gate.set()
            # The connection survived; the stale response routes to the
            # abandoned id and is dropped, not mis-delivered.
            assert client.ping() == [DOC]
        finally:
            gate.set()
            client.close()
            server.close()


class TestCloseReportsUndrained:
    def test_wedged_connection_is_counted_and_returned(self):
        """A handler wedged in dispatch must not make ``close()`` hang
        or lie: the drain deadline passes, the straggler is cut loose,
        counted, and returned."""
        service = make_service()
        query_started, gate = gate_queries(service)
        # own_service=False: the gated handler still holds a query-pool
        # thread, and service.close() would block on it until the gate
        # opens — the service is closed manually below.
        server = AsyncNetServer(service, own_service=False).start()
        client = ServiceClient(*server.address)
        counter = get_registry().counter("net.close.undrained_connections")
        before = counter.value

        def doomed_query():
            with pytest.raises(Exception):
                client.query(DOC, timeout=JOIN_TIMEOUT)

        doomed = threading.Thread(target=doomed_query)
        doomed.start()
        try:
            assert query_started.wait(JOIN_TIMEOUT)
            started = time.monotonic()
            undrained = server.close(timeout=0.5)
            assert undrained == 1
            assert counter.value == before + 1
            assert time.monotonic() - started < JOIN_TIMEOUT / 2
        finally:
            gate.set()
            doomed.join(JOIN_TIMEOUT)
            client.close()
            service.close()
        assert not doomed.is_alive()

    def test_clean_close_reports_zero(self):
        service = make_service()
        server = AsyncNetServer(service, own_service=True).start()
        with ServiceClient(*server.address) as client:
            client.ping()
        assert server.close() == 0


class TestCloseWakesInFlightRequests:
    """Failing before: ``AsyncServiceClient.close()`` left pending
    futures unresolved, so a request in flight when another task (or,
    through the facade, another thread) closed the client waited out
    ``timeout + 2`` seconds and raised ``ServiceTimeoutError``."""

    REQUEST_TIMEOUT = 3.0

    @pytest.fixture
    def gated(self):
        service = make_service()
        query_started, gate = gate_queries(service)
        server = AsyncNetServer(service, own_service=True).start()
        try:
            yield server, query_started
        finally:
            gate.set()
            server.close()

    def test_async_client_close_fails_pending_at_once(self, gated):
        server, query_started = gated

        async def scenario():
            client = await AsyncServiceClient.connect(*server.address)
            blocked = asyncio.ensure_future(
                client.query(DOC, timeout=self.REQUEST_TIMEOUT)
            )
            while not query_started.is_set():
                await asyncio.sleep(0.01)
            started = time.monotonic()
            await client.close()
            with pytest.raises(ServiceClosedError):
                await blocked
            return time.monotonic() - started

        assert asyncio.run(scenario()) < self.REQUEST_TIMEOUT / 2

    def test_facade_close_wakes_a_blocked_thread(self, gated):
        server, query_started = gated
        client = ServiceClient(*server.address)
        outcome = {}

        def blocked_query():
            try:
                client.query(DOC, timeout=self.REQUEST_TIMEOUT)
            except Exception as error:
                outcome["error"] = error
            outcome["at"] = time.monotonic()

        blocked = threading.Thread(target=blocked_query)
        blocked.start()
        assert query_started.wait(JOIN_TIMEOUT)
        started = time.monotonic()
        client.close()
        blocked.join(JOIN_TIMEOUT)
        assert not blocked.is_alive()
        assert isinstance(outcome["error"], ServiceClosedError)
        assert outcome["at"] - started < self.REQUEST_TIMEOUT / 2
        with pytest.raises(ServiceClosedError):
            client.ping()
