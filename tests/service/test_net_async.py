"""The asyncio front end: pipelined frames, streamed (chunked)
responses, connection-scale admission, and drain durability.

Acceptance scenarios from the PR issue:

* pipelined out-of-order completion — a slow ``query`` is overtaken by
  a fast ``submit_wait`` issued later on the *same* connection;
* chunked-response reassembly, including a connection dropped
  mid-stream (both between chunk frames and mid-frame);
* the blocking ``ServiceClient`` facade sees the same streamed
  responses;
* admission control carries over: connection-limit and per-connection
  in-flight ``BUSY`` shedding;
* drain durability: every acked async submit survives restart +
  recovery.
"""

import asyncio
import threading
import time

import pytest

from repro.errors import (
    ProtocolError,
    ServiceBusyError,
    ServiceConnectionError,
    ServiceError,
)
from repro.obs import get_registry
from repro.service import (
    AsyncNetServer,
    AsyncServiceClient,
    DeltaUpdate,
    ServiceClient,
    ServiceConfig,
    UpdateService,
)
from repro.service.net import (
    encode_frame,
    read_frame_async,
    split_response,
)
from repro.updates.delta import InsertNode
from repro.xmlmodel.parser import XmlParser

DOC = "doc.xml"
JOIN_TIMEOUT = 30


def fresh_doc():
    return XmlParser("<log></log>").parse()


def entry_op(index, payload=""):
    return DeltaUpdate(
        DOC, (InsertNode((), 1 << 30, xml=f'<e i="{index}"{payload}/>'),)
    )


def big_op(index, size=4096):
    return entry_op(index, payload=f' t="{"x" * size}"')


def make_service(**overrides):
    config = dict(batch_size=8, coalesce_wait=0.002)
    config.update(overrides)
    service = UpdateService(ServiceConfig(**config))
    service.host_document(DOC, fresh_doc())
    return service.start()


async def wait_event(event, timeout=JOIN_TIMEOUT):
    """Await a *threading* Event from a coroutine (the gated work runs
    on a service thread)."""
    deadline = time.monotonic() + timeout
    while not event.is_set():
        assert time.monotonic() < deadline, "event never fired"
        await asyncio.sleep(0.01)


@pytest.fixture
def aserved():
    service = make_service()
    server = AsyncNetServer(service, own_service=True).start()
    yield service, server
    server.close()


class TestAsyncRoundTrip:
    def test_ping_submit_wait_query_flush_stats(self, aserved):
        _service, server = aserved

        async def scenario():
            client = await AsyncServiceClient.connect(*server.address)
            try:
                assert await client.ping() == [DOC]
                assert await client.submit_wait(entry_op(0)) == 1
                assert '<e i="0"/>' in await client.query(DOC)
                await client.flush()
                stats = await client.stats()
                assert stats["service"]["documents"] == [DOC]
                assert stats["net"]["transport"] == "asyncio"
                assert stats["net"]["connections"] == 1
            finally:
                await client.close()

        asyncio.run(scenario())

    def test_query_statement_renders_results(self, aserved):
        _service, server = aserved

        async def scenario():
            async with await AsyncServiceClient.connect(
                *server.address
            ) as client:
                await client.submit_wait(entry_op(7))
                results = await client.query(
                    DOC, f'FOR $e IN document("{DOC}")/log/e RETURN $e'
                )
                assert results == ['<e i="7"/>']

        asyncio.run(scenario())

    def test_execute_and_checkpoint_over_the_wire(self, tmp_path):
        service = make_service(wal_path=str(tmp_path / "doc.wal"))
        server = AsyncNetServer(service, own_service=True).start()

        async def scenario():
            async with await AsyncServiceClient.connect(
                *server.address
            ) as client:
                outcome = await client.execute(
                    DOC,
                    f'FOR $d IN document("{DOC}")/log UPDATE $d '
                    "{ INSERT <x/> }",
                )
                assert outcome["seq"] is not None
                report = await client.checkpoint()
                assert report["wal_seq"] >= 1
                assert report["documents"] == 1

        try:
            asyncio.run(scenario())
        finally:
            server.close()


class TestPipelining:
    def test_slow_query_overtaken_by_fast_submit_wait(self):
        """Out-of-order completion on ONE connection: a gated query is
        dispatched first, a submit_wait issued afterwards completes
        while the query is still executing."""
        service = make_service()
        query_started = threading.Event()
        gate = threading.Event()
        pool = service._pool
        original_submit = pool.submit

        def gated_submit(fn, *args, **kwargs):
            # Gate the work the query pool runs, before its read lock:
            # the server awaits the pool's future on its event loop.
            def gated():
                query_started.set()
                assert gate.wait(JOIN_TIMEOUT)
                return fn(*args, **kwargs)

            return original_submit(gated)

        pool.submit = gated_submit
        server = AsyncNetServer(service, own_service=True).start()

        async def scenario():
            client = await AsyncServiceClient.connect(*server.address)
            try:
                slow = asyncio.ensure_future(
                    client.query(DOC, timeout=JOIN_TIMEOUT)
                )
                await wait_event(query_started)
                # Issued second, completes first: the connection is not
                # serialised behind the executing query.
                seq = await client.submit_wait(entry_op(1))
                assert seq == 1
                assert not slow.done()
                gate.set()
                text = await asyncio.wait_for(slow, JOIN_TIMEOUT)
                assert '<e i="1"/>' in text
            finally:
                await client.close()

        try:
            asyncio.run(scenario())
        finally:
            server.close()

    def test_sixteen_requests_in_flight_on_one_connection(self, aserved):
        _service, server = aserved

        async def scenario():
            async with await AsyncServiceClient.connect(
                *server.address
            ) as client:
                seqs = await asyncio.gather(
                    *(client.submit_wait(entry_op(i)) for i in range(16))
                )
                assert sorted(seqs) == list(range(1, 17))

        asyncio.run(scenario())

    def test_inflight_bound_sheds_busy(self):
        """The per-connection pipeline bound: requests beyond
        ``max_inflight`` concurrently executing dispatches come back as
        retryable BUSY frames instead of queueing."""
        service = make_service(queue_limit=64, batch_size=1)
        host = service.host(DOC)
        gate = threading.Event()
        original_apply = host.apply
        host.apply = lambda op: (gate.wait(JOIN_TIMEOUT), original_apply(op))
        server = AsyncNetServer(
            service, max_inflight=2, own_service=True
        ).start()

        async def scenario():
            client = await AsyncServiceClient.connect(*server.address)
            try:
                tasks = [
                    asyncio.ensure_future(
                        client.submit_wait(entry_op(i), timeout=JOIN_TIMEOUT)
                    )
                    for i in range(6)
                ]
                # Let the read loop shed the excess before unblocking.
                deadline = time.monotonic() + JOIN_TIMEOUT
                while sum(task.done() for task in tasks) < 4:
                    assert time.monotonic() < deadline
                    await asyncio.sleep(0.01)
                gate.set()
                results = await asyncio.gather(
                    *tasks, return_exceptions=True
                )
                busy = [
                    r for r in results if isinstance(r, ServiceBusyError)
                ]
                done = [r for r in results if isinstance(r, int)]
                assert len(busy) == 4 and all(b.retryable for b in busy)
                assert len(done) == 2
            finally:
                await client.close()

        try:
            asyncio.run(scenario())
        finally:
            server.close()

    def test_connection_limit_answers_busy(self):
        service = make_service()
        server = AsyncNetServer(
            service, max_connections=1, own_service=True
        ).start()

        async def scenario():
            first = await AsyncServiceClient.connect(*server.address)
            try:
                assert await first.ping() == [DOC]
                extra = await AsyncServiceClient.connect(*server.address)
                try:
                    # The BUSY frame may kill the connection before or
                    # after the ping is registered; either way the
                    # caller sees the server's retryable rejection.
                    with pytest.raises(ServiceBusyError):
                        for _ in range(100):
                            await extra.ping()
                finally:
                    await extra.close()
                # Failing before: once the BUSY frame had landed and
                # been stored as the connection's cause of death, every
                # request raised the non-retryable ServiceClosedError.
                late = await AsyncServiceClient.connect(*server.address)
                try:
                    deadline = time.monotonic() + JOIN_TIMEOUT
                    while late._dead is None:
                        assert time.monotonic() < deadline
                        await asyncio.sleep(0.01)
                    for _ in range(2):
                        with pytest.raises(ServiceBusyError) as excinfo:
                            await late.ping()
                        assert excinfo.value.retryable
                        assert "connection limit" in str(excinfo.value)
                finally:
                    await late.close()
            finally:
                await first.close()

        try:
            asyncio.run(scenario())
        finally:
            server.close()


class TestChunkedResponses:
    @pytest.fixture
    def chunky(self):
        """A server whose chunk threshold is far below the test doc."""
        service = make_service()
        server = AsyncNetServer(
            service, own_service=True, chunk_bytes=512
        ).start()
        yield service, server
        server.close()

    def test_large_document_streams_and_reassembles(self, chunky):
        service, server = chunky
        chunks_before = get_registry().counter("net.chunks").value

        async def scenario():
            async with await AsyncServiceClient.connect(
                *server.address
            ) as client:
                await client.submit_wait(big_op(0))
                return await client.query(DOC)

        text = asyncio.run(scenario())
        assert text == service.query(DOC)
        assert "x" * 4096 in text
        # The response really went out as a bounded chunk sequence.
        assert get_registry().counter("net.chunks").value >= chunks_before + 2

    def test_statement_results_stream_and_reassemble(self, chunky):
        _service, server = chunky

        async def scenario():
            async with await AsyncServiceClient.connect(
                *server.address
            ) as client:
                for index in range(40):
                    await client.submit_wait(entry_op(index, ' p="yyyy"'))
                return await client.query(
                    DOC, f'FOR $e IN document("{DOC}")/log/e RETURN $e'
                )

        results = asyncio.run(scenario())
        assert len(results) == 40
        assert results[0] == '<e i="0" p="yyyy"/>'
        assert results[-1] == '<e i="39" p="yyyy"/>'

    def test_blocking_client_reassembles(self, chunky):
        service, server = chunky

        async def seed():
            async with await AsyncServiceClient.connect(
                *server.address
            ) as client:
                await client.submit_wait(big_op(0))

        asyncio.run(seed())
        with ServiceClient(*server.address) as client:
            assert client.query(DOC) == service.query(DOC)

    def test_drop_between_chunk_frames_is_typed(self):
        """A server dying between chunk frames surfaces as the typed
        connection error, not a hang or a bare socket error."""

        async def half_stream(reader, writer):
            request = await read_frame_async(reader)
            response = {
                "v": 2,
                "id": request["id"],
                "ok": True,
                "text": "y" * 4096,
            }
            frames = split_response(response, 512)
            assert len(frames) > 2
            for frame in frames[:2]:
                writer.write(encode_frame(frame))
            await writer.drain()
            writer.close()

        async def scenario():
            server = await asyncio.start_server(half_stream, "127.0.0.1", 0)
            host, port = server.sockets[0].getsockname()[:2]
            client = await AsyncServiceClient.connect(host, port)
            try:
                with pytest.raises(ServiceConnectionError):
                    await client.query(DOC, timeout=JOIN_TIMEOUT)
            finally:
                await client.close()
                server.close()
                await server.wait_closed()

        asyncio.run(scenario())

    def test_drop_inside_a_chunk_frame_is_typed(self):
        """EOF halfway through a chunk frame's bytes is a protocol
        error — the stream is unrecoverable and says so."""

        async def torn_stream(reader, writer):
            request = await read_frame_async(reader)
            response = {
                "v": 2,
                "id": request["id"],
                "ok": True,
                "text": "y" * 4096,
            }
            first, second = split_response(response, 512)[:2]
            writer.write(encode_frame(first))
            writer.write(encode_frame(second)[:10])  # torn mid-frame
            await writer.drain()
            writer.close()

        async def scenario():
            server = await asyncio.start_server(torn_stream, "127.0.0.1", 0)
            host, port = server.sockets[0].getsockname()[:2]
            client = await AsyncServiceClient.connect(host, port)
            try:
                with pytest.raises((ProtocolError, ServiceError)) as excinfo:
                    await client.query(DOC, timeout=JOIN_TIMEOUT)
                assert "mid-frame" in str(excinfo.value)
            finally:
                await client.close()
                server.close()
                await server.wait_closed()

        asyncio.run(scenario())


class TestConnectionScale:
    def test_hundreds_of_idle_connections_hold_no_task(self, aserved):
        """An idle connection is protocol callbacks, not a task or a
        thread: a fleet far past any thread-per-connection budget stays
        connected and the server still serves."""
        _service, server = aserved
        fleet_size = 300

        async def scenario():
            fleet = []
            bound = asyncio.Semaphore(64)

            async def open_one():
                async with bound:
                    return await asyncio.open_connection(*server.address)

            fleet = await asyncio.gather(
                *(open_one() for _ in range(fleet_size))
            )
            try:
                async with await AsyncServiceClient.connect(
                    *server.address
                ) as client:
                    deadline = time.monotonic() + JOIN_TIMEOUT
                    while True:
                        stats = await client.stats()
                        if stats["net"]["connections"] >= fleet_size + 1:
                            break
                        assert time.monotonic() < deadline
                        await asyncio.sleep(0.05)
                    assert await client.ping() == [DOC]
            finally:
                for _reader, writer in fleet:
                    writer.close()

        asyncio.run(scenario())


class TestAsyncDrain:
    def test_drain_makes_acked_async_submits_durable(self, tmp_path):
        wal_path = str(tmp_path / "doc.wal")
        service = make_service(wal_path=wal_path)
        server = AsyncNetServer(service, own_service=True).start()
        acked = 20

        async def scenario():
            async with await AsyncServiceClient.connect(
                *server.address
            ) as client:
                for index in range(acked):
                    await client.submit(entry_op(index))

        asyncio.run(scenario())
        # No flush: drain must finish the in-flight ops before close.
        assert server.close() == 0

        restarted = UpdateService(ServiceConfig(wal_path=wal_path))
        restarted.host_document(DOC, fresh_doc())
        report = restarted.recover()
        restarted.start()
        text = restarted.query(DOC)
        restarted.close()
        assert report.applied + report.covered >= acked
        for index in range(acked):
            assert f'i="{index}"' in text

    def test_drained_server_refuses_new_connections(self, aserved):
        _service, server = aserved

        async def before():
            async with await AsyncServiceClient.connect(
                *server.address
            ) as client:
                await client.ping()

        asyncio.run(before())
        assert server.close() == 0

        async def after():
            host, port = server.address
            with pytest.raises(ServiceError):
                client = await AsyncServiceClient.connect(
                    host, port, connect_timeout=0.5, request_timeout=0.5
                )
                try:
                    await client.ping()
                finally:
                    await client.close()

        asyncio.run(after())


class TestAsyncMetrics:
    def test_request_counters_and_gauge_move(self):
        registry = get_registry()
        service = make_service()
        server = AsyncNetServer(service, own_service=True).start()
        requests_before = registry.counter("net.requests").value

        async def scenario():
            async with await AsyncServiceClient.connect(
                *server.address
            ) as client:
                await client.ping()
                assert registry.gauge("net.connections").value >= 1

        try:
            asyncio.run(scenario())
            assert registry.counter("net.requests").value > requests_before
            assert registry.histogram("net.request_ms").count > 0
        finally:
            server.close()
