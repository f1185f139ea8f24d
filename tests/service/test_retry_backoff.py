"""``retries_busy`` backoff: jittered, exponential, and capped by the
request deadline.

Regression target: the old loop slept ``backoff * 2**retry`` with no
jitter and no cap, so a client asked to retry a saturated shard could
sleep for minutes past its own request deadline (retry 12 at the
default 10ms backoff is already a 41s nap), and N clients retried in
lockstep."""

import asyncio
import socket
import threading
import time

import pytest

from repro.errors import ServiceBusyError
from repro.service import AsyncServiceClient, ServiceClient
from repro.service.net.core import busy_retry_delay, error_frame
from repro.service.ops import DeltaUpdate
from repro.updates.delta import InsertNode
from tests.service.wire import FrameSocket

JOIN_TIMEOUT = 30


def entry_op():
    return DeltaUpdate("doc.xml", (InsertNode((), 1 << 30, xml="<e/>"),))


# ----------------------------------------------------------------------
# A server whose only answer is BUSY
# ----------------------------------------------------------------------
@pytest.fixture()
def busy_server():
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(0.2)
    stop = threading.Event()
    workers = []

    def serve_one(conn):
        with conn:
            probe = FrameSocket(conn)
            while not stop.is_set():
                try:
                    request = probe.recv()
                except Exception:
                    return
                if request is None:
                    return
                probe.send(
                    error_frame(request.get("id", 0), ServiceBusyError("saturated"))
                )

    def accept_loop():
        while not stop.is_set():
            try:
                conn, _ = listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            worker = threading.Thread(target=serve_one, args=(conn,), daemon=True)
            worker.start()
            workers.append(worker)

    acceptor = threading.Thread(target=accept_loop, daemon=True)
    acceptor.start()
    try:
        yield listener.getsockname()
    finally:
        stop.set()
        listener.close()
        acceptor.join(JOIN_TIMEOUT)


def test_facade_retries_never_outlive_the_deadline(busy_server):
    host, port = busy_server
    with ServiceClient(host, port) as client:
        start = time.monotonic()
        with pytest.raises(ServiceBusyError):
            # Enough retries that the uncapped exponential schedule
            # would sleep for hours; the deadline must cut it off.
            client.submit_wait(entry_op(), timeout=0.6, retries_busy=1000, backoff=0.05)
        elapsed = time.monotonic() - start
    assert elapsed < 3.0, f"retry loop outlived its 0.6s deadline: {elapsed:.1f}s"


def test_async_retries_never_outlive_the_deadline(busy_server):
    host, port = busy_server

    async def drive():
        client = await AsyncServiceClient.connect(host, port)
        try:
            start = time.monotonic()
            with pytest.raises(ServiceBusyError):
                await client.submit_wait(
                    entry_op(), timeout=0.6, retries_busy=1000, backoff=0.05
                )
            return time.monotonic() - start
        finally:
            await client.close()

    elapsed = asyncio.run(drive())
    assert elapsed < 3.0, f"retry loop outlived its 0.6s deadline: {elapsed:.1f}s"


def test_zero_retries_surfaces_busy_immediately(busy_server):
    host, port = busy_server
    with ServiceClient(host, port) as client:
        start = time.monotonic()
        with pytest.raises(ServiceBusyError):
            client.submit_wait(entry_op())
        assert time.monotonic() - start < 2.0


# ----------------------------------------------------------------------
# The backoff schedule itself: one pure function, no sockets, no clock
# ----------------------------------------------------------------------
def test_delay_is_exponential_jittered_and_deadline_capped():
    # delay = backoff * 2**retry * (0.5 + jitter/2): the jitter factor
    # spans [0.5x, 1x] of the deterministic schedule.
    assert busy_retry_delay(0, 3, 0.1, 60.0, 0.0) == pytest.approx(0.1 * 1 * 0.5)
    assert busy_retry_delay(1, 3, 0.1, 60.0, 1.0) == pytest.approx(0.1 * 2 * 1.0)
    assert busy_retry_delay(2, 3, 0.1, 60.0, 0.5) == pytest.approx(0.1 * 4 * 0.75)
    # The retry budget is spent: 4 attempts, no sleep after the last.
    assert busy_retry_delay(3, 3, 0.1, 60.0, 1.0) is None
    # backoff=10 wants a 10s first nap; only 0.25s remain.
    assert busy_retry_delay(0, 50, 10.0, 0.25, 1.0) == pytest.approx(0.25)
    # Past the deadline the loop re-raises instead of burning the
    # remaining retry budget.
    assert busy_retry_delay(0, 50, 0.1, 0.0, 1.0) is None
    assert busy_retry_delay(0, 50, 0.1, -1.0, 1.0) is None
    # Retry 12 at the default backoff used to be a 41s nap.
    assert busy_retry_delay(12, 1000, 0.01, 0.6, 1.0) == pytest.approx(0.6)


def test_client_sleeps_the_schedule_and_stops_at_the_budget(monkeypatch):
    sleeps = []
    attempts = []

    async def fake_sleep(delay):
        sleeps.append(delay)

    monkeypatch.setattr("repro.service.net.aio.asyncio.sleep", fake_sleep)
    monkeypatch.setattr("repro.service.net.aio.random.random", lambda: 1.0)

    async def attempt():
        attempts.append(1)
        raise ServiceBusyError("saturated")

    async def drive(retries, deadline):
        with pytest.raises(ServiceBusyError):
            await AsyncServiceClient._retry_busy(None, attempt, retries, 0.1, deadline)

    asyncio.run(drive(3, time.monotonic() + 60.0))
    assert len(attempts) == 4
    assert sleeps == pytest.approx([0.1, 0.2, 0.4])
    # Already past the deadline: one try, then straight out.
    del attempts[:], sleeps[:]
    asyncio.run(drive(50, time.monotonic() - 1.0))
    assert len(attempts) == 1 and sleeps == []
