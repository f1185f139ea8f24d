"""The one transport: an asyncio frame server and an async client.

**Shared machinery.**  :class:`LoopThread` hosts an event loop on a
background thread; :class:`FrameServer` (listener lifecycle, connection
admission, graceful drain) and :class:`FrameConnection` (one connection
as :class:`asyncio.Protocol` callbacks over a
:class:`~repro.service.net.core.FrameDecoder`) are the bases that both
:class:`AsyncNetServer` here and the shard router
(:mod:`repro.service.router`) extend — the two differ only in what
handles one decoded request and what a connection waits for before it
is settled.  Because the loop lives on its own thread, a server's
lifecycle API (``start`` / ``address`` / ``close``) is synchronous: the
CLI, tests and benches drive it from plain threads.

**Server shape.**  ``data_received`` decodes each complete frame and
hands it to :meth:`Dispatcher.dispatch
<repro.service.net.handlers.Dispatcher.dispatch>` in the same callback.
A response at hand is written there and then.  A request another thread
answers comes back as a :class:`~repro.service.net.handlers.Pending`
record: the connection adds one done-callback to its future (a thread's
future reaches the loop through one ``call_soon_threadsafe``) and arms
one timer at its deadline, and whichever fires first writes the answer.
Nothing on the loop blocks, and no request creates a task.  Counted per
request on the server loop, with one lockstep client: ``ping`` and
``submit`` take 3 tasks and ~8.7 loop iterations when each connection
was a coroutine, and 0 tasks and 1 iteration now; ``submit_wait``,
``query`` and ``execute`` take 3 tasks and ~12 iterations then, 0 and 2
now.  Counted as thread hand-offs: ``ping``, ``stats`` and ``submit``
are answered on the loop (0); ``submit_wait`` is admitted on the loop
and answered when the group-commit thread resolves its ticket, ``query``
when the service's query pool resolves its future, and ``execute`` does
one or the other after parsing its statement on the loop (2 each: loop →
that thread → loop); ``flush`` and ``checkpoint``, which block a thread
by nature, run on the loop's default executor.  An idle connection is
therefore a transport, a protocol object and a few KiB, and no task,
which is what lets one process hold 10k+ connections.

**Pipelining.**  Request ids permit out-of-order completion: frames are
handled as they arrive while earlier requests are still executing, each
response is written whenever its answer is ready, and ``max_inflight``
bounds the requests executing per connection — the excess is shed with
retryable ``BUSY`` frames instead of buffered.  Responses queue in
order, so a chunk sequence goes out contiguously, one chunk at a time as
the transport drains; above the transport's high-water mark the
connection stops reading, so a peer that does not read its responses
stops being read.

**Admission and drain.**  At most ``max_connections`` (excess answered
with one id-0 ``BUSY`` frame and closed); ``close()`` stops accepting
and reading, lets in-flight requests finish against a deadline, closes
each session (awaiting its tickets on the loop, one task per connection
at close — acked async submits are durable before drain completes),
counts stragglers into ``net.close.undrained_connections``, and finally
closes the service when it owns it.

**Streaming responses.**  A query result above the chunk threshold is
answered with bounded chunk frames
(:func:`~repro.service.net.core.split_response`).
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import itertools
import random
import threading
import time
from collections import deque
from typing import Any, Awaitable, Coroutine, Iterable, Iterator, Optional

from repro.errors import (
    ProtocolError,
    ReproError,
    ServiceBusyError,
    ServiceClosedError,
    ServiceConnectionError,
    ServiceError,
    ServiceTimeoutError,
)
from repro.obs import get_registry
from repro.service.net.core import (
    DEFAULT_CHUNK_BYTES,
    HEADER,
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    ChunkAssembler,
    FrameDecoder,
    busy_retry_delay,
    decode_frame_payload,
    encode_frame,
    error_frame,
    error_to_exception,
    reply_id,
    split_response,
)
from repro.service.net.handlers import Dispatcher, Pending
from repro.service.ops import ServiceOp, op_to_dict
from repro.service.server import UpdateService


# ----------------------------------------------------------------------
# Async frame I/O (clients and the router's upstream pipes)
# ----------------------------------------------------------------------
async def read_raw_frame(reader: asyncio.StreamReader) -> Optional[bytes]:
    """One frame's payload bytes; None on clean EOF between frames."""
    try:
        header = await reader.readexactly(HEADER.size)
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            return None
        raise ProtocolError("connection closed mid-frame") from None
    (length,) = HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {length} bytes exceeds {MAX_FRAME_BYTES}")
    try:
        return await reader.readexactly(length)
    except asyncio.IncompleteReadError:
        raise ProtocolError("connection closed mid-frame") from None


async def read_frame_async(reader: asyncio.StreamReader) -> Optional[dict]:
    """One decoded frame; None on clean EOF between frames."""
    payload = await read_raw_frame(reader)
    return None if payload is None else decode_frame_payload(payload)


# ----------------------------------------------------------------------
# An event loop on a thread
# ----------------------------------------------------------------------
class LoopThread:
    """An asyncio event loop running on its own daemon thread, driven
    from ordinary threads through :meth:`run`."""

    def __init__(self, name: str) -> None:
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(target=self._main, name=name, daemon=True)
        self._thread.start()

    def _main(self) -> None:
        asyncio.set_event_loop(self._loop)
        try:
            self._loop.run_forever()
        finally:
            # Finish what is still pending (a connection cut loose at the
            # drain deadline, say) the way asyncio.run does, instead of
            # leaving tasks to be destroyed pending.
            tasks = asyncio.all_tasks(self._loop)
            for task in tasks:
                task.cancel()
            self._loop.run_until_complete(
                asyncio.gather(*tasks, return_exceptions=True)
            )
            self._loop.run_until_complete(self._loop.shutdown_asyncgens())
            self._loop.close()

    def submit(self, coro: Coroutine) -> concurrent.futures.Future:
        """Schedule ``coro`` on the loop without waiting for it."""
        return asyncio.run_coroutine_threadsafe(coro, self._loop)

    def run(self, coro: Coroutine, timeout: Optional[float] = None) -> Any:
        """Run ``coro`` on the loop and block for its result."""
        return self.submit(coro).result(timeout)

    def stop(self, timeout: float = 10.0) -> None:
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout)


# ----------------------------------------------------------------------
# Frame server and connection bases
# ----------------------------------------------------------------------
class FrameConnection(asyncio.Protocol):
    """One client connection, served as protocol callbacks.

    ``data_received`` feeds a :class:`~repro.service.net.core.FrameDecoder`
    and hands each complete request to :meth:`handle` in the same
    callback: a request creates no task, and an open connection has
    none.  Once input ends (EOF, a malformed or stalled frame, or the
    server's drain), one task per connection runs :meth:`settle` to wait
    for what is still in flight and then closes the transport, and
    :meth:`release` gives up what the connection owns.

    Subclasses say what a request means (:meth:`handle`), what must
    finish before the connection may close (:meth:`settle`), and what
    the connection owns (:meth:`release`).  :meth:`handle` answers
    through :meth:`send_frames` / :meth:`send_raw`, or returns an
    awaitable when it must wait (the router opening an upstream
    connection): reading pauses until it finishes, so requests are still
    handled one at a time and in order.

    Reading also pauses while the transport is above its write
    high-water mark, so a peer that does not read its responses stops
    being read.  Responses are written in order, a chunk sequence
    contiguously and one chunk at a time as the transport drains, so at
    most one chunk beyond the high-water mark is ever buffered.  A frame
    that starts arriving must finish within the server's
    ``max_request_timeout``, or the connection is dropped.
    """

    def __init__(self, server: "FrameServer", conn_id: int) -> None:
        self.server = server
        self.id = conn_id
        self.loop = asyncio.get_running_loop()
        self.transport: Optional[asyncio.Transport] = None
        self.done = asyncio.Event()
        #: Set when the drain deadline cut this connection loose.
        self.aborted = False
        self._decoder = FrameDecoder()
        #: Response frame sequences not yet written, oldest first.
        self._outbox: deque[Iterator[bytes]] = deque()
        self._write_paused = False
        self._flushed: Optional[asyncio.Future] = None
        self._reading = True
        #: The awaitable :meth:`handle` returned, while it runs.
        self._hold: Optional[asyncio.Task] = None
        self._stall: Optional[asyncio.TimerHandle] = None
        #: No further request is handled (EOF, bad stream, or drain).
        self._input_done = False
        #: The transport is closed or closing; nothing more is written.
        self._closed = False
        #: Settles and closes, once input ends; then awaits release().
        self._closer: Optional[asyncio.Task] = None
        self._tasks: set[asyncio.Task] = set()

    # -- what subclasses define ----------------------------------------
    def handle(self, request: dict, payload: bytes) -> Optional[Awaitable]:
        raise NotImplementedError

    async def settle(self) -> None:
        """Every accepted request still completes and its response
        still goes out before the connection closes."""
        if self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)

    def release(self) -> Optional[Awaitable]:
        """Give up what the connection owns, including any request still
        waiting to be answered (runs exactly once, after the transport is
        gone); an awaitable it returns is awaited before the connection
        counts as done."""

    # -- protocol callbacks --------------------------------------------
    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = transport  # type: ignore[assignment]
        if not self._reading:  # a drain began between admission and now
            transport.pause_reading()  # type: ignore[attr-defined]

    def data_received(self, data: bytes) -> None:
        if self._input_done:
            return
        self._decoder.extend(data)
        self._handle_frames()

    def eof_received(self) -> bool:
        self.stop()
        return True  # keep the transport open to answer what is in flight

    def pause_writing(self) -> None:
        self._write_paused = True
        self._update_reading()

    def resume_writing(self) -> None:
        self._write_paused = False
        self._flush()
        self._update_reading()
        self._handle_frames()

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self._closed = self._input_done = True
        self._reading = False
        self._cancel_stall()
        self._outbox.clear()
        self._wake_flushed()
        for task in list(self._tasks):
            task.cancel()
        if self._closer is not None:
            self._closer.cancel()
        waiter = self.release()
        if waiter is None:
            self._finish()
        else:
            self._closer = self.loop.create_task(self._released(waiter))

    # -- reading --------------------------------------------------------
    def _handle_frames(self) -> None:
        decoder = self._decoder
        completed = False
        while not (self._input_done or self._hold is not None or self._write_paused):
            try:
                payload = decoder.next_payload()
                if payload is None:
                    break
                request = decode_frame_payload(payload)
            except ProtocolError:
                self.stop()  # malformed stream: drop it
                return
            completed = True
            waiter = self.handle(request, payload)
            if waiter is not None:
                self._hold = self.spawn(waiter)
                self._hold.add_done_callback(self._unhold)
                self._update_reading()
        self._watch_stall(completed)

    def _unhold(self, task: asyncio.Task) -> None:
        self._hold = None
        if not task.cancelled() and task.exception() is not None:
            self.stop()
        self._update_reading()
        self._handle_frames()

    def _update_reading(self) -> None:
        reading = not (self._input_done or self._hold is not None or self._write_paused)
        if reading != self._reading:
            self._reading = reading
            if self.transport is None or self._closed:
                return
            if reading:
                self.transport.resume_reading()
            else:
                self.transport.pause_reading()

    def _watch_stall(self, restart: bool) -> None:
        """Arm the stall timer while a partial frame waits for bytes;
        a completed frame restarts it."""
        waiting = self._reading and self._decoder.mid_frame
        if self._stall is not None and (restart or not waiting):
            self._cancel_stall()
        if waiting and self._stall is None:
            self._stall = self.loop.call_later(
                self.server._max_request_timeout, self._stalled
            )

    def _cancel_stall(self) -> None:
        if self._stall is not None:
            self._stall.cancel()
            self._stall = None

    def _stalled(self) -> None:
        self._stall = None
        if self._reading:  # else re-armed when reading resumes
            self.stop()  # the peer stalled mid-frame: drop it

    # -- closing ----------------------------------------------------------
    def stop(self) -> None:
        """Handle no further request; close once :meth:`settle` returns."""
        if self._input_done:
            return
        self._input_done = True
        self._cancel_stall()
        self._update_reading()
        self._closer = self.loop.create_task(self._close())

    async def _close(self) -> None:
        await self.settle()
        await self.flushed()
        self._closed = True
        self.transport.close()

    def abort(self) -> None:
        """Drain deadline passed: cut the connection loose."""
        self.aborted = True
        self._closed = True
        if self._closer is not None:
            self._closer.cancel()
        if self.transport is not None:
            self.transport.abort()

    async def _released(self, waiter: Awaitable) -> None:
        try:
            await waiter
        finally:
            self._finish()

    def _finish(self) -> None:
        self.server._forget(self)
        self.done.set()

    def spawn(self, coro: Awaitable) -> asyncio.Task:
        """Run ``coro`` as a task this connection waits for (or, once
        the transport is gone, cancels)."""
        task = asyncio.ensure_future(coro)
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        return task

    # -- writing ----------------------------------------------------------
    def _send(self, frames: Iterator[bytes]) -> None:
        if self._closed:
            return
        self._outbox.append(frames)
        if len(self._outbox) == 1:
            self._flush()

    def _flush(self) -> None:
        if self._closed:
            return
        outbox, transport = self._outbox, self.transport
        while outbox and not self._write_paused:
            for data in outbox[0]:
                transport.write(data)
                if self._write_paused:
                    return  # resume_writing continues this sequence
            outbox.popleft()
        if not outbox:
            self._wake_flushed()

    def _wake_flushed(self) -> None:
        if self._flushed is not None:
            if not self._flushed.done():
                self._flushed.set_result(None)
            self._flushed = None

    async def flushed(self) -> None:
        """Wait until every queued response frame has gone to the
        transport (or the transport is gone)."""
        if self._outbox:
            if self._flushed is None:
                self._flushed = self.loop.create_future()
            await self._flushed

    def send_frames(self, frames: Iterable[dict]) -> None:
        self._send(encode_frame(frame) for frame in frames)

    def send_raw(self, payload: bytes) -> None:
        """Relay one frame's payload bytes verbatim (no re-encode)."""
        self._send(iter((HEADER.pack(len(payload)) + payload,)))


class _Refused(asyncio.Protocol):
    """A connection past the limit: one id-0 ``BUSY`` frame, then close."""

    def __init__(self, frame: bytes) -> None:
        self._frame = frame

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        transport.write(self._frame)  # type: ignore[attr-defined]
        transport.close()


class FrameServer:
    """A TCP listener speaking the frame protocol, its loop on a
    background thread: synchronous ``start`` / ``address`` / ``close``,
    connection-limit admission, and a deadline-bounded graceful drain.

    Subclasses build their connections (:meth:`_connection`), name
    their metrics (``_metrics``), and release what they own once the
    drain is over (:meth:`_release`).
    """

    #: Metric-name prefix (``<prefix>.connections``, ``.rejected``, ...).
    _metrics = "net"

    def __init__(
        self,
        host: str,
        port: int,
        *,
        max_connections: int,
        max_inflight: int,
        max_request_timeout: float,
    ) -> None:
        self._host = host
        self._port = port
        self._max_connections = max_connections
        self._max_inflight = max_inflight
        self._max_request_timeout = max_request_timeout
        self._loop_thread: Optional[LoopThread] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._address: Optional[tuple[str, int]] = None
        self._connections: dict[int, FrameConnection] = {}
        self._next_connection = 0
        self._draining = False
        self._closed = False

    def _connection(self, conn_id: int) -> FrameConnection:
        raise NotImplementedError

    def _release(self, timeout: Optional[float]) -> None:
        """Close what the server owns, after the drain."""

    def _net_info(self) -> dict:
        return {
            "connections": len(self._connections),
            "max_connections": self._max_connections,
            "max_inflight": self._max_inflight,
        }

    # ------------------------------------------------------------------
    # Lifecycle (synchronous API; the loop lives on its own thread)
    # ------------------------------------------------------------------
    def start(self):
        if self._loop_thread is not None:
            raise ServiceError("server already started")
        loop_thread = LoopThread(f"{self._metrics}-aio")
        try:
            loop_thread.run(self._open_listener())
        except Exception as error:
            loop_thread.stop()
            raise ServiceError(f"server failed to start: {error}") from error
        self._loop_thread = loop_thread
        return self

    async def _open_listener(self) -> None:
        self._server = await asyncio.get_running_loop().create_server(
            self._accept, self._host, self._port, backlog=1024
        )
        self._address = self._server.sockets[0].getsockname()[:2]

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` — resolves ``port=0`` requests."""
        if self._address is None:
            raise ServiceError("server not started")
        return self._address

    def __enter__(self):
        return self.start()

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    def close(self, timeout: Optional[float] = 30.0) -> int:
        """Graceful drain (synchronous): stop accepting, let every
        connection settle against one deadline, then release what the
        server owns.  Returns the number of connections still undrained
        at the deadline (also counted into the
        ``<prefix>.close.undrained_connections`` counter)."""
        if self._closed:
            return 0
        self._closed = True
        undrained = 0
        if self._loop_thread is not None:
            try:
                undrained = self._loop_thread.run(
                    self._drain(timeout), None if timeout is None else timeout + 10.0
                )
            except Exception:
                undrained = len(self._connections)
            self._loop_thread.stop()
        if undrained:
            get_registry().counter(
                f"{self._metrics}.close.undrained_connections"
            ).inc(undrained)
        self._release(timeout)
        return undrained

    async def _drain(self, timeout: Optional[float]) -> int:
        loop = asyncio.get_running_loop()
        deadline = None if timeout is None else loop.time() + timeout
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        connections = list(self._connections.values())
        for connection in connections:
            connection.stop()
        undrained = 0
        for connection in connections:
            remaining = (
                None if deadline is None else max(0.0, deadline - loop.time())
            )
            try:
                if remaining is None:
                    await connection.done.wait()
                else:
                    await asyncio.wait_for(connection.done.wait(), remaining)
            except asyncio.TimeoutError:
                undrained += 1
                connection.abort()
        return undrained

    # ------------------------------------------------------------------
    # Connections
    # ------------------------------------------------------------------
    def _accept(self) -> asyncio.Protocol:
        """The listener's protocol factory: admit, or refuse with BUSY."""
        registry = get_registry()
        if self._draining or len(self._connections) >= self._max_connections:
            registry.counter(f"{self._metrics}.rejected").inc()
            busy = ServiceBusyError(
                f"connection limit ({self._max_connections}) reached"
            )
            return _Refused(encode_frame(error_frame(0, busy)))
        self._next_connection += 1
        connection = self._connection(self._next_connection)
        self._connections[connection.id] = connection
        registry.gauge(f"{self._metrics}.connections").inc()
        return connection

    def _forget(self, connection: FrameConnection) -> None:
        if self._connections.pop(connection.id, None) is not None:
            get_registry().gauge(f"{self._metrics}.connections").dec()


# ----------------------------------------------------------------------
# The service front end
# ----------------------------------------------------------------------
class AsyncNetServer(FrameServer):
    """The TCP front end over one :class:`UpdateService`: requests are
    dispatched on the event loop, and a request another thread answers
    (the committer's ticket, the query pool's future) is written from
    that future's done-callback."""

    def __init__(
        self,
        service: UpdateService,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_connections: int = 10_000,
        max_inflight: int = 64,
        max_request_timeout: float = 30.0,
        own_service: bool = False,
        chunk_bytes: int = DEFAULT_CHUNK_BYTES,
    ) -> None:
        super().__init__(
            host,
            port,
            max_connections=max_connections,
            max_inflight=max_inflight,
            max_request_timeout=max_request_timeout,
        )
        self.service = service
        self._own_service = own_service
        self._chunk_bytes = chunk_bytes
        self._dispatcher = Dispatcher(
            service,
            max_inflight=max_inflight,
            max_request_timeout=max_request_timeout,
            net_info=self._net_info,
        )

    def _net_info(self) -> dict:
        return {**super()._net_info(), "transport": "asyncio"}

    def _connection(self, conn_id: int) -> "_AsyncConnection":
        return _AsyncConnection(self, conn_id)

    def _release(self, timeout: Optional[float]) -> None:
        if self._own_service:
            self.service.close(drain=True, timeout=timeout)


class _InFlight:
    """One pending request on a connection: its record, when it
    arrived, and the timer armed at its deadline."""

    __slots__ = ("connection", "pending", "started", "timer")

    def __init__(self, connection: "_AsyncConnection", pending: Pending, started: float) -> None:
        self.connection = connection
        self.pending = pending
        self.started = started
        self.timer: Optional[asyncio.TimerHandle] = None

    def resolved(self, _future: concurrent.futures.Future) -> None:
        """Done-callback on the thread that resolved the future: one hop
        to the loop.  A loop that has already closed has no connection
        left to answer."""
        connection = self.connection
        try:
            connection.loop.call_soon_threadsafe(connection._answer, self)
        except RuntimeError:
            pass


class _AsyncConnection(FrameConnection):
    """One client connection: pipelined dispatches over one session."""

    server: AsyncNetServer

    def __init__(self, server: AsyncNetServer, conn_id: int) -> None:
        super().__init__(server, conn_id)
        self.session = server.service.open_session()
        self._inflight: set[_InFlight] = set()
        self._settled: Optional[asyncio.Future] = None

    def handle(self, request: dict, payload: bytes) -> None:
        server = self.server
        registry = get_registry()
        if len(self._inflight) >= server._max_inflight:
            # Shed instead of buffering: the pipeline is full.
            registry.counter("net.rejected").inc()
            busy = ServiceBusyError(
                f"connection has {len(self._inflight)} requests executing "
                f"(limit {server._max_inflight}); slow down"
            )
            self.send_frames([error_frame(reply_id(request), busy)])
            return
        started = time.monotonic()
        registry.counter("net.requests").inc()
        try:
            response = server._dispatcher.dispatch(self.session, request)
        except Exception as error:
            response = error_frame(reply_id(request), error)
        if isinstance(response, Pending):
            self._wait_for(response, started)
        else:
            self._respond(response, started)

    def _wait_for(self, pending: Pending, started: float) -> None:
        future = pending.deferred.future
        if future.done():
            self._respond(pending.response(), started)
            return
        entry = _InFlight(self, pending, started)
        self._inflight.add(entry)
        entry.timer = self.loop.call_later(
            max(0.0, pending.deadline - time.monotonic()), self._expire, entry
        )
        if isinstance(future, asyncio.Future):
            future.add_done_callback(lambda _future: self._answer(entry))
        else:
            future.add_done_callback(entry.resolved)

    def _answer(self, entry: _InFlight) -> None:
        if entry not in self._inflight:
            return  # answered at its deadline, or the connection is gone
        self._inflight.discard(entry)
        entry.timer.cancel()
        self._respond(entry.pending.response(), entry.started)

    def _expire(self, entry: _InFlight) -> None:
        if entry not in self._inflight:
            return
        self._inflight.discard(entry)
        entry.pending.deferred.future.cancel()
        self._respond(entry.pending.expired(), entry.started)

    def _respond(self, response: dict, started: float) -> None:
        registry = get_registry()
        registry.histogram("net.request_ms").observe(
            (time.monotonic() - started) * 1000.0
        )
        if not response.get("ok", False):
            registry.counter("net.rejected").inc()
        frames = split_response(response, self.server._chunk_bytes)
        if len(frames) > 1:
            registry.counter("net.chunks").inc(len(frames))
        self.send_frames(frames)
        if not self._inflight and self._settled is not None:
            if not self._settled.done():
                self._settled.set_result(None)
            self._settled = None

    async def settle(self) -> None:
        if self._inflight:
            self._settled = self.loop.create_future()
            await self._settled

    def release(self) -> Optional[Awaitable]:
        for entry in self._inflight:
            entry.timer.cancel()  # nobody is left to answer
        self._inflight.clear()
        # Await this connection's tickets on the loop — acked async
        # submits are durable before drain finishes — then close the
        # session, which only counts what is still unresolved.  Past the
        # drain deadline nothing is awaited: the loop is about to stop.
        tickets = [] if self.aborted else self.session.unresolved()
        if not tickets:
            self._close_session()
            return None
        return self._await_tickets(tickets)

    async def _await_tickets(self, tickets: list) -> None:
        waits = [asyncio.wrap_future(ticket.future) for ticket in tickets]
        try:
            await asyncio.wait(waits, timeout=self.server._max_request_timeout)
        finally:
            for wait in waits:
                if wait.done():
                    wait.exception()  # a failure is counted by close() below
                else:
                    wait.cancel()  # stops the wait; the ticket cannot be cancelled
            self._close_session()

    def _close_session(self) -> None:
        undrained = self.session.close(timeout=0.0)
        if undrained:
            get_registry().counter("net.close.undrained").inc(undrained)


# ----------------------------------------------------------------------
# Client
# ----------------------------------------------------------------------
class AsyncServiceClient:
    """An async client with pipelined requests and streamed responses.

    Many coroutines may issue requests concurrently on one connection;
    a background receive task routes responses to futures by id, so
    completion order is independent of submission order (that is the
    pipelining the bench sweeps measure).  Large query results arrive
    as bounded chunks reassembled by :class:`ChunkAssembler`.

    Every failure is a typed :class:`~repro.errors.ServiceError`
    subclass: wire errors map by code (``BUSY`` →
    :class:`ServiceBusyError`, ``TIMEOUT`` →
    :class:`ServiceTimeoutError`, ...), a deadline miss raises
    :class:`ServiceTimeoutError` (the connection survives; the late
    response is discarded by id), a refused/reset/closed transport
    raises :class:`ServiceConnectionError`, and a connection the server
    turned away (the connection-limit ``BUSY`` frame) keeps raising the
    server's own typed error, so ``retries_busy`` callers and the
    router see a retryable rejection, not a dead client.

    Construct with :meth:`connect`::

        client = await AsyncServiceClient.connect(host, port)
        try:
            await client.submit_wait(op)
        finally:
            await client.close()

    (or ``async with await AsyncServiceClient.connect(...) as client:``).
    """

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        *,
        request_timeout: float = 30.0,
    ) -> None:
        self._reader = reader
        self._writer = writer
        self._request_timeout = request_timeout
        self._write_lock = asyncio.Lock()
        self._pending: dict[int, tuple[asyncio.Future, ChunkAssembler]] = {}
        self._next_id = 0
        self._dead: Optional[ServiceError] = None
        #: The error record of a server-sent rejection that killed the
        #: connection (id 0, e.g. the connection-limit BUSY frame).
        self._rejection: Optional[object] = None
        self._closed = False
        self._receiver: Optional[asyncio.Task] = None

    @classmethod
    async def connect(
        cls,
        host: str,
        port: int,
        *,
        connect_timeout: float = 5.0,
        request_timeout: float = 30.0,
    ) -> "AsyncServiceClient":
        try:
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(host, port), connect_timeout
            )
        except asyncio.TimeoutError:
            raise ServiceTimeoutError(
                f"connect to {host}:{port} timed out after {connect_timeout}s"
            ) from None
        except OSError as error:
            raise ServiceConnectionError(
                f"cannot connect to {host}:{port}: {error}"
            ) from error
        client = cls(reader, writer, request_timeout=request_timeout)
        client._receiver = asyncio.create_task(client._receive_loop())
        return client

    # ------------------------------------------------------------------
    async def _receive_loop(self) -> None:
        try:
            while True:
                frame = await read_frame_async(self._reader)
                if frame is None:
                    raise ServiceConnectionError("server closed the connection")
                self._route(frame)
        except asyncio.CancelledError:
            raise
        except ReproError as error:
            self._fail(error)
        except Exception as error:
            self._fail(ServiceConnectionError(f"connection failed: {error}"))

    def _route(self, frame: dict) -> None:
        response_id = frame.get("id")
        if response_id == 0 and not frame.get("ok", True):
            # id 0 marks a server-initiated rejection (the
            # connection-limit BUSY frame sent before any request was
            # read): fatal to the connection, and remembered so later
            # requests raise the same typed error.
            self._rejection = frame.get("error", {})
            raise error_to_exception(self._rejection)
        if (
            not isinstance(response_id, int)
            or response_id <= 0
            or response_id > self._next_id
        ):
            raise ProtocolError(
                f"response id {response_id!r} does not match any request id "
                "issued by this client"
            )
        entry = self._pending.get(response_id)
        if entry is None:
            return  # late response to a timed-out request: discard
        future, assembler = entry
        complete = assembler.feed(frame)
        if complete is not None:
            del self._pending[response_id]
            if not future.done():
                future.set_result(complete)

    def _fail(self, error: ServiceError) -> None:
        if self._dead is None:
            self._dead = error
        for future, _assembler in self._pending.values():
            if not future.done():
                future.set_exception(error)
        self._pending.clear()
        try:
            self._writer.close()
        except Exception:
            pass

    async def _request(
        self, kind: str, timeout: Optional[float] = None, **fields
    ) -> dict:
        if self._closed:
            raise ServiceClosedError("client is closed")
        if self._rejection is not None:
            raise error_to_exception(self._rejection)
        if self._dead is not None:
            raise ServiceClosedError(f"client connection is dead: {self._dead}")
        effective = self._request_timeout if timeout is None else timeout
        self._next_id += 1
        request_id = self._next_id
        message = {
            "v": PROTOCOL_VERSION,
            "op": kind,
            "timeout": effective,
            "id": request_id,
        }
        message.update(fields)
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._pending[request_id] = (future, ChunkAssembler())
        try:
            async with self._write_lock:
                self._writer.write(encode_frame(message))
                await self._writer.drain()
        except (OSError, ConnectionError) as error:
            self._pending.pop(request_id, None)
            raise ServiceConnectionError(
                f"connection failed during {kind!r}: {error}"
            ) from error
        try:
            # The server enforces the deadline; ours is a backstop
            # slightly past it so a hung server surfaces as a typed
            # timeout.  Only this request is abandoned — its late
            # response is discarded by id.
            response = await asyncio.wait_for(future, effective + 2.0)
        except asyncio.TimeoutError:
            self._pending.pop(request_id, None)
            raise ServiceTimeoutError(
                f"request {kind!r} timed out after {effective}s"
            ) from None
        if not response.get("ok", False):
            raise error_to_exception(response.get("error", {}))
        return response

    # ------------------------------------------------------------------
    # API (mirrored, blocking, by repro.service.net.blocking.ServiceClient)
    # ------------------------------------------------------------------
    async def ping(self) -> list[str]:
        """Round-trip; returns the hosted document names."""
        return (await self._request("ping"))["documents"]

    async def request(self, kind: str, timeout: Optional[float] = None, **fields) -> dict:
        """One raw protocol request; returns the complete (reassembled)
        response frame.  This is the escape hatch the shard router's
        admin fan-out uses — the typed methods below cover normal use."""
        return await self._request(kind, timeout=timeout, **fields)

    async def submit(
        self, op: ServiceOp, *, retries_busy: int = 0, backoff: float = 0.01
    ) -> int:
        """Enqueue without waiting for durability; returns the number of
        this connection's operations still in flight.  ``retries_busy``
        retries a ``BUSY`` rejection with jittered exponential backoff,
        never retrying past one request-timeout in total."""
        response = await self._retry_busy(
            lambda: self._request("submit", payload=op_to_dict(op)),
            retries_busy,
            backoff,
            time.monotonic() + self._request_timeout,
        )
        return response["pending"]

    async def submit_wait(
        self,
        op: ServiceOp,
        timeout: Optional[float] = None,
        *,
        retries_busy: int = 0,
        backoff: float = 0.01,
    ) -> Optional[int]:
        """Submit and wait until durable + applied; returns the WAL seq."""
        effective = self._request_timeout if timeout is None else timeout
        response = await self._retry_busy(
            lambda: self._request(
                "submit_wait", timeout=timeout, payload=op_to_dict(op)
            ),
            retries_busy,
            backoff,
            time.monotonic() + effective,
        )
        return response["seq"]

    async def _retry_busy(
        self, attempt, retries: int, backoff: float, deadline: float
    ) -> dict:
        for retry in itertools.count():
            try:
                return await attempt()
            except ServiceBusyError:
                delay = busy_retry_delay(
                    retry,
                    retries,
                    backoff,
                    deadline - time.monotonic(),
                    random.random(),
                )
                if delay is None:
                    raise
                await asyncio.sleep(delay)

    async def query(
        self,
        doc: str,
        statement: Optional[str] = None,
        timeout: Optional[float] = None,
    ) -> Any:
        """The serialised document (no statement) or rendered FLWR
        results (statement), read under the document's read lock."""
        response = await self._request(
            "query", timeout=timeout, doc=doc, statement=statement
        )
        return response["text"] if statement is None else response["results"]

    async def execute(
        self, doc: str, statement: str, timeout: Optional[float] = None
    ) -> dict:
        """Run an XQuery statement server-side; update statements return
        ``{"seq", "delta_ops"}``, reads return ``{"results"}``."""
        response = await self._request(
            "execute", timeout=timeout, doc=doc, statement=statement
        )
        return {
            key: response[key]
            for key in ("seq", "delta_ops", "results")
            if key in response
        }

    async def flush(self, timeout: Optional[float] = None) -> None:
        """Barrier: everything this server accepted before now is durable."""
        await self._request("flush", timeout=timeout)

    async def checkpoint(self, timeout: Optional[float] = None) -> dict:
        response = await self._request("checkpoint", timeout=timeout)
        return {
            key: response[key]
            for key in ("wal_seq", "documents", "segments_retired", "bytes_retired")
        }

    async def stats(self) -> dict:
        response = await self._request("stats")
        return {key: response[key] for key in ("service", "net", "metrics")}

    async def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._receiver is not None:
            self._receiver.cancel()
            try:
                await self._receiver
            except (asyncio.CancelledError, Exception):
                pass
        # Wake every request still waiting: nobody will route its
        # response now, and its own timeout is seconds away.
        self._fail(ServiceClosedError("client is closed"))
        try:
            await self._writer.wait_closed()
        except Exception:
            pass

    async def __aenter__(self) -> "AsyncServiceClient":
        return self

    async def __aexit__(self, exc_type, exc_value, traceback) -> None:
        await self.close()
