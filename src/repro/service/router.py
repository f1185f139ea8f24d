"""The shard router: multi-process write scaling over the framing core.

One Python process is GIL-bound, so a single :class:`UpdateService`
tops out at roughly one core of write throughput.  The router front end
splits the document space across N worker processes (spawned and
watched by :class:`~repro.service.supervise.ShardSupervisor` — each a
full service + async server over its own WAL under ``shard-<k>/``) and
speaks the unchanged wire protocol to clients, so ``connect``, both
client classes, and every existing tool work against it unmodified.

**The hot path forwards bytes, not objects.**  A routed request
(``submit`` / ``submit_wait`` / ``query`` / ``execute``) is JSON-parsed
once — to find the document name and hash it through the persisted
:class:`~repro.service.supervise.ShardMap` — and then the *original
payload bytes* are relayed to a per-(connection, shard) upstream
connection.  Response frames are pumped back verbatim, in order, into
the client connection's outbox; the router parses them only enough to
retire its pending-id table (which is what lets it synthesise retryable
``BUSY`` errors for requests a dying worker will never answer).
Request ids stay client-owned end to end, so pipelining and chunked
responses pass straight through.  The listener, admission, protocol
callbacks and drain are the same
:class:`~repro.service.net.aio.FrameServer` /
:class:`~repro.service.net.aio.FrameConnection` the single-process
server runs on; only request handling differs (forward vs dispatch).
A request for a shard with an open upstream pipe is written in the
callback that decoded it; one that must open the pipe first returns an
awaitable, and the client connection stops reading until it finishes,
so requests still leave in the order they arrived.  A pump that finds
the client connection above its write high-water mark waits for it to
drain before reading the worker again.

**Broadcast requests** fan out on per-shard admin clients: ``stats``
merges the worker registries through
:meth:`~repro.obs.metrics.MetricsRegistry.merge` (counters sum,
histograms pool, gauges tagged ``{shard-k}``), ``checkpoint`` and
``flush`` broadcast and aggregate, and ``ping`` is answered locally
from the supervisor's manifest.

**Supervision.**  A health loop pings each worker; a dead worker is
restarted off-loop (its recovery replays the shard WAL, so everything
the router acknowledged survives) while requests for its documents are
answered with retryable ``BUSY`` — the other shards keep serving.

What is and is not preserved: operations on *one document* keep the
per-document ordering and durability guarantees of the single-process
service (a document lives entirely on one shard).  Cross-document
operations issued through one client connection are no longer totally
ordered once the documents live on different shards, and ``flush`` is a
per-shard barrier executed on all shards, not a global snapshot point.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Awaitable, Optional

from repro.errors import (
    ProtocolError,
    ReproError,
    ServiceBusyError,
)
from repro.obs import MetricsRegistry, get_registry
from repro.service.net.aio import (
    AsyncServiceClient,
    FrameConnection,
    FrameServer,
    read_raw_frame,
)
from repro.service.net.core import (
    HEADER,
    PROTOCOL_VERSION,
    check_envelope,
    decode_frame_payload,
    error_frame,
    reply_id,
)
from repro.service.supervise import ShardMap, ShardSupervisor

__all__ = ["ShardCluster", "ShardMap", "ShardRouter"]

#: Request kinds routed by document name → where the name lives.
ROUTED_KINDS = {
    "submit": "payload",
    "submit_wait": "payload",
    "query": "doc",
    "execute": "doc",
}
#: Request kinds that fan out to every shard.
BROADCAST_KINDS = ("stats", "flush", "checkpoint")


def _routed_doc(kind: str, request: dict) -> str:
    """The document name a routed request targets (raises if absent)."""
    if ROUTED_KINDS[kind] == "doc":
        doc = request.get("doc")
    else:
        payload = request.get("payload")
        doc = payload.get("doc") if isinstance(payload, dict) else None
    if not isinstance(doc, str) or not doc:
        raise ProtocolError(f"{kind} needs a routable document name")
    return doc


class _ShardLink:
    """The router's view of one shard: health and admin connection."""

    __slots__ = ("index", "up", "restarting", "generation", "admin")

    def __init__(self, index: int) -> None:
        self.index = index
        self.up = True
        self.restarting = False
        #: Bumped on every restart; upstreams built against an older
        #: generation reconnect (the old port/process is gone).
        self.generation = 0
        self.admin: Optional[AsyncServiceClient] = None


class ShardRouter(FrameServer):
    """The TCP front end that routes client frames to shard workers.

    Listener lifecycle, admission and drain are
    :class:`~repro.service.net.aio.FrameServer`'s; what is added here
    is the shard side: links, health, admin fan-out.
    """

    _metrics = "router"

    def __init__(
        self,
        supervisor: ShardSupervisor,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_connections: int = 10_000,
        max_inflight: int = 256,
        max_request_timeout: float = 30.0,
        health_interval: float = 0.5,
        own_supervisor: bool = False,
    ) -> None:
        self.supervisor = supervisor
        self.map = supervisor.map
        super().__init__(
            host,
            port,
            max_connections=max_connections,
            max_inflight=max_inflight,
            max_request_timeout=max_request_timeout,
        )
        # Restarts block on process join + respawn + port wait; they run
        # off-loop so a dying shard never stalls the others' traffic.
        self._restarts = ThreadPoolExecutor(
            max_workers=max(2, self.map.shards), thread_name_prefix="router-restart"
        )
        self._health_interval = health_interval
        self._own_supervisor = own_supervisor
        self._links = [_ShardLink(k) for k in range(self.map.shards)]
        self._tasks: set[asyncio.Task] = set()
        self._health_task: Optional[asyncio.Task] = None

    def _connection(self, conn_id: int) -> "_RouterConnection":
        return _RouterConnection(self, conn_id)

    async def _open_listener(self) -> None:
        await super()._open_listener()
        self._health_task = asyncio.get_running_loop().create_task(
            self._health_loop()
        )

    async def _drain(self, timeout: Optional[float]) -> int:
        """Drain the client side, then flush every shard."""
        loop = asyncio.get_running_loop()
        deadline = None if timeout is None else loop.time() + timeout
        if self._health_task is not None:
            self._health_task.cancel()
        undrained = await super()._drain(timeout)
        # Broadcast one final flush: every shard makes everything it
        # acknowledged durable before the fleet is stopped.  (Worker
        # drain covers this again; the barrier here is belt-and-braces
        # for a supervisor that has to escalate to SIGKILL.)
        remaining = None if deadline is None else max(0.1, deadline - loop.time())
        try:
            await asyncio.wait_for(self._fanout("flush", {}), remaining)
        except Exception:
            pass
        for link in self._links:
            await self._drop_admin(link)
        for task in list(self._tasks):
            task.cancel()
        return undrained

    def _release(self, timeout: Optional[float]) -> None:
        self._restarts.shutdown(wait=False, cancel_futures=True)
        if self._own_supervisor:
            self.supervisor.stop(30.0 if timeout is None else timeout)

    # ------------------------------------------------------------------
    # Shard health
    # ------------------------------------------------------------------
    def _spawn_task(self, coro) -> asyncio.Task:
        task = asyncio.get_running_loop().create_task(coro)
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        return task

    async def _health_loop(self) -> None:
        while True:
            await asyncio.sleep(self._health_interval)
            for link in self._links:
                if link.restarting:
                    continue
                if not self.supervisor.alive(link.index):
                    self._begin_restart(link)
                elif link.up:
                    self._spawn_task(self._ping_link(link))

    async def _ping_link(self, link: _ShardLink) -> None:
        try:
            admin = await self._admin(link)
            await asyncio.wait_for(
                admin.request("ping"), min(5.0, self._health_interval * 4 + 1.0)
            )
        except asyncio.CancelledError:
            raise
        except Exception:
            await self._drop_admin(link)
            self._shard_trouble(link)

    def _shard_trouble(self, link: _ShardLink) -> None:
        """An upstream or admin connection to this shard failed."""
        if link.restarting or self._draining:
            return
        if self.supervisor.alive(link.index):
            return  # transient connection loss; callers just reconnect
        self._begin_restart(link)

    def _begin_restart(self, link: _ShardLink) -> None:
        if link.restarting or self._draining:
            return
        link.up = False
        link.restarting = True
        get_registry().counter("router.restarts").inc()
        self._spawn_task(self._restart(link))

    async def _restart(self, link: _ShardLink) -> None:
        loop = asyncio.get_running_loop()
        await self._drop_admin(link)
        try:
            await loop.run_in_executor(
                self._restarts, self.supervisor.restart, link.index
            )
        except asyncio.CancelledError:
            raise
        except Exception:
            # Leave the shard marked down; the next health tick tries
            # again.  Requests for its documents keep getting BUSY.
            get_registry().counter("router.restart_failures").inc()
            link.restarting = False
            return
        link.generation += 1
        link.restarting = False
        link.up = True

    # ------------------------------------------------------------------
    # Admin clients & broadcasts
    # ------------------------------------------------------------------
    async def _admin(self, link: _ShardLink) -> AsyncServiceClient:
        if link.admin is None:
            link.admin = await AsyncServiceClient.connect(
                self.supervisor.host,
                self.supervisor.port(link.index),
                connect_timeout=5.0,
                request_timeout=self._max_request_timeout,
            )
        return link.admin

    async def _drop_admin(self, link: _ShardLink) -> None:
        admin, link.admin = link.admin, None
        if admin is not None:
            try:
                await admin.close()
            except Exception:
                pass

    async def _fanout(self, kind: str, request: dict) -> dict[int, dict]:
        """Run one broadcast request on every shard; shard index → response.

        ``flush`` and ``checkpoint`` are barriers, so any down shard
        (or one that fails mid-request) makes the whole broadcast a
        retryable ``BUSY``.  ``stats`` degrades instead: down shards
        are reported, not fatal.
        """
        barrier = kind in ("flush", "checkpoint")
        down = [link.index for link in self._links if not link.up]
        if down and barrier:
            raise ServiceBusyError(
                f"shard(s) {down} restarting; retry the {kind}"
            )
        timeout = request.get("timeout")
        timeout = timeout if isinstance(timeout, (int, float)) and timeout > 0 else None

        async def one(link: _ShardLink) -> dict:
            admin = await self._admin(link)
            return await admin.request(kind, timeout=timeout)

        up_links = [link for link in self._links if link.up]
        results = await asyncio.gather(
            *(one(link) for link in up_links), return_exceptions=True
        )
        responses: dict[int, dict] = {}
        for link, result in zip(up_links, results):
            if isinstance(result, BaseException):
                await self._drop_admin(link)
                self._shard_trouble(link)
                if not barrier:
                    continue
                if isinstance(result, ReproError) and not isinstance(
                    result, (ServiceBusyError,)
                ):
                    raise result
                raise ServiceBusyError(
                    f"shard {link.index} failed during {kind} "
                    f"({result}); retry"
                ) from None
            responses[link.index] = result
        return responses

    def _merge_broadcast(self, kind: str, responses: dict[int, dict]) -> dict:
        if kind == "flush":
            return {"flushed": True, "shards": sorted(responses)}
        if kind == "checkpoint":
            per_shard = {
                f"shard-{index}": {
                    key: response.get(key, 0)
                    for key in (
                        "wal_seq",
                        "documents",
                        "segments_retired",
                        "bytes_retired",
                    )
                }
                for index, response in sorted(responses.items())
            }
            return {
                "wal_seq": max(
                    (response.get("wal_seq", 0) for response in responses.values()),
                    default=0,
                ),
                "documents": sum(
                    response.get("documents", 0) for response in responses.values()
                ),
                "segments_retired": sum(
                    response.get("segments_retired", 0)
                    for response in responses.values()
                ),
                "bytes_retired": sum(
                    response.get("bytes_retired", 0)
                    for response in responses.values()
                ),
                "shards": per_shard,
            }
        # stats: merge the worker registries; tag gauges by shard so
        # point-in-time levels stay distinguishable.
        merged = MetricsRegistry()
        per_shard_service: dict[str, dict] = {}
        for index, response in sorted(responses.items()):
            metrics = response.get("metrics")
            if isinstance(metrics, dict):
                merged.merge(metrics, gauge_tag=f"shard-{index}")
            per_shard_service[f"shard-{index}"] = response.get("service", {})
        merged.merge(get_registry().snapshot(), gauge_tag="router")
        down = [link.index for link in self._links if not link.up]
        return {
            "service": {
                "shards": self.map.shards,
                "down": down,
                "per_shard": per_shard_service,
            },
            "net": self._net_info(),
            "metrics": merged.snapshot(),
        }

    def _net_info(self) -> dict:
        return {
            **super()._net_info(),
            "transport": "router",
            "shards": {
                "total": self.map.shards,
                "up": [link.index for link in self._links if link.up],
                "down": [link.index for link in self._links if not link.up],
            },
        }

    def _ping_response(self, request: dict) -> dict:
        return {
            "v": PROTOCOL_VERSION,
            "id": request.get("id"),
            "ok": True,
            "pong": True,
            "documents": self.supervisor.documents,
            "shards": self._net_info()["shards"],
        }


class _Upstream:
    """One client connection's pipe to one shard worker.

    Forwards request bytes, pumps response bytes back, and tracks the
    ids in flight so a dead worker's unanswered requests can be failed
    with retryable ``BUSY`` instead of hanging until client timeout.
    """

    __slots__ = (
        "connection",
        "link",
        "generation",
        "reader",
        "writer",
        "pending",
        "dead",
        "_pump_task",
    )

    def __init__(
        self,
        connection: "_RouterConnection",
        link: _ShardLink,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        self.connection = connection
        self.link = link
        self.generation = link.generation
        self.reader = reader
        self.writer = writer
        #: request id → monotonic deadline
        self.pending: dict[int, float] = {}
        self.dead = False
        self._pump_task: Optional[asyncio.Task] = None

    def start(self) -> None:
        self._pump_task = asyncio.get_running_loop().create_task(self._pump())

    def send(self, payload: bytes) -> Optional[Awaitable]:
        """Write one request frame; returns an awaitable of the drain
        when the worker is not keeping up (the caller stops reading its
        client until it finishes)."""
        if self.dead:
            raise ServiceBusyError(
                f"shard {self.link.index} connection lost; retry"
            )
        self.writer.write(HEADER.pack(len(payload)) + payload)
        transport = self.writer.transport
        if transport.get_write_buffer_size() > transport.get_write_buffer_limits()[1]:
            return self._drain()
        return None

    async def _drain(self) -> None:
        try:
            await self.writer.drain()
        except (OSError, ConnectionError):
            self._fail()  # the pump sees the same loss; BUSY answers the rest

    async def _pump(self) -> None:
        connection = self.connection
        try:
            while True:
                payload = await read_raw_frame(self.reader)
                if payload is None:
                    break  # worker closed (restart or drain)
                frame = decode_frame_payload(payload)
                if not frame.get("more", False):
                    self.pending.pop(frame.get("id"), None)
                connection.send_raw(payload)
                await connection.flushed()  # at once unless the client lags
        except asyncio.CancelledError:
            raise
        except Exception:
            pass
        self._fail()

    def _fail(self) -> None:
        if self.dead:
            return
        self.dead = True
        # Fail every request the shard will never answer with a
        # retryable BUSY; the client's retries land after the restart.
        error = ServiceBusyError(
            f"shard {self.link.index} connection lost; retry"
        )
        abandoned = list(self.pending)
        self.pending.clear()
        self.connection.send_frames(
            error_frame(request_id, error) for request_id in abandoned
        )
        if abandoned:
            get_registry().counter("router.abandoned_inflight").inc(len(abandoned))
        self.connection.server._shard_trouble(self.link)

    def sweep(self, now: float) -> None:
        """Drop pending entries whose deadline long passed (the client
        abandoned them; a response would be discarded by id anyway)."""
        expired = [
            request_id
            for request_id, deadline in self.pending.items()
            if now > deadline
        ]
        for request_id in expired:
            self.pending.pop(request_id, None)

    def close(self) -> None:
        self.dead = True
        if self._pump_task is not None:
            self._pump_task.cancel()
        self.writer.close()


class _RouterConnection(FrameConnection):
    """One client connection: route frames, relay responses."""

    server: ShardRouter

    def __init__(self, router: ShardRouter, conn_id: int) -> None:
        super().__init__(router, conn_id)
        self._upstreams: dict[int, _Upstream] = {}

    @property
    def inflight(self) -> int:
        """Forwarded requests awaiting a shard, plus broadcasts."""
        return sum(
            len(upstream.pending) for upstream in self._upstreams.values()
        ) + len(self._tasks)

    def _sweep(self) -> None:
        now = time.monotonic()
        for upstream in self._upstreams.values():
            upstream.sweep(now)

    async def settle(self) -> None:
        """Drain: wait (bounded) for forwarded requests and broadcasts
        still in flight, so their responses reach the client before the
        connection closes."""
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.server._max_request_timeout
        while self.inflight and loop.time() < deadline:
            self._sweep()
            await asyncio.sleep(0.02)

    def release(self) -> None:
        for upstream in self._upstreams.values():
            upstream.close()
        self._upstreams.clear()

    # ------------------------------------------------------------------
    def handle(self, request: dict, payload: bytes) -> Optional[Awaitable]:
        router = self.server
        registry = get_registry()
        registry.counter("router.requests").inc()
        request_id = reply_id(request)
        try:
            check_envelope(request)
            kind = request.get("op")
            if kind == "ping":
                self.send_frames([router._ping_response(request)])
                return None
            if kind in BROADCAST_KINDS:
                self.spawn(self._broadcast(kind, request))
                return None
            if kind not in ROUTED_KINDS:
                raise ProtocolError(f"unknown request kind {kind!r}")
            doc = _routed_doc(kind, request)
            if self.inflight >= router._max_inflight:
                self._sweep()
            if self.inflight >= router._max_inflight:
                registry.counter("router.rejected").inc()
                raise ServiceBusyError(
                    f"connection has {self.inflight} requests in flight "
                    f"(limit {router._max_inflight}); slow down"
                )
            shard = router.map.shard_of(doc)
            upstream = self._live_upstream(shard)
            if upstream is None:
                return self._connect_and_forward(shard, request, payload)
            return self._forward(upstream, request, payload)
        except Exception as error:
            self._refuse(request_id, error)
            return None

    def _forward(
        self, upstream: _Upstream, request: dict, payload: bytes
    ) -> Optional[Awaitable]:
        router = self.server
        request_id = reply_id(request)
        timeout = request.get("timeout")
        if not isinstance(timeout, (int, float)) or timeout <= 0:
            timeout = router._max_request_timeout
        clamped = min(float(timeout), router._max_request_timeout)
        upstream.pending[request_id] = time.monotonic() + clamped + 5.0
        try:
            drained = upstream.send(payload)
        except ServiceBusyError:
            upstream.pending.pop(request_id, None)
            raise
        get_registry().counter("router.forwarded").inc()
        return drained

    async def _connect_and_forward(
        self, shard: int, request: dict, payload: bytes
    ) -> None:
        try:
            upstream = await self._connect(shard)
            drained = self._forward(upstream, request, payload)
            if drained is not None:
                await drained
        except asyncio.CancelledError:
            raise
        except Exception as error:
            self._refuse(reply_id(request), error)

    def _refuse(self, request_id: int, error: Exception) -> None:
        if isinstance(error, ServiceBusyError):
            get_registry().counter("router.busy").inc()
        self.send_frames([error_frame(request_id, error)])

    def _live_upstream(self, shard: int) -> Optional[_Upstream]:
        """The open pipe to ``shard``, or None when one must be opened;
        raises BUSY while the shard restarts."""
        link = self.server._links[shard]
        if not link.up:
            raise ServiceBusyError(f"shard {shard} is restarting; retry")
        upstream = self._upstreams.get(shard)
        if upstream is not None and (
            upstream.dead or upstream.generation != link.generation
        ):
            upstream.close()
            del self._upstreams[shard]
            upstream = None
        return upstream

    async def _connect(self, shard: int) -> _Upstream:
        link = self.server._links[shard]
        try:
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(
                    self.server.supervisor.host,
                    self.server.supervisor.port(link.index),
                ),
                5.0,
            )
        except (OSError, ConnectionError, asyncio.TimeoutError, ReproError) as error:
            self.server._shard_trouble(link)
            raise ServiceBusyError(
                f"shard {shard} unavailable ({error}); retry"
            ) from None
        upstream = _Upstream(self, link, reader, writer)
        self._upstreams[shard] = upstream
        upstream.start()
        return upstream

    async def _broadcast(self, kind: str, request: dict) -> None:
        request_id = reply_id(request)
        try:
            responses = await self.server._fanout(kind, request)
            merged = self.server._merge_broadcast(kind, responses)
            merged.update({"v": PROTOCOL_VERSION, "id": request_id, "ok": True})
            self.send_frames([merged])
        except asyncio.CancelledError:
            raise
        except Exception as error:
            self.send_frames([error_frame(request_id, error)])


class ShardCluster:
    """Workers + router in one call — the shard-per-core deployment.

    ``documents`` maps name → serialised XML; each lands on the shard
    the persisted :class:`ShardMap` assigns it.  The cluster owns both
    halves: ``close()`` drains the router, then quits the workers
    (their own drains wait out session tickets, so everything
    acknowledged is durable on disk before this returns).

    ::

        with ShardCluster(directory, {"a.xml": "<log/>"}, shards=4) as cluster:
            host, port = cluster.address
            ...any protocol client...
    """

    def __init__(
        self,
        directory: str,
        documents: dict[str, str],
        shards: Optional[int] = None,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        dtd_text: Optional[str] = None,
        start_timeout: float = 60.0,
        router_options: Optional[dict] = None,
        **worker_options,
    ) -> None:
        self.supervisor = ShardSupervisor(
            directory,
            documents,
            shards,
            dtd_text=dtd_text,
            start_timeout=start_timeout,
            **worker_options,
        )
        self.router = ShardRouter(
            self.supervisor,
            host,
            port,
            own_supervisor=True,
            **(router_options or {}),
        )

    def start(self) -> "ShardCluster":
        self.supervisor.start()
        self.router.start()
        return self

    @property
    def address(self) -> tuple[str, int]:
        return self.router.address

    @property
    def shards(self) -> int:
        return self.supervisor.shards

    def close(self, timeout: Optional[float] = 30.0) -> int:
        return self.router.close(timeout)

    def __enter__(self) -> "ShardCluster":
        return self.start()

    def __exit__(self, exc_type, exc_value, tb) -> None:
        self.close()
