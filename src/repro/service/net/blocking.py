"""The blocking client: a thread-safe facade over the async client.

:class:`ServiceClient` runs one
:class:`~repro.service.net.aio.AsyncServiceClient` on a private
event-loop thread and forwards each method call to it, blocking the
caller for the result.  Id routing, chunk reassembly, timeouts, ``BUSY``
retry and the typed-error mapping therefore exist once, in the async
client; this module adds only the thread hop.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Coroutine, Optional

from repro.errors import ServiceClosedError
from repro.service.net.aio import AsyncServiceClient, LoopThread
from repro.service.ops import ServiceOp


class ServiceClient:
    """A blocking client for the frame protocol.

    Safe to share across threads *concurrently*: requests from many
    threads ride the one connection at once (a slow ``query`` does not
    block a concurrent ``submit``), and a request that times out
    abandons only itself.  ``close()`` from any thread wakes every
    blocked caller with :class:`~repro.errors.ServiceClosedError`.
    Methods, arguments and errors are those of
    :class:`~repro.service.net.aio.AsyncServiceClient`.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        connect_timeout: float = 5.0,
        request_timeout: float = 30.0,
    ) -> None:
        self._lock = threading.Lock()
        self._closed = False
        self._loop = LoopThread("service-client")
        try:
            self._client: AsyncServiceClient = self._loop.run(
                AsyncServiceClient.connect(
                    host,
                    port,
                    connect_timeout=connect_timeout,
                    request_timeout=request_timeout,
                )
            )
        except BaseException:
            self._loop.stop()
            raise

    def _call(self, method: Callable[..., Coroutine], *args, **kwargs) -> Any:
        # Submission and close() exclude each other, so every request
        # reaches the loop before the close that fails it — none is
        # scheduled onto a loop that will never run it.
        with self._lock:
            if self._closed:
                raise ServiceClosedError("client is closed")
            future = self._loop.submit(method(*args, **kwargs))
        return future.result()

    def ping(self) -> list[str]:
        return self._call(self._client.ping)

    def submit(
        self, op: ServiceOp, *, retries_busy: int = 0, backoff: float = 0.01
    ) -> int:
        return self._call(
            self._client.submit, op, retries_busy=retries_busy, backoff=backoff
        )

    def submit_wait(
        self,
        op: ServiceOp,
        timeout: Optional[float] = None,
        *,
        retries_busy: int = 0,
        backoff: float = 0.01,
    ) -> Optional[int]:
        return self._call(
            self._client.submit_wait,
            op,
            timeout,
            retries_busy=retries_busy,
            backoff=backoff,
        )

    def query(
        self,
        doc: str,
        statement: Optional[str] = None,
        timeout: Optional[float] = None,
    ) -> Any:
        return self._call(self._client.query, doc, statement, timeout)

    def execute(
        self, doc: str, statement: str, timeout: Optional[float] = None
    ) -> dict:
        return self._call(self._client.execute, doc, statement, timeout)

    def flush(self, timeout: Optional[float] = None) -> None:
        self._call(self._client.flush, timeout)

    def checkpoint(self, timeout: Optional[float] = None) -> dict:
        return self._call(self._client.checkpoint, timeout)

    def stats(self) -> dict:
        return self._call(self._client.stats)

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._loop.run(self._client.close())
        self._loop.stop()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()
