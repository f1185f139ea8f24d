"""Request dispatch: one request frame in, one response frame out.

A :class:`Dispatcher` owns everything about a request that does not
depend on the transport: version and shape validation, the
per-request monotonic deadline (clamped to the server's ceiling), the
per-connection in-flight admission bound, payload decoding through the
WAL codec, and the handler for each request kind.  What a request
*does* belongs to the service: ``query`` runs
:func:`~repro.service.server.run_statement_query` and ``execute`` starts
the statement work that :meth:`UpdateService.execute
<repro.service.server.UpdateService.execute>`, the ``serve`` console's
call, waits for.

``dispatch(session, request)`` runs on the server's event loop, never
blocks it, and never returns a coroutine.  It returns the complete
response frame when the answer is at hand, or a :class:`Pending`
record when a thread still has work to do: the request id, the
handler's :class:`Deferred` and the request's deadline.  The
connection (:class:`~repro.service.net.aio.AsyncNetServer`'s) answers
a pending request from a done-callback on its future or from a timer at
its deadline, whichever fires first, and sends whatever frames
:func:`~repro.service.net.core.split_response` derives from the answer.
Per kind, counted as hand-offs between the loop and another thread:

* ``ping``, ``stats`` and ``submit`` are answered on the loop: **0**.
* ``submit_wait`` is admitted on the loop (``submit(op, timeout=0)``:
  a full queue answers retryable ``BUSY``) and answered when the
  committer resolves its ticket; ``query`` hands its work to the
  service's query pool and is answered when that future resolves;
  ``execute`` parses its statement on the loop (as ``submit`` decodes
  its payload there) and then does one or the other through
  :meth:`UpdateService.execute_future
  <repro.service.server.UpdateService.execute_future>` — an update is
  admitted like ``submit_wait``, so a full queue answers ``BUSY`` at
  once, and a read goes to the query pool with the parsed statement:
  **2** each (loop → the working thread → loop, the second through one
  ``call_soon_threadsafe``).
* ``flush`` and ``checkpoint`` block a thread by nature (the batcher
  barrier, the checkpoint capture), so their handlers run unchanged on
  the loop's default executor, whose asyncio future needs no hop back.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import Future
from typing import Callable, NamedTuple, Optional, TypeVar, Union

from repro.errors import (
    ProtocolError,
    ReproError,
    ServiceBusyError,
    ServiceError,
    ServiceTimeoutError,
)
from repro.obs import get_registry
from repro.service.net.core import (
    PROTOCOL_VERSION,
    check_envelope,
    error_frame,
    reply_id,
)
from repro.service.ops import (
    DeltaUpdate,
    ServiceOp,
    SubtreeCopy,
    SubtreeDelete,
    op_from_dict,
)
from repro.service.server import UpdateService, run_statement_query
from repro.service.session import Session

T = TypeVar("T")


class Deferred(NamedTuple):
    """A handler's answer that another thread is still computing: the
    body is ``{key: <future's value>}``, or the value itself when
    ``key`` is None."""

    future: Union[Future, asyncio.Future]
    key: Optional[str] = None


class Pending(NamedTuple):
    """A request :meth:`Dispatcher.dispatch` could not answer at once:
    its id, the handler's :class:`Deferred`, and its monotonic
    deadline (the clock of ``time.monotonic``)."""

    request_id: int
    deferred: Deferred
    deadline: float

    def response(self) -> dict:
        """The response frame, once the deferred future is done."""
        future = self.deferred.future
        if future.cancelled():
            return error_frame(self.request_id, ServiceError("request cancelled"))
        error = future.exception()
        if error is not None:
            return error_frame(self.request_id, error)
        value = future.result()
        key = self.deferred.key
        return _ok(self.request_id, value if key is None else {key: value})

    def expired(self) -> dict:
        """The response frame when the deadline passes first.  The caller
        cancels the future: a query still queued never runs; a ticket's
        future cannot be cancelled, so the operation still commits."""
        return error_frame(self.request_id, ServiceTimeoutError("request deadline passed"))


def _ok(request_id: int, body: dict) -> dict:
    body.update({"v": PROTOCOL_VERSION, "id": request_id, "ok": True})
    return body


def _on_executor(handler: Callable) -> Callable:
    """Run a blocking handler on the loop's default executor."""

    def deferred(self, session, request, deadline) -> Deferred:
        loop = asyncio.get_running_loop()
        return Deferred(
            loop.run_in_executor(None, handler, self, session, request, deadline)
        )

    return deferred


class Dispatcher:
    """Protocol-level request handling over one :class:`UpdateService`.

    ``net_info`` supplies the serving transport's section of the
    ``stats`` response (connection counts and limits live in the
    server, not here).
    """

    def __init__(
        self,
        service: UpdateService,
        *,
        max_inflight: int = 64,
        max_request_timeout: float = 30.0,
        net_info: Optional[Callable[[], dict]] = None,
    ) -> None:
        self.service = service
        self.max_inflight = max_inflight
        self.max_request_timeout = max_request_timeout
        self._net_info = net_info or (lambda: {})

    # ------------------------------------------------------------------
    def dispatch(self, session: Session, request: dict) -> Union[dict, Pending]:
        """One request frame → its response frame, or the
        :class:`Pending` record of a request another thread is still
        answering (call on the event loop)."""
        request_id = reply_id(request)
        try:
            check_envelope(request)
            kind = request.get("op")
            handler = self._HANDLERS.get(kind)
            if handler is None:
                raise ProtocolError(f"unknown request kind {kind!r}")
            deadline = self._deadline(request)
            result = handler(self, session, request, deadline)
        except Exception as error:
            return error_frame(request_id, error)
        if isinstance(result, Deferred):
            return Pending(request_id, result, deadline)
        return _ok(request_id, result)

    def _deadline(self, request: dict) -> float:
        """The request's single monotonic deadline, clamped to the
        server's ceiling; every blocking step draws from it."""
        timeout = request.get("timeout")
        limit = self.max_request_timeout
        if not isinstance(timeout, (int, float)) or timeout <= 0:
            timeout = limit
        return time.monotonic() + min(float(timeout), limit)

    @staticmethod
    def _remaining(deadline: float) -> float:
        return max(0.0, deadline - time.monotonic())

    def _decode_payload(self, request: dict) -> ServiceOp:
        payload = request.get("payload")
        if not isinstance(payload, dict):
            raise ProtocolError("submit needs a 'payload' object")
        try:
            op = op_from_dict(payload)
        except ReproError as error:
            raise ProtocolError(f"bad operation payload: {error}") from None
        if not isinstance(op, (DeltaUpdate, SubtreeDelete, SubtreeCopy)):
            raise ProtocolError(
                f"{type(op).__name__} records cannot be submitted by clients"
            )
        return op

    def _admit(self, session: Session) -> None:
        if session.pending >= self.max_inflight:
            raise ServiceBusyError(
                f"connection has {session.pending} operations in flight "
                f"(limit {self.max_inflight}); retry after a flush"
            )

    # -- request kinds -------------------------------------------------
    def _op_ping(self, session: Session, request: dict, deadline: float) -> dict:
        return {"pong": True, "documents": self.service.documents}

    @staticmethod
    def _enqueue(submit: Callable[[], T]) -> T:
        """Queue without waiting (the caller passes ``timeout=0``): a
        full batcher queue rejects now with retryable BUSY instead of
        blocking the event loop on it."""
        try:
            return submit()
        except ServiceTimeoutError:
            raise ServiceBusyError(
                "submission queue is full; back off and retry"
            ) from None

    def _op_submit(self, session: Session, request: dict, deadline: float) -> dict:
        op = self._decode_payload(request)
        self._admit(session)
        self._enqueue(lambda: session.submit(op.doc, op, timeout=0.0))
        return {"queued": True, "pending": session.pending}

    def _op_submit_wait(
        self, session: Session, request: dict, deadline: float
    ) -> Deferred:
        op = self._decode_payload(request)
        self._admit(session)
        ticket = self._enqueue(lambda: self.service.submit(op, timeout=0.0))
        return Deferred(ticket.future, "seq")

    def _op_query(self, session: Session, request: dict, deadline: float) -> Deferred:
        doc = request.get("doc")
        if not isinstance(doc, str):
            raise ProtocolError("query needs a 'doc' string")
        statement = request.get("statement")
        if statement is None:
            work, key = None, "text"
        elif isinstance(statement, str):
            work, key = (lambda host: run_statement_query(host, statement)), "results"
        else:
            raise ProtocolError("'statement' must be a string when present")
        future = self.service.query_future(doc, work, timeout=self._remaining(deadline))
        return Deferred(future, key)

    def _op_execute(self, session: Session, request: dict, deadline: float) -> Deferred:
        doc = request.get("doc")
        statement = request.get("statement")
        if not isinstance(doc, str) or not isinstance(statement, str):
            raise ProtocolError("execute needs 'doc' and 'statement' strings")
        future = self._enqueue(
            lambda: self.service.execute_future(
                doc, statement, self._remaining(deadline), admit_timeout=0.0
            )
        )
        return Deferred(future)

    def _op_flush(self, session: Session, request: dict, deadline: float) -> dict:
        self.service.flush(timeout=self._remaining(deadline))
        return {"flushed": True}

    def _op_checkpoint(
        self, session: Session, request: dict, deadline: float
    ) -> dict:
        report = self.service.checkpoint(timeout=self._remaining(deadline))
        return {
            "wal_seq": report.wal_seq,
            "documents": report.documents,
            "segments_retired": report.segments_retired,
            "bytes_retired": report.bytes_retired,
        }

    def _op_stats(self, session: Session, request: dict, deadline: float) -> dict:
        return {
            "service": self.service.stats(),
            "net": self._net_info(),
            "metrics": get_registry().snapshot(),
        }

    _HANDLERS: dict[
        str, Callable[["Dispatcher", Session, dict, float], Union[dict, Deferred]]
    ] = {
        "ping": _op_ping,
        "submit": _op_submit,
        "submit_wait": _op_submit_wait,
        "query": _op_query,
        "execute": _op_execute,
        "flush": _on_executor(_op_flush),
        "checkpoint": _on_executor(_op_checkpoint),
        "stats": _op_stats,
    }
