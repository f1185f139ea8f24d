"""Benchmark-side tracing: spans around each layer's public entry points.

The program carries no spans of its own that the benchmark relies on;
this module wraps a fixed table of callables *from the outside* (class
methods are patched on the class, module functions wherever the name is
bound — the defining module and every ``from x import f`` copy under
``repro``) and records one span per call: name, start, end, parent (a
per-thread stack) and the request id taken from the frame at
``Dispatcher.dispatch``.  Spans stay in memory until :func:`dump`.

Reading the numbers
-------------------
*Self time* of a span is its duration minus the part its child spans
cover, so self times add up: the per-layer ``*_ms_per_op`` metrics are
sums of self time and can be compared with the client-observed latency.

A span started on another thread on behalf of a request (the service's
query pool) is adopted by the ``UpdateService.query`` span that caused
it.  Committer-thread work cannot have one parent — a batch and its
fsync serve many requests — so each ``GroupCommitBatcher._commit`` is a
root span carrying the batch's operation count.

The table degrades, never crashes: a target that no longer exists is
listed in :data:`absent` with one warning line, and the metrics fed
only by absent targets are reported as absent.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Optional

#: (span name, module, attribute path).  Several targets may share a
#: span name: they are one layer entry point seen from different sides.
WRAP_TABLE: list[tuple[str, str, str]] = [
    ("xmlmodel.parse", "repro.xmlmodel.parser", "XmlParser.parse"),
    ("xmlmodel.serialize", "repro.xmlmodel.serializer", "serialize"),
    ("xquery.parse", "repro.xquery.cache", "parse_cached"),
    ("xquery.execute", "repro.xquery.engine", "XQueryEngine.execute"),
    ("updates.diff", "repro.updates.delta", "diff"),
    ("updates.apply", "repro.updates.delta", "apply_delta"),
    ("relational.store", "repro.relational.store", "XmlStore.query"),
    ("relational.store", "repro.relational.store", "XmlStore.execute"),
    ("relational.store", "repro.relational.store", "XmlStore.delete_subtrees"),
    ("relational.store", "repro.relational.store", "XmlStore.copy_subtrees"),
    ("relational.store", "repro.relational.update_translate", "UpdateTranslator.execute_update"),
    ("relational.sql", "repro.relational.database", "Database.execute"),
    ("relational.sql", "repro.relational.database", "Database.executemany"),
    ("relational.sql", "repro.relational.database", "Database.executescript"),
    ("relational.sql", "repro.relational.database", "Database.query"),
    ("relational.sql", "repro.relational.database", "Database.query_one"),
    ("relational.sql", "repro.relational.database", "Database.read_query"),
    ("relational.pool.refresh", "repro.relational.pool", "ReaderPool._refresh"),
    ("relational.reconstruct", "repro.relational.outer_union", "reconstruct_elements"),
    ("relational.commit", "repro.relational.database", "Database.commit"),
    ("service.ops.codec", "repro.service.ops", "encode_op"),
    ("service.ops.codec", "repro.service.ops", "decode_op"),
    ("service.ops.codec", "repro.service.ops", "op_to_dict"),
    ("service.ops.codec", "repro.service.ops", "op_from_dict"),
    ("service.batcher.commit", "repro.service.batcher", "GroupCommitBatcher._commit"),
    ("service.batcher.ticket_wait", "repro.service.batcher", "Ticket.wait"),
    ("service.wal.append", "repro.service.wal", "WriteAheadLog.append"),
    ("service.wal.sync", "repro.service.wal", "WriteAheadLog.sync"),
    ("service.locks.read", "repro.service.locks", "ReadWriteLock.acquire_read"),
    ("service.locks.write", "repro.service.locks", "ReadWriteLock.acquire_write"),
    ("service.server.write", "repro.service.server", "UpdateService.submit"),
    ("service.server.write", "repro.service.server", "UpdateService.submit_wait"),
    ("service.server.write", "repro.service.server", "UpdateService._apply_batch"),
    ("service.server.write", "repro.service.server", "DocumentHost.apply"),
    ("service.server.write", "repro.service.server", "StoreHost.apply"),
    ("service.server.write", "repro.service.server", "StoreHost.commit"),
    ("service.server.query", "repro.service.server", "UpdateService.query"),
    ("service.net.handlers.dispatch", "repro.service.net.handlers", "Dispatcher.dispatch"),
    ("service.net.handlers.query", "repro.service.net.handlers", "run_statement_query"),
    ("service.net.core.codec", "repro.service.net.core", "encode_frame"),
    ("service.net.core.codec", "repro.service.net.core", "decode_frame_payload"),
    ("service.net.core.codec", "repro.service.net.core", "split_response"),
]

# A span is a list: [id, name, start, end, parent id, request id,
# count, op class].  ``count`` is the batch's operation count on a
# commit root and the frame's byte count on a codec span; ``op class``
# ("read" / "write") is set on root spans only.
_ID, _NAME, _START, _END, _PARENT, _RID, _COUNT, _CLASS = range(8)

_ids = itertools.count(1)
_local = threading.local()
_threads: list[list] = []
_threads_lock = threading.Lock()

#: Targets of :data:`WRAP_TABLE` that did not resolve at :func:`install`.
absent: list[str] = []


def _stack() -> list:
    try:
        return _local.stack
    except AttributeError:
        _local.stack = []
        _local.spans = []
        with _threads_lock:
            _threads.append(_local.spans)
        return _local.stack


def _open(name: str) -> list:
    stack = _stack()
    parent = stack[-1] if stack else None
    span = [
        next(_ids), name, 0.0, 0.0,
        parent[_ID] if parent else 0,
        parent[_RID] if parent else 0,
        0, None,
    ]
    stack.append(span)
    span[_START] = time.perf_counter()
    return span


def _close(span: list) -> None:
    span[_END] = time.perf_counter()
    _local.stack.pop()
    _local.spans.append(span)


class root:
    """An explicit root span (``lib_main`` wraps each cycle step)."""

    def __init__(self, name: str, op_class: str) -> None:
        self._name, self._class = name, op_class

    def __enter__(self) -> None:
        self._span = _open(self._name)
        self._span[_CLASS] = self._class

    def __exit__(self, *exc_info) -> None:
        _close(self._span)


Hook = Optional[Callable[..., None]]


def _wrap(name: str, original: Callable, enter: Hook = None, leave: Hook = None) -> Callable:
    """One span per call; ``enter(span, args)`` and ``leave(span, args,
    result)`` annotate it (``result`` is None when the call raised)."""

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        span = _open(name)
        result = None
        try:
            if enter is not None:
                enter(span, args)
            result = original(*args, **kwargs)
            return result
        finally:
            if leave is not None:
                leave(span, args, result)
            _close(span)

    return wrapper


def _enter_dispatch(span: list, args: tuple) -> None:
    """Request root (``dispatch(self, session, request)``): the span is
    named by request kind and carries the frame's id."""
    request = args[2]
    span[_NAME] = f"{span[_NAME]}:{request.get('op')}"
    span[_RID] = request.get("id", 0)


def _leave_dispatch(span: list, args: tuple, response: Any) -> None:
    kind = args[2].get("op")
    writes = kind in ("submit", "submit_wait") or (
        kind == "execute" and isinstance(response, dict) and "seq" in response
    )
    span[_CLASS] = "write" if writes else "read"


def _enter_commit(span: list, args: tuple) -> None:
    """Committer-thread root (``_commit(self, batch)``): one span per
    batch, carrying its size."""
    span[_COUNT] = len(args[1])
    span[_CLASS] = "write"


def _adopting_query(name: str, original: Callable) -> Callable:
    """``UpdateService.query`` runs its work on a pool thread; hand the
    caller's span over so the work's spans become its children."""

    @functools.wraps(original)
    def wrapper(self, doc, work=None, *args, **kwargs):
        span = _open(name)
        if work is None:
            inner: Callable = lambda host: host.serialize()  # noqa: E731
        elif callable(work):
            inner = work
        else:
            inner = None

        def adopted(host):
            stack = _stack()
            stack.append(span)
            try:
                return inner(host)
            finally:
                stack.pop()

        try:
            return original(
                self, doc, adopted if inner is not None else work, *args, **kwargs
            )
        finally:
            _close(span)

    return wrapper


def _frame_out(span: list, args: tuple, frame: Any) -> None:
    span[_COUNT] = len(frame or b"")


def _frame_in(span: list, args: tuple, result: Any) -> None:
    span[_COUNT] = len(args[0]) + 4  # the length prefix


#: attribute path -> keyword arguments of :func:`_wrap`.
_HOOKS: dict[str, dict[str, Callable]] = {
    "Dispatcher.dispatch": {"enter": _enter_dispatch, "leave": _leave_dispatch},
    "GroupCommitBatcher._commit": {"enter": _enter_commit},
    "encode_frame": {"leave": _frame_out},
    "decode_frame_payload": {"leave": _frame_in},
}


def install() -> None:
    """Patch every resolvable target of :data:`WRAP_TABLE` (once)."""
    import repro.service  # noqa: F401 — binds every ``from x import f`` copy

    for name, module_name, path in WRAP_TABLE:
        try:
            module = importlib.import_module(module_name)
            owner: Any = module
            *parents, attribute = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            original = getattr(owner, attribute)
        except (ImportError, AttributeError):
            absent.append(f"{module_name}.{path}")
            print(
                f"perf.trace: warning: {module_name}.{path} not found; "
                f"{name} is reported absent",
                file=sys.stderr,
            )
            continue
        if path == "UpdateService.query":
            wrapper = _adopting_query(name, original)
        else:
            wrapper = _wrap(name, original, **_HOOKS.get(path, {}))
        if parents:
            setattr(owner, attribute, wrapper)
            continue
        for other in list(sys.modules.values()):
            if getattr(other, "__name__", "").startswith("repro") and (
                getattr(other, attribute, None) is original
            ):
                setattr(other, attribute, wrapper)


def mark() -> None:
    """Forget everything recorded so far (start of a measured segment)."""
    with _threads_lock:
        for spans in _threads:
            del spans[:]


def dump(path: str) -> dict:
    """Aggregate every finished span since the last :func:`mark`, write
    the totals and the first spans to ``path``, and return the totals
    with the :data:`absent` list (what the runner needs)."""
    with _threads_lock:
        spans = [span for thread_spans in _threads for span in list(thread_spans)]
    result = {"totals": aggregate(spans), "absent": absent}
    with open(path, "w") as handle:
        json.dump({**result, "spans": spans[:20000]}, handle)
    return result


def aggregate(spans: list[list]) -> dict:
    """Per span name: calls, inclusive and self seconds, the summed
    ``count`` field, duration x count (for per-batch weighting), and
    the operation classes of the roots the spans ran under."""
    by_id = {span[_ID]: span for span in spans}
    covered: dict[int, float] = defaultdict(float)
    for span in spans:
        if span[_PARENT] in by_id:
            covered[span[_PARENT]] += span[_END] - span[_START]
    totals: dict[str, dict] = {}
    for span in spans:
        duration = span[_END] - span[_START]
        entry = totals.setdefault(
            span[_NAME],
            {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "count": 0,
             "weighted_s": 0.0, "classes": []},
        )
        entry["calls"] += 1
        entry["incl_s"] += duration
        entry["self_s"] += max(0.0, duration - covered[span[_ID]])
        entry["count"] += span[_COUNT]
        entry["weighted_s"] += duration * span[_COUNT]
        top = span
        while top[_PARENT] in by_id:
            top = by_id[top[_PARENT]]
        op_class = top[_CLASS] or "any"
        if op_class not in entry["classes"]:
            entry["classes"].append(op_class)
    return totals


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------
#: metric -> unit (directions are in BENCHMARK.json).  Times are self
#: time per operation of the class that reaches the layer unless the
#: definition in :func:`layer_metrics` says otherwise.
LAYER_METRICS: dict[str, str] = {
    "xmlmodel.parse_ms_per_op": "ms",
    "xmlmodel.serialize_ms_per_op": "ms",
    "xquery.parse_ms_per_op": "ms",
    "xquery.execute_ms_per_op": "ms",
    "xquery.cache.hit_ratio": "ratio",
    "updates.diff_ms_per_op": "ms",
    "updates.apply_ms_per_op": "ms",
    "relational.translate_ms_per_op": "ms",
    "relational.sql_ms_per_op": "ms",
    "relational.sql_statements_per_op": "count",
    "relational.reconstruct_ms_per_op": "ms",
    "relational.commit_ms_per_op": "ms",
    "relational.plan_cache.hit_ratio": "ratio",
    "relational.pool.refresh_ms_per_commit": "ms",
    "relational.pool.refreshes_per_write": "count",
    "relational.pool.wait_ms_per_read": "ms",
    "relational.shred_s": "s",
    "service.ops.codec_ms_per_op": "ms",
    "service.batcher.wait_ms_per_op": "ms",
    "service.batcher.mean_batch_size": "count",
    "service.batcher.coalesced_per_op": "count",
    "service.wal.append_ms_per_op": "ms",
    "service.wal.fsync_ms_per_commit": "ms",
    "service.wal.fsyncs_per_op": "count",
    "service.wal.bytes_per_op": "B",
    "service.locks.read_wait_ms_per_op": "ms",
    "service.locks.write_wait_ms_per_batch": "ms",
    "service.server.apply_ms_per_op": "ms",
    "service.server.query_ms_per_op": "ms",
    "service.net.handlers.dispatch_ms_per_op": "ms",
    "service.net.handlers.self_ms_per_op": "ms",
    "service.net.handlers.execute_self_ms_per_op": "ms",
    "service.net.core.codec_ms_per_op": "ms",
    "service.net.core.bytes_per_op": "B",
    "service.net.aio.transport_ms_per_op": "ms",
    "service.net.aio.client_cpu_ms_per_op": "ms",
    "service.recovery.replay_s": "s",
    "service.recovery.ops_per_s": "1/s",
    "service.snapshot.checkpoint_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.accounted_ratio": "ratio",
}

#: Value reported for a metric whose every wrap target is absent (a
#: time or a count is never negative, so the sentinel cannot be read as
#: a measurement).
ABSENT = -1.0


def layer_metrics(
    totals: dict,
    missing: list[str],
    registry: dict[str, float],
    samples: dict[str, list[float]],
    client_cpu_s: float,
    setup: dict[str, float],
) -> dict[str, float]:
    """The per-layer table for one traced segment.

    ``totals`` is :func:`aggregate` output from the child, ``missing``
    its :data:`absent` list, ``registry`` the child's metrics-registry
    deltas around the segment (counters, and ``<histogram>.sum``),
    ``samples`` the load generator's latencies of verified reads and
    writes, ``client_cpu_s`` its own CPU time, and ``setup`` the
    launcher's timings of the calls made once.
    """
    reads, writes = len(samples["read"]), len(samples["write"])
    latency_s = sum(samples["read"]) + sum(samples["write"])
    ops = reads + writes
    present = {n for n, m, p in WRAP_TABLE if f"{m}.{p}" not in missing}
    gone = {n for n, _, _ in WRAP_TABLE} - present

    def spans(prefix: str) -> list[dict]:
        return [
            entry for name, entry in totals.items()
            if name == prefix or name.startswith(prefix + ":")
        ]

    def ratio(value: float, base: float) -> float:
        return value / base if base else 0.0

    def self_ms(*names: str, per: Optional[float] = None) -> float:
        """Self milliseconds of the named spans per operation — of the
        classes whose requests reached them, unless ``per`` is given."""
        if all(name.split(":")[0] in gone for name in names):
            return ABSENT
        entries = [entry for name in names for entry in spans(name)]
        if per is None:
            classes = {c for entry in entries for c in entry["classes"]}
            if "any" in classes or classes >= {"read", "write"}:
                per = ops
            else:
                per = reads if "read" in classes else writes
        return ratio(1000.0 * sum(entry["self_s"] for entry in entries), per)

    def incl_s(name: str) -> float:
        return sum(entry["incl_s"] for entry in spans(name))

    batches = registry.get("batcher.batches", 0.0)
    dispatch = "service.net.handlers.dispatch"
    roots = spans(dispatch) + spans("lib")
    root_incl = sum(entry["incl_s"] for entry in roots)
    commit = spans("service.batcher.commit")
    queued_s = incl_s("service.batcher.ticket_wait") - sum(
        entry["weighted_s"] for entry in commit
    )
    statements = registry.get("sql.statements.client", 0.0) + registry.get(
        "sql.statements.trigger", 0.0
    )

    def hit_ratio(prefix: str) -> float:
        hits = registry.get(f"{prefix}.hits", 0.0)
        return ratio(hits, hits + registry.get(f"{prefix}.misses", 0.0))

    return {
        "xmlmodel.parse_ms_per_op": self_ms("xmlmodel.parse"),
        "xmlmodel.serialize_ms_per_op": self_ms("xmlmodel.serialize"),
        "xquery.parse_ms_per_op": self_ms("xquery.parse"),
        "xquery.execute_ms_per_op": self_ms("xquery.execute"),
        "xquery.cache.hit_ratio": hit_ratio("cache.parse"),
        "updates.diff_ms_per_op": self_ms("updates.diff"),
        "updates.apply_ms_per_op": self_ms("updates.apply"),
        # Everything the store and the update translator do themselves:
        # statement translation, plan building, strategy glue.
        "relational.translate_ms_per_op": self_ms("relational.store"),
        "relational.sql_ms_per_op": self_ms("relational.sql"),
        "relational.sql_statements_per_op": ratio(statements, ops),
        "relational.reconstruct_ms_per_op": self_ms("relational.reconstruct"),
        "relational.commit_ms_per_op": self_ms("relational.commit", per=writes),
        "relational.plan_cache.hit_ratio": hit_ratio("cache.plan"),
        "relational.pool.refresh_ms_per_commit": self_ms(
            "relational.pool.refresh", per=batches
        ),
        "relational.pool.refreshes_per_write": ratio(
            registry.get("sql.pool.refreshes", 0.0), writes
        ),
        "relational.pool.wait_ms_per_read": ratio(
            registry.get("sql.pool.wait_ms.sum", 0.0), reads
        ),
        "relational.shred_s": setup.get("shred_s", 0.0),
        "service.ops.codec_ms_per_op": self_ms("service.ops.codec", per=writes),
        # Time a write waited beyond its own batch's commit work: the
        # hand-off to the committer and queueing behind an earlier batch.
        "service.batcher.wait_ms_per_op": (
            ABSENT
            if "service.batcher.ticket_wait" in gone or "service.batcher.commit" in gone
            else ratio(1000.0 * max(0.0, queued_s), writes)
        ),
        "service.batcher.mean_batch_size": ratio(
            registry.get("batcher.ops.applied", 0.0), batches
        ),
        "service.batcher.coalesced_per_op": ratio(
            registry.get("batcher.ops_coalesced", 0.0), writes
        ),
        "service.wal.append_ms_per_op": self_ms("service.wal.append", per=writes),
        "service.wal.fsync_ms_per_commit": self_ms("service.wal.sync", per=batches),
        "service.wal.fsyncs_per_op": ratio(registry.get("wal.fsyncs", 0.0), writes),
        "service.wal.bytes_per_op": ratio(registry.get("wal.bytes", 0.0), writes),
        "service.locks.read_wait_ms_per_op": self_ms("service.locks.read", per=reads),
        "service.locks.write_wait_ms_per_batch": self_ms(
            "service.locks.write", per=batches
        ),
        "service.server.apply_ms_per_op": self_ms("service.server.write", per=writes),
        "service.server.query_ms_per_op": self_ms("service.server.query", per=reads),
        "service.net.handlers.dispatch_ms_per_op": (
            ABSENT if dispatch in gone else ratio(1000.0 * incl_s(dispatch), ops)
        ),
        "service.net.handlers.self_ms_per_op": self_ms(
            dispatch, "service.net.handlers.query", per=ops
        ),
        "service.net.handlers.execute_self_ms_per_op": self_ms(
            f"{dispatch}:execute", per=ops
        ),
        "service.net.core.codec_ms_per_op": self_ms("service.net.core.codec", per=ops),
        "service.net.core.bytes_per_op": ratio(
            sum(entry["count"] for entry in spans("service.net.core.codec")), ops
        ),
        # Socket, event loop and executor hop: what the client saw minus
        # what the dispatcher spent.
        "service.net.aio.transport_ms_per_op": (
            ratio(1000.0 * (latency_s - incl_s(dispatch)), ops)
            if spans(dispatch)
            else 0.0
        ),
        "service.net.aio.client_cpu_ms_per_op": (
            ratio(1000.0 * client_cpu_s, ops) if spans(dispatch) else 0.0
        ),
        "service.recovery.replay_s": setup.get("replay_s", 0.0),
        "service.recovery.ops_per_s": ratio(
            setup.get("replayed_ops", 0.0), setup.get("replay_s", 0.0)
        ),
        "service.snapshot.checkpoint_s": setup.get("checkpoint_s", 0.0),
        "trace.accounted_ratio": (
            1.0 - ratio(sum(entry["self_s"] for entry in roots), root_incl)
        ),
    }
