"""Hierarchical trace spans with monotonic timings and JSON export.

``span("xquery.parse")`` wraps a phase of work.  Two things happen on
every span, traced or not:

* the phase's duration is observed into the ``span.<name>`` histogram
  of the process registry (:mod:`repro.obs.metrics`), so ``python -m
  repro stats`` always has per-phase breakdowns;
* if the global tracer is *capturing* (``serve --trace-out`` etc.), a
  :class:`Span` record is kept, nested under the innermost open span of
  the same thread.

Spans nest per thread: the group-commit thread's ``service.commit``
tree is a separate root from the client thread's ``serve.statement``
tree, which is exactly the concurrency structure worth seeing.
Durations come from ``time.perf_counter`` (monotonic); ``start_unix``
is wall-clock and only for humans reading the export.

Span names follow the metric naming scheme — dotted,
``<layer>.<phase>``: ``xquery.parse``, ``xquery.bind``,
``xquery.execute``, ``sql.translate``, ``sql.execute``,
``service.commit``, ``service.apply``, ``wal.append``, ``wal.fsync``,
``recovery.replay``.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.obs.metrics import get_registry


@dataclass
class Span:
    """One completed (or open) phase of work."""

    name: str
    start_unix: float
    thread: str
    meta: dict = field(default_factory=dict)
    duration: float = 0.0
    children: list["Span"] = field(default_factory=list)

    def to_dict(self) -> dict:
        out: dict = {
            "name": self.name,
            "start_unix": round(self.start_unix, 6),
            "duration_s": round(self.duration, 9),
            "thread": self.thread,
        }
        if self.meta:
            out["meta"] = self.meta
        if self.children:
            out["children"] = [child.to_dict() for child in self.children]
        return out


class Tracer:
    """Collects span trees while capturing; no-op (histograms only) otherwise."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._capturing = False
        self._roots: list[Span] = []

    # ------------------------------------------------------------------
    # Capture lifecycle
    # ------------------------------------------------------------------
    @property
    def capturing(self) -> bool:
        return self._capturing

    def start_capture(self) -> None:
        with self._lock:
            self._capturing = True

    def stop_capture(self) -> None:
        with self._lock:
            self._capturing = False

    def drain(self) -> list[Span]:
        """Remove and return every completed root span collected so far."""
        with self._lock:
            roots, self._roots = self._roots, []
        return roots

    # ------------------------------------------------------------------
    # Span recording
    # ------------------------------------------------------------------
    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **meta) -> Iterator[Optional[Span]]:
        started = time.perf_counter()
        record: Optional[Span] = None
        stack = None
        if self._capturing:
            record = Span(
                name=name,
                start_unix=time.time(),
                thread=threading.current_thread().name,
                meta=dict(meta),
            )
            stack = self._stack()
            stack.append(record)
        try:
            yield record
        finally:
            elapsed = time.perf_counter() - started
            get_registry().histogram(f"span.{name}").observe(elapsed)
            if record is not None and stack is not None:
                record.duration = elapsed
                stack.pop()
                if stack:
                    stack[-1].children.append(record)
                else:
                    with self._lock:
                        self._roots.append(record)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def export(self) -> dict:
        """Drain collected spans into a JSON-serialisable document."""
        return {"spans": [root.to_dict() for root in self.drain()]}

    def write_json(self, path: str) -> int:
        """Drain to ``path``; returns the number of root spans written."""
        document = self.export()
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2)
            handle.write("\n")
        return len(document["spans"])


#: The process-wide tracer used by the ``span()`` convenience function.
_TRACER = Tracer()


def get_tracer() -> Tracer:
    return _TRACER


def span(name: str, **meta):
    """Time a phase: histogram always, trace tree when capturing."""
    return _TRACER.span(name, **meta)
