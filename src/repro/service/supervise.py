"""Shard worker processes and their supervision.

One Python process is GIL-bound, so the service's write throughput is
capped at roughly one core no matter how well group commit amortises
fsyncs.  The shard-per-core architecture splits the hosted documents
across N *worker* processes — each a full
:class:`~repro.service.server.UpdateService` fronted by an
:class:`~repro.service.net.aio.AsyncNetServer`, with its own WAL and
checkpoint directory under ``shard-<k>/`` — and puts a router
(:mod:`repro.service.router`) in front.  This module owns the process
side of that split:

* :class:`ShardMap` — the stable document→shard hash (blake2b modulo;
  Python's builtin ``hash`` is salted per process and useless across
  a process boundary), persisted in a ``shards.json`` manifest so a
  restarted deployment refuses to silently re-home documents under a
  different shard count.
* :class:`WorkerSpec` / :func:`worker_main` — the picklable description
  of one worker and the ``spawn`` entry point that builds it.  Workers
  always run recovery on startup: a shard that was killed mid-burst
  replays its WAL and comes back with every acknowledged operation
  intact.
* :class:`ShardSupervisor` — spawns the workers, tracks liveness,
  restarts dead shards, and shuts the fleet down (graceful quit over a
  control pipe first, escalating to terminate/kill).

**Port handoff is a file, written atomically.**  A worker binds port 0
and publishes the bound port by writing a temp file and ``os.replace``-ing
it into place (:func:`write_port_file`); the parent polls with a
deadline (:func:`wait_for_port_file`).  The previous CLI idiom — worker
writes with a bare ``open(path, "w")`` while the parent polls
``open()`` — raced: the parent could observe the file created but still
empty (or partially written) and crash on ``int("")``.  An atomic
rename means the file either does not exist yet or holds the complete
port number.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import sys
import time
import traceback
from dataclasses import dataclass
from typing import Optional

from repro.errors import ServiceError, ServiceTimeoutError

#: Manifest file name inside the shard directory.
MANIFEST_NAME = "shards.json"


# ----------------------------------------------------------------------
# Port-file handshake
# ----------------------------------------------------------------------
def write_port_file(path: str, port: int) -> None:
    """Publish ``port`` at ``path`` atomically (temp file + rename).

    A reader either sees no file or the complete contents — never a
    created-but-empty window.  The temp file lives in the same
    directory so the rename cannot cross filesystems.
    """
    path = os.path.abspath(path)
    tmp = os.path.join(
        os.path.dirname(path), f".{os.path.basename(path)}.{os.getpid()}.tmp"
    )
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(f"{port}\n")
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


def wait_for_port_file(
    path: str,
    timeout: float = 30.0,
    *,
    poll_interval: float = 0.05,
    process: Optional[multiprocessing.process.BaseProcess] = None,
) -> int:
    """Wait (with a deadline) for a port published by :func:`write_port_file`.

    Tolerates the file not existing yet; with an atomic writer a file
    that exists is complete.  Raises :class:`ServiceTimeoutError` at the
    deadline, or :class:`ServiceError` immediately if ``process`` (the
    worker expected to publish it) has already exited — no point waiting
    out the full deadline on a corpse.
    """
    deadline = time.monotonic() + timeout
    while True:
        port = _read_port(path)
        if port is not None:
            return port
        if process is not None and not process.is_alive():
            # One last look: it may have published right before dying.
            port = _read_port(path)
            if port is not None:
                return port
            raise ServiceError(
                f"worker exited with code {process.exitcode} before "
                f"publishing its port at {path}"
            )
        if time.monotonic() >= deadline:
            raise ServiceTimeoutError(
                f"no port published at {path} within {timeout}s"
            )
        time.sleep(poll_interval)


def _read_port(path: str) -> Optional[int]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read().strip()
    except OSError:
        return None
    if not text:
        return None
    try:
        return int(text)
    except ValueError:
        return None


# ----------------------------------------------------------------------
# The document → shard map
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ShardMap:
    """A stable modulo hash from document name to shard index.

    The hash must be deterministic across processes and Python versions
    (the builtin ``hash`` is salted per process), *and* it must mix:
    CRC-32 is linear, so sibling names like ``doc-3.xml`` / ``doc-7.xml``
    differ by a fixed XOR pattern and pile onto one shard under modulo
    reduction.  An 8-byte blake2b digest has neither problem.  The map
    is persisted in ``shards.json``; loading a manifest with a
    different shard count than requested is an error, because re-homing
    a document away from the shard whose WAL holds its history would
    silently lose updates.
    """

    shards: int
    algorithm: str = "blake2b64mod"

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ServiceError(f"shard count must be >= 1, got {self.shards}")
        if self.algorithm != "blake2b64mod":
            raise ServiceError(f"unknown shard algorithm {self.algorithm!r}")

    def shard_of(self, doc: str) -> int:
        digest = hashlib.blake2b(doc.encode("utf-8"), digest_size=8).digest()
        return int.from_bytes(digest, "big") % self.shards

    def save(self, path: str) -> None:
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(
                {"version": 1, "algorithm": self.algorithm, "shards": self.shards},
                handle,
            )
            handle.write("\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)

    @classmethod
    def load(cls, path: str) -> "ShardMap":
        try:
            with open(path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except (OSError, ValueError) as error:
            raise ServiceError(f"cannot read shard manifest {path}: {error}") from None
        if not isinstance(data, dict) or not isinstance(data.get("shards"), int):
            raise ServiceError(f"malformed shard manifest {path}")
        return cls(
            shards=data["shards"], algorithm=data.get("algorithm", "blake2b64mod")
        )


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WorkerSpec:
    """Everything a spawned worker needs, as plain picklable values.

    Documents travel as ``(name, serialised-xml)`` pairs because live
    :class:`~repro.xmlmodel.model.Document` trees do not cross a
    ``spawn`` boundary; the worker re-parses them (with the DTD policy,
    when one is given) before recovery.
    """

    index: int
    directory: str
    port_path: str
    documents: tuple[tuple[str, str], ...]
    dtd_text: Optional[str] = None
    host: str = "127.0.0.1"
    batch_size: int = 64
    coalesce_wait: float = 0.0
    queue_limit: int = 1024
    query_workers: int = 2
    readers: int = 0
    checkpoint_every_ops: Optional[int] = None
    checkpoint_every_bytes: Optional[int] = None
    wal_segment_bytes: Optional[int] = None
    max_connections: int = 10_000
    max_inflight: int = 128
    max_request_timeout: float = 30.0

    @property
    def wal_path(self) -> str:
        return os.path.join(self.directory, "shard.wal")


def _start_worker(spec: WorkerSpec):
    """Build the worker's service + async server (in the worker process)."""
    from repro.service.net.aio import AsyncNetServer
    from repro.service.server import ServiceConfig, UpdateService
    from repro.xmlmodel import parse_dtd
    from repro.xmlmodel.parser import XmlParser
    from repro.xmlmodel.policy import RefPolicy

    os.makedirs(spec.directory, exist_ok=True)
    policy = None
    if spec.dtd_text:
        policy = RefPolicy.from_dtd(parse_dtd(spec.dtd_text))
    service = UpdateService(
        ServiceConfig(
            wal_path=spec.wal_path,
            batch_size=spec.batch_size,
            coalesce_wait=spec.coalesce_wait,
            queue_limit=spec.queue_limit,
            query_workers=spec.query_workers,
            readers=spec.readers,
            checkpoint_every_ops=spec.checkpoint_every_ops,
            checkpoint_every_bytes=spec.checkpoint_every_bytes,
            wal_segment_bytes=spec.wal_segment_bytes,
        )
    )
    for name, text in spec.documents:
        service.host_document(name, XmlParser(text, policy=policy).parse(), policy)
    # Always recover: a restarted shard replays its WAL, which is what
    # makes acknowledged operations survive a kill -9.
    service.recover()
    service.start()
    server = AsyncNetServer(
        service,
        spec.host,
        0,
        own_service=True,
        max_connections=spec.max_connections,
        max_inflight=spec.max_inflight,
        max_request_timeout=spec.max_request_timeout,
    ).start()
    return server


def worker_main(spec: WorkerSpec, control) -> int:
    """Spawn entry point: serve one shard until told to quit.

    ``control`` is the supervisor's end of a pipe; a ``"quit"`` message
    (or the pipe closing because the supervisor died) triggers a
    graceful drain — the async server finishes in-flight dispatches and
    waits out session tickets, so everything acknowledged is durable
    before the process exits.
    """
    try:
        server = _start_worker(spec)
    except BaseException:
        traceback.print_exc()
        return 1
    write_port_file(spec.port_path, server.address[1])
    try:
        while True:
            try:
                if control.poll(0.5):
                    if control.recv() == "quit":
                        return 0
            except (EOFError, OSError):
                return 0
    finally:
        server.close()


# ----------------------------------------------------------------------
# Supervisor
# ----------------------------------------------------------------------
class ShardSupervisor:
    """Spawns, watches, restarts, and stops the shard worker fleet.

    The supervisor is deliberately transport-blind: it deals in
    processes and port files.  The router decides *when* to restart
    (its health loop pings workers and watches upstream connections)
    and calls :meth:`restart`; recovery inside the respawned worker
    replays the shard's WAL.
    """

    def __init__(
        self,
        directory: str,
        documents: dict[str, str],
        shards: Optional[int] = None,
        *,
        dtd_text: Optional[str] = None,
        host: str = "127.0.0.1",
        start_timeout: float = 60.0,
        **worker_options,
    ) -> None:
        self.directory = os.path.abspath(directory)
        os.makedirs(self.directory, exist_ok=True)
        manifest_path = os.path.join(self.directory, MANIFEST_NAME)
        if os.path.exists(manifest_path):
            self.map = ShardMap.load(manifest_path)
            if shards is not None and shards != self.map.shards:
                raise ServiceError(
                    f"shard directory {self.directory} was laid out for "
                    f"{self.map.shards} shard(s); re-sharding to {shards} "
                    "would re-home documents away from their WALs"
                )
        else:
            if shards is None:
                raise ServiceError(
                    f"no manifest at {manifest_path}; a shard count is required"
                )
            self.map = ShardMap(shards)
        self.map.save(manifest_path)
        self.host = host
        self._start_timeout = start_timeout
        self._documents = dict(documents)
        self._specs = [
            WorkerSpec(
                index=k,
                directory=os.path.join(self.directory, f"shard-{k}"),
                port_path=os.path.join(self.directory, f"shard-{k}.port"),
                documents=tuple(
                    (name, documents[name])
                    for name in sorted(documents)
                    if self.map.shard_of(name) == k
                ),
                dtd_text=dtd_text,
                host=host,
                **worker_options,
            )
            for k in range(self.map.shards)
        ]
        # fork would duplicate this process's threads (event loops,
        # executors) into the children; spawn starts clean.
        self._ctx = multiprocessing.get_context("spawn")
        self._procs: list[Optional[multiprocessing.process.BaseProcess]] = [
            None
        ] * self.map.shards
        self._pipes: list[Optional[object]] = [None] * self.map.shards
        self._ports: list[Optional[int]] = [None] * self.map.shards
        self._stopped = False

    # ------------------------------------------------------------------
    @property
    def shards(self) -> int:
        return self.map.shards

    @property
    def documents(self) -> list[str]:
        return sorted(self._documents)

    def shard_of(self, doc: str) -> int:
        return self.map.shard_of(doc)

    def port(self, index: int) -> int:
        port = self._ports[index]
        if port is None:
            raise ServiceError(f"shard {index} has not published a port")
        return port

    def alive(self, index: int) -> bool:
        proc = self._procs[index]
        return proc is not None and proc.is_alive()

    # ------------------------------------------------------------------
    def start(self) -> "ShardSupervisor":
        for k in range(self.shards):
            self._spawn(k)
        for k in range(self.shards):
            self._await_port(k)
        return self

    def _spawn(self, index: int) -> None:
        spec = self._specs[index]
        try:
            os.unlink(spec.port_path)
        except FileNotFoundError:
            pass
        parent_end, child_end = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=worker_main,
            args=(spec, child_end),
            name=f"shard-{index}",
            daemon=True,
        )
        proc.start()
        child_end.close()
        self._procs[index] = proc
        self._pipes[index] = parent_end

    def _await_port(self, index: int) -> None:
        self._ports[index] = wait_for_port_file(
            self._specs[index].port_path,
            timeout=self._start_timeout,
            process=self._procs[index],
        )

    # ------------------------------------------------------------------
    def restart(self, index: int) -> int:
        """Respawn one shard (recovery replays its WAL); returns the
        new port.  Safe to call whether the old process is dead, hung,
        or still healthy (it is quit/terminated first)."""
        proc = self._procs[index]
        if proc is not None:
            if proc.is_alive():
                self._send_quit(index)
                proc.join(5.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(5.0)
            if proc.is_alive():
                proc.kill()
                proc.join(5.0)
        self._close_pipe(index)
        self._spawn(index)
        self._await_port(index)
        return self._ports[index]

    def kill(self, index: int) -> None:
        """SIGKILL one worker (fault injection for tests — the process
        gets no chance to flush or drain)."""
        proc = self._procs[index]
        if proc is not None and proc.is_alive():
            proc.kill()
            proc.join(10.0)

    # ------------------------------------------------------------------
    def stop(self, timeout: float = 30.0) -> None:
        """Quit every worker gracefully, escalating at the deadline."""
        if self._stopped:
            return
        self._stopped = True
        deadline = time.monotonic() + timeout
        for k in range(self.shards):
            self._send_quit(k)
        for k, proc in enumerate(self._procs):
            if proc is None:
                continue
            proc.join(max(0.1, deadline - time.monotonic()))
            if proc.is_alive():
                proc.terminate()
                proc.join(2.0)
            if proc.is_alive():
                proc.kill()
                proc.join(2.0)
            self._close_pipe(k)
            self._procs[k] = None

    def _send_quit(self, index: int) -> None:
        pipe = self._pipes[index]
        if pipe is None:
            return
        try:
            pipe.send("quit")
        except (OSError, ValueError, BrokenPipeError):
            pass

    def _close_pipe(self, index: int) -> None:
        pipe = self._pipes[index]
        if pipe is not None:
            try:
                pipe.close()
            except OSError:
                pass
            self._pipes[index] = None

    def __enter__(self) -> "ShardSupervisor":
        return self.start()

    def __exit__(self, exc_type, exc_value, tb) -> None:
        self.stop()


if __name__ == "__main__":  # pragma: no cover
    print("this module is a library; use `python -m repro serve --shards N`",
          file=sys.stderr)
    raise SystemExit(2)
