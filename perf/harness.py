"""Child processes, ``/proc`` accounting, the closed-loop load generator
and the small statistics the runner needs.

Every program under test runs in its own child process started from a
``perf/`` launcher; this process only generates load, so the server
never shares a GIL with the generator.  Children are driven over a
line protocol on stdin/stdout: one command per line in, one JSON object
per line out.
"""

from __future__ import annotations

import asyncio
import json
import os
import platform
import sqlite3
import statistics
import sys
import time
from pathlib import Path
from typing import Awaitable, Callable, Optional

from repro.errors import ReproError

PERF = Path(__file__).resolve().parent
OUT = PERF / "out"


def reply(message: dict) -> None:
    """A launcher's answer to the runner: one JSON object on one line."""
    sys.stdout.write(json.dumps(message) + "\n")
    sys.stdout.flush()


class ChildError(RuntimeError):
    """A launcher exited or went silent when a reply was due."""


class Child:
    """One program under test, in its own process."""

    def __init__(self, process: asyncio.subprocess.Process) -> None:
        self.process = process
        self.pid = process.pid

    @classmethod
    async def spawn(cls, script: str, *args: object) -> "Child":
        # A fixed hash seed keeps dict and set layout — and with it the
        # interpreter's speed — the same from one child to the next.  One
        # malloc arena does the same for peak RSS: glibc gives each new
        # thread an arena of its own, and how many executor threads a
        # server starts, and which of them first touches a database
        # image, is a matter of timing (4 MiB of 50 on svc_store_mix).
        env = dict(os.environ, PYTHONHASHSEED="0", MALLOC_ARENA_MAX="1")
        process = await asyncio.create_subprocess_exec(
            sys.executable, str(PERF / script), *(str(arg) for arg in args),
            stdin=asyncio.subprocess.PIPE, stdout=asyncio.subprocess.PIPE,
            env=env, limit=1 << 26,
        )
        return cls(process)

    async def read(self, timeout: float = 60.0) -> dict:
        try:
            line = await asyncio.wait_for(self.process.stdout.readline(), timeout)
        except asyncio.TimeoutError:
            raise ChildError(f"child {self.pid} sent nothing for {timeout}s") from None
        if not line:
            raise ChildError(f"child {self.pid} exited without replying")
        reply = json.loads(line)
        if "error" in reply:
            raise ChildError(f"child {self.pid}: {reply['error']}")
        return reply

    async def call(self, command: str, timeout: float = 60.0) -> dict:
        self.process.stdin.write(command.encode() + b"\n")
        await self.process.stdin.drain()
        return await self.read(timeout)

    def cpu_s(self) -> float:
        """CPU seconds the child's live threads have run so far
        (``schedstat`` counts nanoseconds; ``stat`` only 10 ms ticks)."""
        tasks = Path(f"/proc/{self.pid}/task")
        return sum(
            int((task / "schedstat").read_text().split()[0]) for task in tasks.iterdir()
        ) / 1e9

    def peak_rss_mib(self) -> float:
        for line in Path(f"/proc/{self.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise ChildError(f"no VmHWM for child {self.pid}")

    async def stop(self) -> dict:
        """Graceful quit; the child is gone when this returns."""
        try:
            reply = await self.call("quit", 60.0)
            await asyncio.wait_for(self.process.wait(), 30.0)
            return reply
        finally:
            await self.kill()

    async def kill(self) -> None:
        if self.process.returncode is None:
            self.process.kill()
            await self.process.wait()


# ----------------------------------------------------------------------
# Load generation
# ----------------------------------------------------------------------
class Recorder:
    """Counts and latency samples of one stretch of load.

    An operation that raises, is refused, times out or returns a wrong
    result counts as failed and leaves no latency sample.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.samples: dict[str, list[float]] = {"read": [], "write": []}
        self.elapsed_s = 0.0

    async def op(self, kind: str, request: Awaitable, check: Callable) -> bool:
        started = time.perf_counter()
        try:
            passed = bool(check(await request))
        except (ReproError, OSError, asyncio.TimeoutError):
            passed = False
        return self._record(kind, started, passed)

    def call(self, kind: str, request: Callable[[], object], check: Callable) -> bool:
        """The same contract for the in-process library loop."""
        started = time.perf_counter()
        try:
            passed = bool(check(request()))
        except ReproError:
            passed = False
        return self._record(kind, started, passed)

    def _record(self, kind: str, started: float, passed: bool) -> bool:
        self.attempted += 1
        if passed:
            self.samples[kind].append(time.perf_counter() - started)
        else:
            self.failed += 1
        return passed

    def merge(self, other: "Recorder") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        for kind, samples in other.samples.items():
            self.samples[kind].extend(samples)

    def slice_values(self, cpu_s: float) -> dict[str, float]:
        """The rate and latency values of one measured slice; ``cpu_s``
        is what the program under test burned during it."""
        completed = self.attempted - self.failed
        return {
            "ops_per_s": completed / self.elapsed_s,
            "read_p50_ms": median_ms(self.samples["read"]),
            "write_p50_ms": median_ms(self.samples["write"]),
            "cpu_ms_per_op": 1000.0 * cpu_s / max(1, completed),
        }


async def drive(
    workload, clients: list, *, seconds: Optional[float] = None, cycles: int = 0
) -> Recorder:
    """Closed loop: each connection issues its next request only after
    the previous one completed — for ``seconds``, or for a fixed number
    of ``cycles`` per connection (warm-up belongs to setup and must not
    depend on how fast the host is)."""
    recorder = Recorder()
    started = time.perf_counter()

    async def connection(k: int) -> None:
        done = 0
        while (
            time.perf_counter() - started < seconds if seconds is not None else done < cycles
        ):
            await workload.cycle(clients[k], k, recorder.op)
            done += 1

    await asyncio.gather(*(connection(k) for k in range(len(clients))))
    recorder.elapsed_s = time.perf_counter() - started
    return recorder


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def median_ms(samples: list[float]) -> float:
    return 1000.0 * statistics.median(samples) if samples else 0.0


def p99_ms(samples: list[float]) -> Optional[float]:
    """The 99th percentile, only when at least ten samples lie beyond it."""
    if len(samples) < 1000:
        return None
    ordered = sorted(samples)
    return 1000.0 * ordered[int(len(ordered) * 0.99)]


def registry_delta(before: dict, after: dict) -> dict[str, float]:
    """Flatten two ``MetricsRegistry.snapshot()`` dicts into deltas:
    counters by name, histograms as ``<name>.sum`` and ``<name>.count``."""
    delta: dict[str, float] = {}
    for name, snap in after.items():
        old = before.get(name, {})
        if snap.get("kind") == "counter":
            delta[name] = snap["value"] - old.get("value", 0)
        elif snap.get("kind") == "histogram":
            delta[f"{name}.sum"] = snap["sum"] - old.get("sum", 0.0)
            delta[f"{name}.count"] = snap["count"] - old.get("count", 0)
    return delta


# ----------------------------------------------------------------------
# Host fingerprint
# ----------------------------------------------------------------------
def fsync_probe_ms(directory: Path, samples: int = 200) -> float:
    """Median cost of a 4 KiB append + ``fsync`` where the WALs live."""
    path = directory / "fsync.probe"
    costs = []
    with open(path, "wb") as handle:
        for _ in range(samples):
            started = time.perf_counter()
            handle.write(b"\0" * 4096)
            handle.flush()
            os.fsync(handle.fileno())
            costs.append(time.perf_counter() - started)
    path.unlink()
    return 1000.0 * statistics.median(costs)


def fingerprint(directory: Path) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "sqlite": sqlite3.sqlite_version,
        "platform": platform.platform(),
        "fsync_ms": round(fsync_probe_ms(directory), 4),
        "loadavg_1m": os.getloadavg()[0],
    }
