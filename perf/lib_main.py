"""Launcher for ``lib_update``: the library loop, one thread, no service.

Sets up (generate, ``parse``, ``XmlStore.from_dtd`` + ``load``, a fixed
count of warm-up cycles), prints one JSON line when ready, then serves
commands from stdin: ``segment <slice seconds> <slices>``, ``verify``,
``quit``.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:1] = [str(ROOT / "src"), str(ROOT)]

from repro import XmlStore, parse  # noqa: E402
from repro.obs import get_registry  # noqa: E402

from perf import trace  # noqa: E402
from perf.harness import Recorder, registry_delta, reply  # noqa: E402
from perf.workloads import SYNTHETIC_DTD, LibUpdate, Sizes  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--trace", metavar="PATH", help="install the wrap table; "
                        "spans of each segment are written to PATH")
    args = parser.parse_args()
    if args.trace:
        trace.install()

    timings: dict[str, float] = {}
    workload = LibUpdate(args.seed, Sizes.smoke() if args.smoke else Sizes())
    started = time.perf_counter()
    document = parse(workload.document_text())
    timings["parse_s"] = time.perf_counter() - started
    started = time.perf_counter()
    store = XmlStore.from_dtd(SYNTHETIC_DTD, document_name=workload.doc)
    store.load(document)
    store.db.commit()
    timings["shred_s"] = time.perf_counter() - started
    del document

    def run(recorder: Recorder, keep_going) -> None:
        def op(kind, request, check):
            if not args.trace:
                return recorder.call(kind, request, check)
            with trace.root(f"lib:{kind}", kind):
                return recorder.call(kind, request, check)

        while keep_going():
            workload.cycle(store, op)

    warmup = Recorder()
    remaining = iter(range(workload.warmup))
    run(warmup, lambda: next(remaining, None) is not None)
    if warmup.failed:
        reply({"error": f"{warmup.failed} warm-up operation(s) failed"})
        return 1
    reply({"ready": True, "timings": timings})

    for line in sys.stdin:
        command, _, argument = line.strip().partition(" ")
        if command == "quit":
            break
        if command == "segment":
            seconds, slices = argument.split()
            total, values = Recorder(), []
            before = get_registry().snapshot()
            trace.mark()
            for _ in range(int(slices)):
                recorder = Recorder()
                cpu_before = time.process_time()
                started = time.perf_counter()
                deadline = started + float(seconds)
                run(recorder, lambda: time.perf_counter() < deadline)
                recorder.elapsed_s = time.perf_counter() - started
                values.append(recorder.slice_values(time.process_time() - cpu_before))
                total.merge(recorder)
            result = {
                "attempted": total.attempted,
                "failed": total.failed,
                "slices": values,
                "samples": total.samples,
                "registry": registry_delta(before, get_registry().snapshot()),
            }
            if args.trace:
                result.update(trace.dump(args.trace))
            reply(result)
        elif command == "verify":
            reply({"problems": workload.verify(store)})
        else:
            reply({"error": f"unknown command {command!r}"})
    store.close()
    reply({"stopped": True})
    return 0


if __name__ == "__main__":
    sys.exit(main())
