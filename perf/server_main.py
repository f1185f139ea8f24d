"""Launcher for the ``svc_*`` workloads: one ``UpdateService`` behind an
``AsyncNetServer``, built from public APIs only, in its own process.

Prints one JSON line when ready (the bound port, its own timings of
the calls it makes once, and — for a store host — the tuple ids the
load generator needs), then serves commands from stdin: ``counts``,
``mark``, ``dump <path>``, ``quit``.  End of input is a ``quit``.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:1] = [str(ROOT / "src"), str(ROOT)]

from repro import XmlStore, parse  # noqa: E402
from repro.service import AsyncNetServer, ServiceConfig, UpdateService  # noqa: E402

from perf import trace  # noqa: E402
from perf.harness import reply  # noqa: E402
from perf.workloads import SYNTHETIC_DTD  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--host", choices=("document", "store"), required=True)
    parser.add_argument("--name", required=True, help="hosted document name")
    parser.add_argument("--document", required=True, help="generated XML file")
    parser.add_argument("--dir", required=True, help="WAL and checkpoint directory")
    parser.add_argument("--restart", action="store_true",
                        help="second start on the same directory: recover() "
                             "restores the checkpoint and replays the WAL")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    if args.trace:
        trace.install()

    timings: dict[str, float] = {}
    info: dict = {}
    store = None
    service = UpdateService(
        ServiceConfig(wal_path=os.path.join(args.dir, "service.wal"), wal_sync="commit")
    )
    if args.host == "document":
        started = time.perf_counter()
        document = parse(Path(args.document).read_text())
        timings["parse_s"] = time.perf_counter() - started
        service.host_document(args.name, document)
    else:
        store = XmlStore.from_dtd(SYNTHETIC_DTD, document_name=args.name)
        if not args.restart:
            # A restarted store host gets everything, tuple ids and the
            # id allocator included, from the checkpoint's database image.
            started = time.perf_counter()
            document = parse(Path(args.document).read_text())
            timings["parse_s"] = time.perf_counter() - started
            started = time.perf_counter()
            info["root_id"] = store.load(document)
            store.db.commit()
            timings["shred_s"] = time.perf_counter() - started
            info["n1_ids"] = [row[0] for row in store.db.query('SELECT id FROM "n1" ORDER BY id')]
        service.host_store(args.name, store)
    started = time.perf_counter()
    report = service.recover()
    timings["replay_s"] = time.perf_counter() - started
    timings["replayed_ops"] = report.applied
    service.start()
    server = AsyncNetServer(service, "127.0.0.1", 0, own_service=True).start()
    reply({"port": server.address[1], "timings": timings, "info": info})

    undrained = None
    try:
        for line in sys.stdin:
            command, _, argument = line.strip().partition(" ")
            if command == "quit":
                break
            if command == "counts":
                reply({name: store.tuple_count(name) for name in ("n1", "n2")})
            elif command == "mark":
                trace.mark()
                reply({"marked": True})
            elif command == "dump":
                reply(trace.dump(argument))
            else:
                reply({"error": f"unknown command {command!r}"})
    finally:
        # Graceful stop: in-flight requests finish, tickets drain, the
        # WAL closes — everything acknowledged is durable on disk.
        undrained = server.close()
        if store is not None:
            store.close()
    reply({"stopped": True, "undrained": undrained})
    return 0


if __name__ == "__main__":
    sys.exit(main())
