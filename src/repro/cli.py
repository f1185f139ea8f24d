"""Command-line interface: query, update, validate, and explore documents.

Usage::

    python -m repro query    --xml doc.xml [--dtd doc.dtd] 'FOR ... RETURN $x'
    python -m repro update   --xml doc.xml [--dtd doc.dtd] 'FOR ... UPDATE ...'
                             [--backend memory|sqlite] [--output new.xml]
                             [--delete-method NAME] [--insert-method NAME]
                             [--typecheck]
    python -m repro validate --xml doc.xml --dtd doc.dtd
    python -m repro shell    --xml doc.xml [--dtd doc.dtd]
    python -m repro serve    --xml doc.xml --wal doc.wal [--batch-size N]
                             [--checkpoint-every N] [--checkpoint-bytes N]
                             [--checkpoint-dir DIR] [--trace-out spans.json]
                             [--listen HOST:PORT [--max-connections N]
                              [--max-inflight N] [--port-file FILE]
                              [--shards N [--shard-dir DIR]]]
    python -m repro connect  --addr HOST:PORT [--doc NAME] [--timeout S]
                             [--stats | --checkpoint | --exec STMT ...]
    python -m repro replay   --xml doc.xml --wal doc.wal [--output new.xml]
                             [--checkpoint-dir DIR] [--trace-out spans.json]
    python -m repro checkpoint --xml doc.xml --wal doc.wal
                             [--checkpoint-dir DIR] [--full]
    python -m repro stats    [--xml doc.xml [--dtd doc.dtd] --exec STMT ...]
                             [--json]

The document name visible to ``document("...")`` inside statements is
the XML file's basename (override with ``--name``).

``serve`` runs the durable update service over the document: statements
read from stdin (one per line) go through ``UpdateService.execute`` —
an update runs on the committer, in place on the hosted document, and
its recorded effect is group-committed through the write-ahead log as
one delta (a statement that fails part-way is undone and logs nothing);
``--checkpoint-every`` / ``--checkpoint-bytes`` arm the automatic
checkpoint policy (snapshot the state, retire covered WAL segments).
With ``--listen HOST:PORT`` the service is additionally fronted by the
framed TCP protocol (:mod:`repro.service.net`: an asyncio server with
pipelined frames and streamed responses) and stdin becomes a control
console; ``connect`` is the matching client — statements are executed
*server-side* by that same ``UpdateService.execute``.
``replay`` recovers a crashed service's WAL — restoring the last
checkpoint snapshot first, when one exists — against the base document.
``checkpoint`` recovers the WAL the same way and then takes one
checkpoint, leaving a snapshot plus an empty live segment behind.

``stats`` prints a live snapshot of the process metrics registry
(``repro.obs``); with ``--exec`` it runs statements first so the
snapshot shows their per-phase counts.  ``--trace-out`` on ``serve``
and ``replay`` captures hierarchical phase spans (parse, translate,
execute, fsync, ...) and writes them as JSON on exit.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional

from repro.errors import ReproError
from repro.relational.store import XmlStore
from repro.updates.typecheck import typecheck
from repro.xmlmodel import parse_dtd, parse_file, serialize
from repro.xmlmodel.dtd import validate
from repro.xmlmodel.policy import RefPolicy
from repro.xquery.engine import QueryResult, XQueryEngine


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="XQuery-with-updates over XML documents "
        "(reproduction of 'Updating XML', SIGMOD 2001)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def add_common(sub: argparse.ArgumentParser, needs_dtd: bool = False) -> None:
        sub.add_argument("--xml", required=True, help="XML document file")
        sub.add_argument("--dtd", required=needs_dtd, help="DTD file")
        sub.add_argument(
            "--name",
            help="name exposed to document(...) (default: the XML basename)",
        )

    query = commands.add_parser("query", help="run a FLWR statement")
    add_common(query)
    query.add_argument("statement", help="the XQuery statement")

    update = commands.add_parser("update", help="run a FLWU update statement")
    add_common(update)
    update.add_argument("statement", help="the XQuery update statement")
    update.add_argument(
        "--backend",
        choices=("memory", "sqlite"),
        default="memory",
        help="execute in memory or through the relational store "
        "(sqlite requires --dtd)",
    )
    update.add_argument("--output", help="write the updated document here")
    update.add_argument(
        "--delete-method",
        default="per_tuple_trigger",
        choices=("per_tuple_trigger", "per_statement_trigger", "cascade", "asr"),
    )
    update.add_argument(
        "--insert-method", default="table", choices=("tuple", "table", "asr")
    )
    update.add_argument(
        "--typecheck",
        action="store_true",
        help="trial-execute against the DTD first; abort on violations",
    )

    check = commands.add_parser("validate", help="validate a document against a DTD")
    add_common(check, needs_dtd=True)

    shell = commands.add_parser("shell", help="interactive statement loop")
    add_common(shell)

    serve = commands.add_parser(
        "serve", help="durable update service: statements from stdin via a WAL"
    )
    add_common(serve)
    serve.add_argument("--wal", required=True, help="write-ahead log file")
    serve.add_argument(
        "--batch-size", type=int, default=64, help="group-commit window (default 64)"
    )
    serve.add_argument(
        "--no-recover",
        action="store_true",
        help="skip replaying an existing WAL before serving",
    )
    serve.add_argument(
        "--checkpoint-every",
        type=int,
        metavar="OPS",
        help="auto-checkpoint after this many applied operations",
    )
    serve.add_argument(
        "--checkpoint-bytes",
        type=int,
        metavar="BYTES",
        help="auto-checkpoint once the live WAL segment holds this many bytes",
    )
    serve.add_argument(
        "--checkpoint-dir",
        help="snapshot directory (default: <wal>.ckpt)",
    )
    serve.add_argument(
        "--trace-out", help="write hierarchical trace spans (JSON) here on exit"
    )
    serve.add_argument(
        "--query-workers",
        type=int,
        default=4,
        help="threads executing read queries concurrently (default 4)",
    )
    serve.add_argument(
        "--readers",
        type=int,
        default=4,
        help="snapshot reader connections per store host; 0 serialises "
        "reads behind the writer lock (default 4)",
    )
    serve.add_argument(
        "--listen",
        metavar="HOST:PORT",
        help="serve the framed TCP protocol on this address "
        "(port 0 picks a free port); stdin stays a control console "
        "(:quit, :checkpoint, :stats)",
    )
    serve.add_argument(
        "--max-connections",
        type=int,
        default=64,
        help="admission control: concurrent connection limit (default 64)",
    )
    serve.add_argument(
        "--max-inflight",
        type=int,
        default=64,
        help="admission control: per-connection async ops in flight "
        "(default 64)",
    )
    serve.add_argument(
        "--shards",
        type=int,
        metavar="N",
        help="with --listen: spawn N shard worker processes (each a full "
        "service over its own WAL under shard-<k>/) behind a routing "
        "front end; documents are hashed to shards by name",
    )
    serve.add_argument(
        "--shard-dir",
        help="with --shards: directory holding the shards.json manifest "
        "and the per-shard WAL/checkpoint trees (default: <wal>.shards)",
    )
    serve.add_argument(
        "--port-file",
        help="write the bound port here once listening (smoke tests; "
        "useful with --listen HOST:0)",
    )

    connect = commands.add_parser(
        "connect", help="client for a `serve --listen` server"
    )
    connect.add_argument(
        "--addr", required=True, metavar="HOST:PORT", help="server address"
    )
    connect.add_argument(
        "--doc", help="target document (default: the server's first hosted one)"
    )
    connect.add_argument(
        "--timeout", type=float, default=30.0, help="per-request timeout (seconds)"
    )
    connect.add_argument(
        "--stats", action="store_true", help="print server stats and exit"
    )
    connect.add_argument(
        "--checkpoint", action="store_true", help="force a checkpoint and exit"
    )
    connect.add_argument(
        "--exec",
        dest="statements",
        action="append",
        metavar="STATEMENT",
        default=[],
        help="run this statement server-side and exit (repeatable)",
    )

    rep = commands.add_parser(
        "replay", help="recover a WAL against the base document"
    )
    add_common(rep)
    rep.add_argument("--wal", required=True, help="write-ahead log file")
    rep.add_argument("--output", help="write the recovered document here")
    rep.add_argument(
        "--checkpoint-dir",
        help="snapshot directory (default: <wal>.ckpt)",
    )
    rep.add_argument(
        "--trace-out", help="write hierarchical trace spans (JSON) here on exit"
    )

    ckpt = commands.add_parser(
        "checkpoint",
        help="recover a WAL, snapshot the state, and retire covered segments",
    )
    add_common(ckpt)
    ckpt.add_argument("--wal", required=True, help="write-ahead log file")
    ckpt.add_argument(
        "--checkpoint-dir",
        help="snapshot directory (default: <wal>.ckpt)",
    )
    ckpt.add_argument(
        "--full",
        action="store_true",
        help="re-snapshot every document instead of carrying clean ones "
        "forward from the previous checkpoint",
    )

    stats = commands.add_parser(
        "stats", help="print a live snapshot of the process metrics registry"
    )
    stats.add_argument("--xml", help="XML document to run --exec statements against")
    stats.add_argument("--dtd", help="DTD file")
    stats.add_argument(
        "--name", help="name exposed to document(...) (default: the XML basename)"
    )
    stats.add_argument(
        "--exec",
        dest="statements",
        action="append",
        metavar="STATEMENT",
        default=[],
        help="run this statement before the snapshot (repeatable)",
    )
    stats.add_argument(
        "--json", action="store_true", help="emit the snapshot as JSON"
    )

    return parser


def _load(args) -> tuple[str, "Document", Optional["Dtd"], Optional[RefPolicy]]:
    from repro.xmlmodel.dtd import Dtd  # noqa: F401  (type comment aid)
    from repro.xmlmodel.model import Document  # noqa: F401

    dtd = None
    policy = None
    if args.dtd:
        with open(args.dtd, "r", encoding="utf-8") as handle:
            dtd = parse_dtd(handle.read())
        policy = RefPolicy.from_dtd(dtd)
    document = parse_file(args.xml, policy=policy)
    name = args.name or os.path.basename(args.xml)
    return name, document, dtd, policy


def cmd_query(args) -> int:
    name, document, _dtd, policy = _load(args)
    engine = XQueryEngine({name: document}, policy=policy)
    parsed = engine.parse(args.statement)
    if parsed.is_update:
        print("statement is an update; use `repro update`", file=sys.stderr)
        return 2
    result = engine.execute(parsed)
    assert isinstance(result, QueryResult)
    for node in result:
        from repro.xmlmodel.model import Element

        if isinstance(node, Element):
            print(serialize(node))
        else:
            from repro.xpath.evaluator import string_value

            print(string_value(node))
    print(f"-- {len(result)} result(s)", file=sys.stderr)
    return 0


def cmd_update(args) -> int:
    name, document, dtd, policy = _load(args)
    if args.typecheck:
        if dtd is None:
            print("--typecheck requires --dtd", file=sys.stderr)
            return 2
        issues = typecheck({name: document}, {name: dtd}, args.statement, policy=policy)
        for issue in issues:
            print(str(issue), file=sys.stderr)
        if any(issue.severity == "error" for issue in issues):
            print("typecheck failed; document not modified", file=sys.stderr)
            return 1
    if args.backend == "sqlite":
        if dtd is None:
            print("--backend sqlite requires --dtd", file=sys.stderr)
            return 2
        store = XmlStore.from_dtd(dtd, document_name=name)
        store.load(document)
        store.set_delete_method(args.delete_method)
        store.set_insert_method(args.insert_method)
        store.db.counts.reset()
        store.execute(args.statement)
        for warning in store.warnings:
            print(f"warning: {warning}", file=sys.stderr)
        print(
            f"-- {store.db.counts.client} SQL statement(s) "
            f"(+{store.db.counts.trigger_emulation} in trigger emulation)",
            file=sys.stderr,
        )
        results = store.query(
            f'FOR $d IN document("{name}")/{store.schema.relation(store.schema.root).tag} '
            "RETURN $d"
        )
        updated_text = serialize(results[0]) if results else ""
        store.close()
    else:
        engine = XQueryEngine({name: document}, policy=policy)
        result = engine.execute(args.statement)
        print(
            f"-- {result.bindings} binding(s), {result.operations} operation(s)",
            file=sys.stderr,
        )
        updated_text = serialize(document)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(updated_text + "\n")
        print(f"-- wrote {args.output}", file=sys.stderr)
    else:
        print(updated_text)
    return 0


def cmd_validate(args) -> int:
    name, document, dtd, _policy = _load(args)
    assert dtd is not None
    try:
        validate(document, dtd)
    except ReproError as error:
        print(f"INVALID: {error}")
        return 1
    print(f"{name}: valid")
    return 0


def cmd_shell(args) -> int:
    name, document, dtd, policy = _load(args)
    engine = XQueryEngine({name: document}, policy=policy)
    print(f"loaded {name} ({document.count_elements()} elements); "
          "end statements with an empty line; :quit to exit, :print to dump")
    buffer: list[str] = []
    while True:
        try:
            prompt = "....> " if buffer else "xqry> "
            line = input(prompt)
        except EOFError:
            print()
            return 0
        if line.strip() == ":quit":
            return 0
        if line.strip() == ":print":
            print(serialize(document))
            continue
        if line.strip():
            buffer.append(line)
            continue
        if not buffer:
            continue
        statement = "\n".join(buffer)
        buffer = []
        try:
            result = engine.execute(statement)
        except ReproError as error:
            print(f"error: {error}")
            continue
        if isinstance(result, QueryResult):
            for node in result:
                from repro.xmlmodel.model import Element

                if isinstance(node, Element):
                    print(serialize(node))
                else:
                    from repro.xpath.evaluator import string_value

                    print(string_value(node))
            print(f"-- {len(result)} result(s)")
        else:
            print(f"-- updated: {result.bindings} binding(s), "
                  f"{result.operations} operation(s)")


def cmd_serve(args) -> int:
    from repro.obs import get_tracer, span
    from repro.service import ServiceConfig, UpdateService

    if args.shards:
        return _serve_shards(args)
    tracer = get_tracer()
    if args.trace_out:
        tracer.start_capture()
    name, document, _dtd, policy = _load(args)
    service = UpdateService(
        ServiceConfig(
            wal_path=args.wal,
            batch_size=args.batch_size,
            checkpoint_dir=args.checkpoint_dir,
            checkpoint_every_ops=args.checkpoint_every,
            checkpoint_every_bytes=args.checkpoint_bytes,
            query_workers=args.query_workers,
            readers=args.readers,
        )
    )
    service.host_document(name, document, policy)
    if not args.no_recover:
        report = service.recover()
        if (
            report.applied
            or report.truncated_bytes
            or report.uncommitted
            or report.snapshot_docs
        ):
            print(f"-- recovery: {report.summary()}", file=sys.stderr)
    service.start()
    if args.listen:
        return _serve_listen(args, service, name)
    statements = 0
    # Recovery may have replaced the hosted document with a checkpoint
    # snapshot: everything below reads the host's, never the --xml one.
    print(
        f"-- serving {name} ({service.host(name).document.count_elements()} "
        f"elements); WAL {args.wal}, batch size {args.batch_size}; "
        "one statement per line, :quit to exit",
        file=sys.stderr,
    )
    try:
        for line in sys.stdin:
            statement = line.strip()
            if not statement:
                continue
            if statement == ":quit":
                break
            if statement == ":checkpoint":
                ckpt_report = service.checkpoint()
                print(f"-- {ckpt_report.summary()}", file=sys.stderr)
                continue
            try:
                with span("serve.statement"):
                    outcome = service.execute(name, statement)
            except ReproError as error:
                print(f"error: {error}", file=sys.stderr)
                continue
            if "results" in outcome:
                for text in outcome["results"]:
                    print(text)
                print(f"-- {len(outcome['results'])} result(s)", file=sys.stderr)
                continue
            statements += 1
            print(
                f"-- durable seq {outcome['seq']}: {outcome['delta_ops']} delta op(s)",
                file=sys.stderr,
            )
    finally:
        service.close()
        if args.trace_out:
            tracer.stop_capture()
            written = tracer.write_json(args.trace_out)
            print(f"-- wrote {written} trace span(s) to {args.trace_out}",
                  file=sys.stderr)
    print(f"-- served {statements} update statement(s); WAL at {args.wal}",
          file=sys.stderr)
    return 0


def _serve_listen(args, service, name: str) -> int:
    """`serve --listen`: front the service with the TCP protocol; stdin
    becomes a small control console instead of a statement stream."""
    from repro.obs import get_tracer
    from repro.service.net import AsyncNetServer, parse_address

    host, port = parse_address(args.listen)
    server = AsyncNetServer(
        service,
        host,
        port,
        max_connections=args.max_connections,
        max_inflight=args.max_inflight,
        own_service=True,
    ).start()
    bound_host, bound_port = server.address
    print(
        f"-- listening on {bound_host}:{bound_port}", file=sys.stderr, flush=True
    )
    if args.port_file:
        # Atomic (temp + rename): a polling reader either sees no file
        # or the complete port, never a created-but-empty window.
        from repro.service import write_port_file

        write_port_file(args.port_file, bound_port)
    try:
        for line in sys.stdin:
            command = line.strip()
            if command == ":quit":
                break
            if command == ":checkpoint":
                report = service.checkpoint()
                print(f"-- {report.summary()}", file=sys.stderr)
                if service.checkpoint_last_error:
                    print(
                        f"-- last checkpoint error: {service.checkpoint_last_error}",
                        file=sys.stderr,
                    )
                continue
            if command == ":stats":
                for key, value in sorted(service.stats().items()):
                    print(f"-- {key}: {value}", file=sys.stderr)
                continue
            if command:
                print(
                    "error: --listen console only takes "
                    ":quit / :checkpoint / :stats",
                    file=sys.stderr,
                )
    except KeyboardInterrupt:
        print("-- interrupted; draining", file=sys.stderr)
    finally:
        server.close()  # drains connections, then closes the service
        if args.trace_out:
            tracer = get_tracer()
            tracer.stop_capture()
            written = tracer.write_json(args.trace_out)
            print(f"-- wrote {written} trace span(s) to {args.trace_out}",
                  file=sys.stderr)
    if service.checkpoint_last_error:
        print(
            f"-- last checkpoint error: {service.checkpoint_last_error}",
            file=sys.stderr,
        )
    print(f"-- served {name}; WAL at {args.wal}", file=sys.stderr)
    return 0


def _serve_shards(args) -> int:
    """`serve --shards N`: spawn N worker processes behind a router.

    Each worker is a full service + async server over its own WAL under
    ``<shard-dir>/shard-<k>/``; the router forwards client frames to the
    shard that owns each document.  Workers always recover their WALs
    on startup (``--no-recover`` does not apply), so a restarted
    deployment carries every acknowledged update forward.
    """
    from repro.service import ShardCluster, write_port_file
    from repro.service.net import parse_address

    if not args.listen:
        print("error: --shards requires --listen", file=sys.stderr)
        return 2
    name, document, _dtd, _policy = _load(args)
    dtd_text = None
    if args.dtd:
        with open(args.dtd, "r", encoding="utf-8") as handle:
            dtd_text = handle.read()
    host, port = parse_address(args.listen)
    shard_dir = args.shard_dir or args.wal + ".shards"
    cluster = ShardCluster(
        shard_dir,
        {name: serialize(document)},
        args.shards,
        host=host,
        port=port,
        dtd_text=dtd_text,
        batch_size=args.batch_size,
        checkpoint_every_ops=args.checkpoint_every,
        checkpoint_every_bytes=args.checkpoint_bytes,
        query_workers=args.query_workers,
        readers=args.readers,
        max_inflight=args.max_inflight,
        router_options={"max_connections": args.max_connections},
    ).start()
    bound_host, bound_port = cluster.address
    print(
        f"-- routing {name} across {cluster.shards} shard(s) on "
        f"{bound_host}:{bound_port}; shard dirs under {shard_dir}",
        file=sys.stderr,
        flush=True,
    )
    if args.port_file:
        write_port_file(args.port_file, bound_port)
    try:
        for line in sys.stdin:
            command = line.strip()
            if command == ":quit":
                break
            if command == ":stats":
                for k in range(cluster.shards):
                    state = "up" if cluster.supervisor.alive(k) else "DOWN"
                    print(
                        f"-- shard-{k}: {state} "
                        f"(port {cluster.supervisor._ports[k]})",
                        file=sys.stderr,
                    )
                continue
            if command:
                print(
                    "error: --shards console only takes :quit / :stats "
                    "(use `repro connect` for statements and checkpoints)",
                    file=sys.stderr,
                )
    except KeyboardInterrupt:
        print("-- interrupted; draining", file=sys.stderr)
    finally:
        cluster.close()
    print(f"-- served {name}; shard WALs under {shard_dir}", file=sys.stderr)
    return 0


def cmd_connect(args) -> int:
    from repro.service.net import ServiceClient, parse_address

    host, port = parse_address(args.addr)
    with ServiceClient(
        host, port, request_timeout=args.timeout
    ) as client:
        if args.stats:
            import json as json_module

            stats = client.stats()
            print(json_module.dumps(
                {"service": stats["service"], "net": stats["net"]},
                indent=2, sort_keys=True,
            ))
            return 0
        if args.checkpoint:
            report = client.checkpoint()
            print(f"-- checkpoint at seq {report['wal_seq']}: "
                  f"{report['documents']} document(s), "
                  f"{report['segments_retired']} segment(s) retired",
                  file=sys.stderr)
            return 0
        doc = args.doc or client.ping()[0]
        statements = args.statements
        interactive = not statements
        if interactive:
            print(f"-- connected to {host}:{port}, document {doc!r}; "
                  "one statement per line, :quit to exit", file=sys.stderr)
            statements = (line.strip() for line in sys.stdin)
        for statement in statements:
            if not statement:
                continue
            if statement == ":quit":
                break
            if statement == ":flush":
                client.flush()
                print("-- flushed", file=sys.stderr)
                continue
            try:
                outcome = client.execute(doc, statement)
            except ReproError as error:
                print(f"error: {error}", file=sys.stderr)
                if not interactive:
                    return 1
                continue
            if "results" in outcome:
                for text in outcome["results"]:
                    print(text)
                print(f"-- {len(outcome['results'])} result(s)", file=sys.stderr)
            else:
                print(f"-- durable seq {outcome['seq']}: "
                      f"{outcome['delta_ops']} delta op(s)", file=sys.stderr)
    return 0


def cmd_replay(args) -> int:
    from repro.obs import get_tracer
    from repro.service import WriteAheadLog, replay_into_documents, wal_exists
    from repro.service.snapshot import SnapshotStore
    from repro.xmlmodel.parser import XmlParser

    if not wal_exists(args.wal):
        print(f"error: no WAL (file or segments) at {args.wal}", file=sys.stderr)
        return 2
    tracer = get_tracer()
    if args.trace_out:
        tracer.start_capture()
    name, document, _dtd, policy = _load(args)
    # A committed checkpoint supersedes the --xml base for its documents:
    # the manifest's state already contains every record <= its wal_seq.
    snapshots = SnapshotStore(args.checkpoint_dir or args.wal + ".ckpt")
    manifest = snapshots.load_manifest()
    min_seq = 0
    if manifest is not None and name in manifest.documents:
        text = snapshots.read_state(manifest, name).decode("utf-8")
        document = XmlParser(text, policy=policy).parse()
        min_seq = manifest.wal_seq
        print(
            f"-- loaded checkpoint snapshot covering seq <= {min_seq}",
            file=sys.stderr,
        )
    with WriteAheadLog(args.wal) as wal:
        report = replay_into_documents(
            wal, {name: document}, policy=policy, min_seq=min_seq
        )
    if args.trace_out:
        tracer.stop_capture()
        written = tracer.write_json(args.trace_out)
        print(f"-- wrote {written} trace span(s) to {args.trace_out}",
              file=sys.stderr)
    print(f"-- {report.summary()}", file=sys.stderr)
    recovered = serialize(document)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(recovered + "\n")
        print(f"-- wrote {args.output}", file=sys.stderr)
    else:
        print(recovered)
    return 1 if report.failed else 0


def cmd_checkpoint(args) -> int:
    from repro.service import ServiceConfig, UpdateService, wal_exists

    if not wal_exists(args.wal):
        print(f"error: no WAL (file or segments) at {args.wal}", file=sys.stderr)
        return 2
    name, document, _dtd, policy = _load(args)
    service = UpdateService(
        ServiceConfig(wal_path=args.wal, checkpoint_dir=args.checkpoint_dir)
    )
    service.host_document(name, document, policy)
    try:
        recovery = service.recover()
        print(f"-- recovery: {recovery.summary()}", file=sys.stderr)
        report = service.checkpoint(full=args.full)
    finally:
        service.close()
    print(f"-- {report.summary()}", file=sys.stderr)
    return 0


#: Metrics pre-registered by ``stats`` so a fresh process still prints a
#: meaningful (zero-valued) snapshot of the pipeline's core counters.
CORE_METRICS = (
    "sql.statements.client",
    "sql.statements.trigger",
    "wal.appends",
    "wal.fsyncs",
    "batcher.batches",
    "batcher.ops.applied",
    "xquery.statements",
    "xquery.bindings",
    "xquery.operations",
    "cache.parse.hits",
    "cache.parse.misses",
    "cache.plan.hits",
    "cache.plan.misses",
    "sql.pool.reads",
)


def cmd_stats(args) -> int:
    import json as json_module

    from repro.obs import get_registry

    registry = get_registry()
    for metric in CORE_METRICS:
        registry.counter(metric)
    if args.statements:
        if not args.xml:
            print("--exec requires --xml", file=sys.stderr)
            return 2
        name, document, _dtd, policy = _load(args)
        engine = XQueryEngine({name: document}, policy=policy)
        for statement in args.statements:
            engine.execute(statement)
    snapshot = registry.snapshot()
    if args.json:
        print(json_module.dumps(snapshot, indent=2, sort_keys=True))
        return 0
    width = max(len(name) for name in snapshot)
    for metric_name, data in snapshot.items():
        if data["kind"] == "histogram":
            detail = (
                f"count={data['count']} sum={data['sum']:.6f} "
                f"mean={data['mean']:.6f}"
            )
            if data["max"] is not None:
                detail += f" min={data['min']:.6f} max={data['max']:.6f}"
        else:
            detail = f"{data['value']:g}"
        print(f"{data['kind']:<9} {metric_name:<{width}}  {detail}")
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "query": cmd_query,
        "update": cmd_update,
        "validate": cmd_validate,
        "shell": cmd_shell,
        "serve": cmd_serve,
        "connect": cmd_connect,
        "replay": cmd_replay,
        "checkpoint": cmd_checkpoint,
        "stats": cmd_stats,
    }
    try:
        return handlers[args.command](args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
