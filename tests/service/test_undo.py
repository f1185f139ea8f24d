"""A refused write leaves no trace, live or recovered (ROADMAP 1(a)).

A document host applies every delta and every update statement in place
under one :class:`~repro.xmlmodel.model.UndoLog`: an operation that
fails part-way is taken back op by op and logs nothing, so the live tree
and the tree ``recover()`` rebuilds from the WAL always agree.
"""

import threading
import time

import pytest

from repro.errors import ServiceTimeoutError, UpdateError
from repro.obs import counter_delta, get_registry
from repro.service import DeltaUpdate, ServiceConfig, UpdateService
from repro.updates.delta import DeleteNode, InsertNode, apply_delta
from repro.xmlmodel import parse
from repro.xmlmodel.model import Element, UndoLog
from repro.xmlmodel.serializer import serialize
from repro.xquery import XQueryEngine
from tests.conftest import BIO_XML
from tests.service.test_execute import POLICY, STATEMENTS

DOC = "doc.xml"
BASE = "<r><a/><b/></r>"
TIMEOUT = 30

#: Inserts ``<c/>``, then names a path that does not resolve.
HALF_BAD = DeltaUpdate(DOC, (InsertNode((), 0, xml="<c/>"), DeleteNode((9,))))


def canon(xml):
    """``xml`` as the service serialises it."""
    return serialize(parse(xml))


def make_service(wal_path):
    service = UpdateService(ServiceConfig(wal_path=wal_path))
    service.host_document(DOC, parse(BASE))
    return service


def recovered(wal_path):
    service = make_service(wal_path)
    report = service.recover()
    service.start()
    try:
        return service.query(DOC), report
    finally:
        service.close()


def live_nodes(element):
    """Every node reachable from ``element``, attributes and IDREFs too."""
    nodes = [element]
    nodes.extend(element.attributes.values())
    for reference in element.references.values():
        nodes.append(reference)
        nodes.extend(reference.entries)
    for child in element.children:
        nodes.extend(live_nodes(child) if isinstance(child, Element) else [child])
    return nodes


def shape(element):
    """The tree as node identities, names and values (not just its text)."""
    return [
        (
            node.node_id,
            type(node).__name__,
            getattr(node, "name", None),
            getattr(node, "value", None),
            getattr(node, "target", None),
            node.parent.node_id if node.parent is not None else None,
            node.is_deleted,
        )
        for node in live_nodes(element)
    ]


class TestRefusedDelta:
    def test_refused_delta_is_undone_live_and_recovered(self, tmp_path):
        wal_path = str(tmp_path / "doc.wal")
        service = make_service(wal_path).start()
        try:
            next_seq = service.wal.next_seq
            with pytest.raises(UpdateError, match="does not resolve"):
                service.submit_wait(HALF_BAD, timeout=TIMEOUT)
            assert service.query(DOC) == canon(BASE)
            assert service.wal.next_seq == next_seq  # nothing logged
            # Index 2 exists only on a tree that kept the refused <c/>.
            with pytest.raises(UpdateError, match="does not resolve"):
                service.submit_wait(DeltaUpdate(DOC, (DeleteNode((2,)),)), timeout=TIMEOUT)
            assert service.submit_wait(DeltaUpdate(DOC, (DeleteNode((1,)),)), timeout=TIMEOUT)
            live = service.query(DOC)
        finally:
            service.close()
        assert live == canon("<r><a/></r>")
        text, report = recovered(wal_path)
        assert text == live
        assert report.failed == 0
        assert report.applied == 1

    def test_batch_of_good_half_bad_good_fails_only_the_bad_delta(self, tmp_path):
        wal_path = str(tmp_path / "doc.wal")
        service = make_service(wal_path).start()
        registry = get_registry()
        try:
            before = registry.snapshot()
            with service._batcher.paused(timeout=TIMEOUT):
                tickets = [
                    service.submit(DeltaUpdate(DOC, (InsertNode((), 0, xml="<x/>"),))),
                    service.submit(HALF_BAD),
                    service.submit(DeltaUpdate(DOC, (DeleteNode((2,)),))),
                ]
            first = tickets[0].wait(TIMEOUT)
            with pytest.raises(UpdateError):
                tickets[1].wait(TIMEOUT)
            last = tickets[2].wait(TIMEOUT)
            assert counter_delta(before, registry.snapshot(), "batcher.batches") == 1
            assert last == first + 1  # the refused delta took no seq
            live = service.query(DOC)
        finally:
            service.close()
        # The last delta deleted <b/>: the refused <c/> never shifted it.
        assert live == canon("<r><x/><a/></r>")
        text, report = recovered(wal_path)
        assert text == live
        assert report.failed == 0


class TestExpiredStatement:
    def test_statement_expired_in_the_queue_never_runs(self, tmp_path):
        service = make_service(str(tmp_path / "doc.wal")).start()
        outcome = []

        def run():
            try:
                service.execute(
                    DOC,
                    f'FOR $r IN document("{DOC}")/r UPDATE $r {{ INSERT <late/> }}',
                    timeout=0.2,
                )
            except Exception as error:
                outcome.append(error)

        try:
            next_seq = service.wal.next_seq
            with service._batcher.paused(timeout=TIMEOUT):
                thread = threading.Thread(target=run)
                thread.start()
                time.sleep(0.4)  # past the statement's deadline, still queued
            thread.join(TIMEOUT)
            service.flush(TIMEOUT)
            assert len(outcome) == 1 and isinstance(outcome[0], ServiceTimeoutError)
            assert service.query(DOC) == canon(BASE)
            assert service.wal.next_seq == next_seq
        finally:
            service.close()


class TestUndoLog:
    """Undo of every §3 primitive restores the same node objects: their
    links, names, values and tombstones, IDREF entries included."""

    @pytest.mark.parametrize("index", range(len(STATEMENTS)))
    def test_statement_rolls_back_to_the_same_tree(self, index):
        document = parse(BIO_XML, policy=POLICY)
        engine = XQueryEngine({"bio.xml": document}, policy=POLICY)
        for statement in STATEMENTS[:index]:
            engine.execute(statement)
        before_text, before_shape = serialize(document), shape(document.root)
        undo = UndoLog()
        engine.execute(STATEMENTS[index], undo=undo)
        assert serialize(document) != before_text
        undo.rollback()
        assert serialize(document) == before_text
        assert shape(document.root) == before_shape
        assert len(undo) == 0

    @pytest.mark.parametrize("index", range(len(STATEMENTS)))
    def test_recorded_delta_rolls_back_to_the_same_tree(self, index):
        source = parse(BIO_XML, policy=POLICY)
        engine = XQueryEngine({"bio.xml": source}, policy=POLICY)
        for statement in STATEMENTS[:index]:
            engine.execute(statement)
        target = parse(serialize(source), policy=POLICY)
        delta = []
        engine.execute(STATEMENTS[index], recorder=delta)
        before_text, before_shape = serialize(target), shape(target.root)
        undo = UndoLog()
        apply_delta(target, delta, POLICY, undo)
        assert serialize(target) == serialize(source)
        undo.rollback()
        assert serialize(target) == before_text
        assert shape(target.root) == before_shape

    def test_rollback_to_a_mark_keeps_what_came_before(self):
        document = parse(BASE)
        undo = UndoLog()
        apply_delta(document, [InsertNode((), 0, xml="<x/>")], undo=undo)
        mark = undo.mark()
        with pytest.raises(UpdateError):
            apply_delta(document, list(HALF_BAD.ops), undo=undo)
        undo.rollback(mark)
        assert serialize(document) == canon("<r><x/><a/><b/></r>")
        undo.rollback()
        assert serialize(document) == canon(BASE)
