"""Property: a live document and its recovery never part ways.

Random element inserts and deletes reach a document host as deltas;
some deltas fail part-way (a path that does not resolve after ops that
did), and a checkpoint falls at a random step.  Each refused delta must
be undone on the live tree and leave nothing in the WAL, so
``recover()`` in a fresh service rebuilds a tree byte-identical to the
live one, with no record failing to replay.

Only elements move here.  Text is left out on purpose: adjacent, empty
and whitespace-only text do not survive a checkpoint snapshot yet
(ROADMAP 1(b)), pinned by the strict xfails in
``tests/service/test_recovery.py::TestTextNormalisation``.
"""

import os
import shutil
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import UpdateError
from repro.service import DeltaUpdate, ServiceConfig, UpdateService
from repro.updates.delta import DeleteNode, InsertNode, apply_delta
from repro.xmlmodel.model import Element
from repro.xmlmodel.parser import XmlParser
from repro.xmlmodel.serializer import serialize

DOC = "doc.xml"
BASE = "<r><a/><b/></r>"
#: Resolves on no tree this test builds.
DANGLING = DeleteNode((1000,))


def make_service(wal_path):
    service = UpdateService(ServiceConfig(wal_path=wal_path, batch_size=4))
    service.host_document(DOC, XmlParser(BASE).parse())
    return service


def element_paths(element, path=()):
    yield path
    for index, child in enumerate(element.children):
        if isinstance(child, Element):
            yield from element_paths(child, path + (index,))


def draw_delta(data, document):
    """1-3 element inserts and deletes, each valid where the ones before
    it left the tree (tracked on a scratch copy of ``document``)."""
    scratch = XmlParser(serialize(document)).parse()
    ops = []
    for _ in range(data.draw(st.integers(1, 3))):
        paths = list(element_paths(scratch.root))
        children = paths[1:]
        if children and data.draw(st.booleans()):
            op = DeleteNode(data.draw(st.sampled_from(children)))
        else:
            parent = data.draw(st.sampled_from(paths))
            size = len(_resolve(scratch.root, parent).children)
            name = data.draw(st.sampled_from("cde"))
            xml = data.draw(st.sampled_from([f"<{name}/>", f"<{name}><f/></{name}>"]))
            op = InsertNode(parent, data.draw(st.integers(0, size)), xml=xml)
        apply_delta(scratch, [op])
        ops.append(op)
    return ops


def _resolve(root, path):
    node = root
    for index in path:
        node = node.children[index]
    return node


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_recovered_tree_is_byte_identical_to_the_live_one(data):
    steps = data.draw(st.integers(1, 10), label="steps")
    checkpoint_at = data.draw(st.integers(0, steps), label="checkpoint_at")
    workdir = tempfile.mkdtemp(prefix="undo-prop-")
    try:
        wal_path = os.path.join(workdir, "doc.wal")
        service = make_service(wal_path).start()
        host = service.host(DOC)
        try:
            for step in range(steps):
                if step == checkpoint_at:
                    service.checkpoint(timeout=30)
                ops = draw_delta(data, host.document)
                if data.draw(st.booleans(), label="fails"):
                    ops.insert(data.draw(st.integers(1, len(ops))), DANGLING)
                    before = service.query(DOC)
                    with pytest.raises(UpdateError):
                        service.submit_wait(DeltaUpdate(DOC, tuple(ops)), timeout=30)
                    assert service.query(DOC) == before
                else:
                    service.submit_wait(DeltaUpdate(DOC, tuple(ops)), timeout=30)
            live = service.query(DOC)
        finally:
            service.close()
        restarted = make_service(wal_path)
        report = restarted.recover()
        restarted.start()
        try:
            assert restarted.query(DOC) == live
        finally:
            restarted.close()
        assert report.failed == 0
        assert report.uncommitted == 0  # a refused delta logged nothing
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
