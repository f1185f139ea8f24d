"""Unit tests for document deltas (§1 motivation: deltas for mirroring)."""

import pytest

from repro.updates.delta import (
    DeleteAttribute,
    DeleteNode,
    DeleteReferences,
    InsertNode,
    RenameNode,
    SetAttribute,
    SetReferences,
    SetText,
    apply_delta,
    diff,
    from_json,
    to_json,
)
from repro.xmlmodel import parse, serialize
from repro.xmlmodel.policy import BIO_POLICY

from tests.conftest import BIO_XML


def round_trip(old_text, new_text, policy=None):
    old = parse(old_text, policy=policy)
    new = parse(new_text, policy=policy)
    mirror = parse(old_text, policy=policy)
    ops = diff(old, new)
    apply_delta(mirror, ops, policy=policy)
    assert serialize(mirror, indent=0) == serialize(new, indent=0)
    return ops


class TestDiffBasics:
    def test_identical_documents_empty_delta(self):
        text = "<a><b>x</b><c/></a>"
        assert round_trip(text, text) == []

    def test_attribute_change(self):
        ops = round_trip('<a x="1"/>', '<a x="2"/>')
        assert ops == [SetAttribute((), "x", "2")]

    def test_attribute_added_and_removed(self):
        ops = round_trip('<a x="1"/>', '<a y="2"/>')
        assert DeleteAttribute((), "x") in ops
        assert SetAttribute((), "y", "2") in ops

    def test_text_change(self):
        ops = round_trip("<a>old</a>", "<a>new</a>")
        assert ops == [SetText((0,), "new")]

    def test_child_deleted(self):
        ops = round_trip("<a><b/><c/></a>", "<a><b/></a>")
        assert ops == [DeleteNode((1,))]

    def test_child_inserted(self):
        ops = round_trip("<a><b/></a>", "<a><b/><c/></a>")
        assert ops == [InsertNode((), 1, xml="<c/>")]

    def test_child_inserted_in_middle(self):
        round_trip("<a><b/><d/></a>", "<a><b/><c/><d/></a>")

    def test_rename(self):
        ops = round_trip("<a><b>x</b></a>", "<a><bb>x</bb></a>")
        # Tag changes make the matcher replace the node (keyed by tag).
        assert any(isinstance(op, (RenameNode, DeleteNode)) for op in ops)

    def test_nested_edit(self):
        round_trip(
            "<a><b><c>1</c></b><b><c>2</c></b></a>",
            "<a><b><c>1</c></b><b><c>changed</c></b></a>",
        )

    def test_edit_after_sibling_insert(self):
        # The matched <c> shifts right by the insert; its edit must still land.
        round_trip("<a><c>old</c></a>", "<a><b/><c>new</c></a>")

    def test_edit_after_sibling_delete(self):
        round_trip("<a><b/><c>old</c></a>", "<a><c>new</c></a>")

    def test_references_delta(self):
        ops = round_trip(
            '<db><lab ID="l" managers="a b"/></db>',
            '<db><lab ID="l" managers="b c"/></db>',
            policy=BIO_POLICY,
        )
        assert SetReferences((0,), "managers", ("b", "c")) in ops

    def test_bio_document_heavy_edit(self):
        edited = BIO_XML.replace("UCLA Bio Lab", "UCLA Primary Lab").replace(
            'age="32"', 'age="33"'
        ).replace("<city>Philadelphia</city>", "")
        round_trip(BIO_XML, edited, policy=BIO_POLICY)


class TestRecordedDelta:
    """What the executor records is the primitives themselves."""

    @staticmethod
    def record(text, statement, policy=None):
        from repro.xquery import XQueryEngine

        document = parse(text, policy=policy)
        ops = []
        XQueryEngine({"d.xml": document}, policy=policy).execute(statement, recorder=ops)
        return ops

    def test_delete_oldest_append_one_is_two_ops(self):
        """``diff``, aligning siblings by tag, rewrites every sibling's
        attributes for this; the statement's own effect is two ops."""
        text = "<r><l>" + "".join(f'<o k="{i}"/>' for i in range(100)) + "</l></r>"
        ops = self.record(
            text,
            'FOR $l IN document("d.xml")/r/l, $o IN $l/o[@k="0"] '
            'UPDATE $l { DELETE $o, INSERT <o k="100"/> }',
        )
        assert ops == [DeleteNode((0, 0)), InsertNode((0,), 99, xml='<o k="100"/>')]
        after = parse(text)
        apply_delta(after, ops)
        assert len(diff(parse(text), after)) == 100

    def test_example_1_deletes_attribute_reference_and_element(self):
        ops = self.record(
            BIO_XML,
            'FOR $p IN document("d.xml")/db/paper, $cat IN $p/@category, '
            '$bio IN $p/ref(biologist,"smith1"), $ti IN $p/title '
            "UPDATE $p { DELETE $cat, DELETE $bio, DELETE $ti }",
            policy=BIO_POLICY,
        )
        assert ops == [
            DeleteAttribute((3,), "category"),
            DeleteReferences((3,), "biologist"),
            DeleteNode((3, 0)),
        ]

    def test_statement_binding_nothing_records_nothing(self):
        statement = 'FOR $r IN document("d.xml")/r, $x IN $r/x UPDATE $r { DELETE $x }'
        assert self.record("<r/>", statement) == []


class TestWireFormat:
    def test_json_round_trip(self):
        old = parse("<a><b>x</b></a>")
        new = parse('<a y="1"><b>z</b><c managers="m"/></a>')
        ops = diff(old, new)
        assert from_json(to_json(ops)) == ops

    def test_transmitted_delta_applies(self):
        old_text = "<a><b>x</b><c/></a>"
        new_text = '<a><b>y</b><d t="1"/></a>'
        ops = diff(parse(old_text), parse(new_text))
        wire = to_json(ops)
        replica = parse(old_text)
        apply_delta(replica, from_json(wire))
        assert serialize(replica, indent=0) == serialize(parse(new_text), indent=0)


class TestApplyErrors:
    def test_bad_path_rejected(self):
        from repro.errors import UpdateError

        document = parse("<a/>")
        with pytest.raises(UpdateError, match="does not resolve"):
            apply_delta(document, [DeleteNode((5,))])

    def test_cannot_delete_root(self):
        from repro.errors import UpdateError

        document = parse("<a/>")
        with pytest.raises(UpdateError, match="root"):
            apply_delta(document, [DeleteNode(())])
