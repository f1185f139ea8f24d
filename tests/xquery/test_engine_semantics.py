"""Deeper semantic tests for the in-memory engine: iteration order,
bind-before-update across clauses, deleted-binding enforcement."""

import pytest

from repro.errors import DeletedBindingError
from repro.xmlmodel import parse
from repro.xquery import XQueryEngine


@pytest.fixture
def doc():
    return parse(
        "<list>"
        "<item n='1'><tag>a</tag></item>"
        "<item n='2'><tag>b</tag></item>"
        "<item n='3'><tag>a</tag></item>"
        "</list>"
    )


@pytest.fixture
def engine(doc):
    return XQueryEngine({"list.xml": doc})


class TestIterationSemantics:
    def test_operations_run_for_every_binding(self, doc, engine):
        result = engine.execute(
            'FOR $i IN document("list.xml")/list/item '
            "UPDATE $i { INSERT <seen/> }"
        )
        assert result.bindings == 3
        for item in doc.root.child_elements("item"):
            assert len(item.child_elements("seen")) == 1

    def test_multiple_ops_per_iteration_in_sequence(self, doc, engine):
        engine.execute(
            'FOR $i IN document("list.xml")/list/item[@n="1"] '
            "UPDATE $i { INSERT <x/>, INSERT <y/> }"
        )
        item = doc.root.child_elements("item")[0]
        tags = [c.name for c in item.child_elements()]
        assert tags == ["tag", "x", "y"]

    def test_multiple_update_clauses(self, doc, engine):
        engine.execute(
            'FOR $a IN document("list.xml")/list/item[@n="1"], '
            '$b IN document("list.xml")/list/item[@n="2"] '
            "UPDATE $a { INSERT <from-a/> } "
            "UPDATE $b { INSERT <from-b/> }"
        )
        items = doc.root.child_elements("item")
        assert items[0].child_elements("from-a")
        assert items[1].child_elements("from-b")
        assert not items[2].child_elements("from-a")

    def test_cartesian_bindings(self, doc, engine):
        # 3 items x 3 items = 9 iterations.
        result = engine.execute(
            'FOR $a IN document("list.xml")/list/item, '
            '$b IN document("list.xml")/list/item '
            "UPDATE $a { INSERT <mark/> }"
        )
        assert result.bindings == 9
        for item in doc.root.child_elements("item"):
            assert len(item.child_elements("mark")) == 3


class TestBindBeforeUpdate:
    def test_inserted_content_not_rebound(self, doc, engine):
        # The inserted <item> elements must not create new bindings.
        result = engine.execute(
            'FOR $l IN document("list.xml")/list, $i IN $l/item '
            "UPDATE $l { INSERT <item n='new'><tag>c</tag></item> }"
        )
        assert result.bindings == 3
        assert len(doc.root.child_elements("item")) == 6

    def test_double_delete_of_same_binding_raises(self, doc, engine):
        with pytest.raises(DeletedBindingError):
            engine.execute(
                'FOR $l IN document("list.xml")/list, '
                '$i IN $l/item[@n="1"] '
                "UPDATE $l { DELETE $i, DELETE $i }"
            )

    def test_predicates_see_pre_update_state(self, doc, engine):
        # Rename every tag 'a' to 'b'; the second iteration's binding was
        # made before the first executed, so exactly two items change.
        engine.execute(
            'FOR $i IN document("list.xml")/list/item, $t IN $i/tag '
            'WHERE $t = "a" '
            "UPDATE $i { RENAME $t TO was-a }"
        )
        renamed = [
            item
            for item in doc.root.child_elements("item")
            if item.child_elements("was-a")
        ]
        assert len(renamed) == 2


class TestReturnSemantics:
    def test_return_preserves_binding_order(self, engine):
        result = engine.execute(
            'FOR $i IN document("list.xml")/list/item RETURN $i/@n'
        )
        assert [node.value for node in result] == ["1", "2", "3"]

    def test_return_deduplicates(self, engine):
        result = engine.execute(
            'FOR $a IN document("list.xml")/list/item, '
            '$b IN document("list.xml")/list/item '
            "RETURN $a"
        )
        assert len(result) == 3


#: A document whose second ``p`` references the first by IDREF.
REFERRING = (
    "<!DOCTYPE r [<!ATTLIST p ID ID #REQUIRED ref IDREF #IMPLIED>]>"
    '<r><p ID="a"/><p ID="b" ref="a"/></r>'
)
REPLACE_ID = (
    'FOR $p IN document("x.xml")/r/p[@ID="a"], $i IN $p/@ID '
    'UPDATE $p { REPLACE $i WITH new_attribute(ID,"z") }'
)
FOLLOW_REF = 'FOR $p IN document("x.xml")/r/p[@ref], $t IN $p/@ref-> RETURN $t'


class TestDereferenceAfterIdChange:
    def test_arrow_does_not_follow_an_id_the_element_no_longer_has(self):
        document = parse(REFERRING)
        engine = XQueryEngine({"x.xml": document})
        assert [node.attributes["ID"].value for node in engine.execute(FOLLOW_REF)] == ["a"]
        engine.execute(REPLACE_ID)
        assert list(engine.execute(FOLLOW_REF)) == []
        assert document.element_by_id("z") is document.root.child_elements("p")[0]
