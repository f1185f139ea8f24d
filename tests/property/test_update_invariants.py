"""Property tests on the in-memory update executor's invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.updates import (
    Delete,
    Insert,
    Rename,
    Replace,
    UpdateExecutor,
    new_attribute,
    new_element,
    new_ref,
)
from repro.xmlmodel.model import Document, Element
from repro.xpath import XPathContext

from tests.property.strategies import elements, names, texts


def check_integrity(element: Element) -> None:
    """Parent pointers consistent; nothing reachable is tombstoned."""
    for descendant in element.iter_descendants(include_self=True):
        assert not descendant.is_deleted
        for child in descendant.children:
            assert child.parent is descendant
            assert not child.is_deleted
        for attribute in descendant.attributes.values():
            assert attribute.parent is descendant
            assert not attribute.is_deleted
        for reference in descendant.references.values():
            assert reference.parent is descendant
            for entry in reference.entries:
                assert entry.parent is reference
                assert not entry.is_deleted


@st.composite
def operations_for(draw, target: Element, labels=names):
    """A random valid operation against ``target``; inserted references
    take their label from ``labels``."""
    choices = ["insert_element", "insert_attr", "insert_ref", "insert_text"]
    if target.child_elements():
        choices += ["delete_child", "rename_child", "replace_child"]
    if target.attributes:
        choices += ["delete_attr"]
    if target.references:
        choices += ["delete_ref_entry"]
    kind = draw(st.sampled_from(choices))
    if kind == "insert_element":
        return Insert(new_element(draw(names), draw(texts)))
    if kind == "insert_attr":
        name = draw(names.filter(lambda n: n not in target.attributes))
        return Insert(new_attribute(name, draw(texts)))
    if kind == "insert_ref":
        return Insert(new_ref(draw(labels), draw(names)))
    if kind == "insert_text":
        return Insert(draw(texts))
    if kind == "delete_child":
        return Delete(draw(st.sampled_from(target.child_elements())))
    if kind == "delete_attr":
        name = draw(st.sampled_from(sorted(target.attributes)))
        return Delete(target.attributes[name])
    if kind == "delete_ref_entry":
        reference = target.references[draw(st.sampled_from(sorted(target.references)))]
        return Delete(draw(st.sampled_from(reference.entries)))
    if kind == "rename_child":
        return Rename(draw(st.sampled_from(target.child_elements())), draw(names))
    if kind == "replace_child":
        child = draw(st.sampled_from(target.child_elements()))
        return Replace(child, new_element(draw(names), draw(texts)))
    raise AssertionError(kind)


class TestExecutorInvariants:
    @given(data=st.data(), root=elements(max_depth=2))
    @settings(max_examples=50, deadline=None)
    def test_tree_integrity_after_random_operations(self, data, root):
        document = Document(root)
        executor = UpdateExecutor(XPathContext(documents={"d.xml": document}))
        # Apply up to 4 random single operations sequentially; each must
        # leave a structurally consistent tree.
        for _ in range(data.draw(st.integers(1, 4))):
            candidates = [root] + root.child_elements()
            target = data.draw(st.sampled_from(candidates))
            if target.is_deleted:
                continue
            operation = data.draw(operations_for(target))
            executor.apply(target, [operation])
            check_integrity(document.root)

    @given(root=elements(max_depth=2))
    @settings(max_examples=40, deadline=None)
    def test_insert_then_delete_roundtrip(self, root):
        """Inserting content and deleting it restores the serialization."""
        from repro.xmlmodel.serializer import serialize

        document = Document(root)
        executor = UpdateExecutor(XPathContext(documents={"d.xml": document}))
        before = serialize(root, indent=0)
        marker = new_element("zzmarker", "x")
        executor.apply(root, [Insert(marker)])
        inserted = root.child_elements("zzmarker")[-1]
        executor.apply(root, [Delete(inserted)])
        assert serialize(root, indent=0) == before

    @given(root=elements(max_depth=2), new_name=names)
    @settings(max_examples=40, deadline=None)
    def test_rename_preserves_content(self, root, new_name):
        document = Document(root)
        executor = UpdateExecutor(XPathContext(documents={"d.xml": document}))
        children = root.child_elements()
        if not children:
            return
        child = children[0]
        text_before = child.text()
        attr_count = len(child.attributes)
        executor.apply(root, [Rename(child, new_name)])
        assert child.name == new_name
        assert child.text() == text_before
        assert len(child.attributes) == attr_count
