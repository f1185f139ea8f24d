"""Property: the delta an ``UpdateExecutor`` records is its effect.

Random documents take a few random "statements", the way server-side
``execute`` runs them: copy the live document, run operation sequences
on the copy against elements that existed when it was taken, then
apply the recorded delta to the live document.  In both execution
models, the recorded delta must reproduce the executor's tree byte for
byte — as ``diff``'s delta, the oracle, does — and survive the WAL
codec unchanged.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.updates import (
    Delete,
    Insert,
    InsertAfter,
    InsertBefore,
    Rename,
    Replace,
    UpdateExecutor,
    new_attribute,
    new_element,
    new_ref,
)
from repro.updates.delta import apply_delta, decode_ops, diff, encode_ops
from repro.xmlmodel.model import Document, Element
from repro.xmlmodel.policy import RefPolicy
from repro.xmlmodel.serializer import serialize
from repro.xpath import XPathContext

from tests.property.strategies import attribute_values, elements, names, texts
from tests.property.test_update_invariants import operations_for

#: Reference labels.  Outside the ``names`` alphabet, so no attribute
#: ever shares one, and IDREFS under the policy, so an element copied
#: as markup parses its references back as references.
LABELS = ("rx", "ry")
POLICY = RefPolicy.explicit(references=LABELS)
labels = st.sampled_from(LABELS)
child_content = st.one_of(texts, st.builds(new_element, names, texts))


@st.composite
def documents(draw) -> Document:
    root = draw(elements(max_depth=2))
    for element in [root] + root.child_elements():
        for label in draw(st.lists(labels, unique=True, max_size=2)):
            for target in draw(st.lists(names, min_size=1, max_size=3)):
                element.add_reference(label, target)
    return Document(root)


@st.composite
def recorded_operations_for(draw, target: Element, ordered: bool):
    """One operation sequence against ``target``, bound together: a
    kind ``operations_for`` draws, or one of the rest — positional
    inserts, attribute and IDREFS rename and replace, PCDATA and IDREFS
    deletes, and a deleted child used as content."""
    children = list(target.children)
    pcdata = [child for child in children if not isinstance(child, Element)]
    attributes = sorted(target.attributes)
    references = sorted(target.references)
    free_labels = [label for label in LABELS if label not in target.references]
    choices = ["base"]
    if children:
        choices += ["move"]
        if ordered:
            choices += ["insert_before", "insert_after"]
    if pcdata:
        choices += ["delete_text", "replace_text"]
    if attributes:
        choices += ["rename_attr", "replace_attr"]
    if references:
        choices += ["delete_refs", "replace_ref_entry", "replace_refs"]
        if free_labels:
            choices += ["rename_refs"]
        if ordered:
            choices += ["insert_ref_relative"]
    kind = draw(st.sampled_from(choices))
    if kind == "base":
        return [draw(operations_for(target, labels=labels))]
    if kind in ("insert_before", "insert_after"):
        positional = InsertBefore if kind == "insert_before" else InsertAfter
        return [positional(draw(st.sampled_from(children)), draw(child_content))]
    if kind == "move":
        moved = draw(st.sampled_from(children))
        others = [child for child in children if child is not moved]
        ways = ["append"]
        if others:
            ways += ["replace", "before"] if ordered else ["replace"]
        way = draw(st.sampled_from(ways))
        if way == "append":
            return [Delete(moved), Insert(moved)]
        other = draw(st.sampled_from(others))
        if way == "before":
            return [Delete(moved), InsertBefore(other, moved)]
        return [Delete(moved), Replace(other, moved)]
    if kind == "delete_text":
        return [Delete(draw(st.sampled_from(pcdata)))]
    if kind == "replace_text":
        return [Replace(draw(st.sampled_from(pcdata)), draw(child_content))]
    if kind == "rename_attr":
        attribute = target.attributes[draw(st.sampled_from(attributes))]
        return [Rename(attribute, draw(names.filter(lambda n: n not in attributes)))]
    if kind == "replace_attr":
        attribute = target.attributes[draw(st.sampled_from(attributes))]
        name = draw(names.filter(lambda n: n == attribute.name or n not in attributes))
        return [Replace(attribute, new_attribute(name, draw(attribute_values)))]
    reference = target.references[draw(st.sampled_from(references))]
    entry = draw(st.sampled_from(reference.entries))
    if kind == "delete_refs":
        return [Delete(reference)]
    if kind == "rename_refs":
        renamed = draw(st.sampled_from([reference, entry]))
        return [Rename(renamed, draw(st.sampled_from(free_labels)))]
    if kind == "replace_ref_entry":
        same_label = st.builds(new_ref, st.just(reference.name), names)
        return [Replace(entry, draw(st.one_of(names, same_label)))]
    if kind == "replace_refs":
        return [Replace(reference, " ".join(draw(st.lists(names, min_size=1, max_size=3))))]
    positional = draw(st.sampled_from([InsertBefore, InsertAfter]))
    return [positional(entry, draw(names))]


@given(data=st.data(), document=documents(), ordered=st.booleans())
@settings(max_examples=150, deadline=None)
def test_recorded_delta_replays_to_the_working_tree(data, document, ordered):
    live = document
    for _ in range(data.draw(st.integers(1, 3), label="statements")):
        working = live.copy()
        bound = list(working.iter_elements())
        recorded = []
        executor = UpdateExecutor(
            XPathContext(documents={"d.xml": working}), ordered=ordered, recorder=recorded
        )
        for _ in range(data.draw(st.integers(1, 4), label="sequences")):
            targets = [element for element in bound if not element.is_deleted]
            target = data.draw(st.sampled_from(targets))
            executor.apply(target, data.draw(recorded_operations_for(target, ordered)))
        expected = serialize(working)

        oracle = live.copy()
        apply_delta(oracle, diff(live, working), POLICY)
        assert serialize(oracle) == expected

        assert decode_ops(encode_ops(recorded)) == recorded
        apply_delta(live, recorded, POLICY)
        assert serialize(live) == expected
