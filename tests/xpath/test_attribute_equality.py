"""The attribute-equality kernel selects what the general comparison does.

``[@name = "literal"]`` compiles to a kernel that reads the context
element's attribute, or its reference list, straight off the element.
``["literal" = @name]`` is the same comparison on the general path (it
builds the ``@name`` node list and compares string values), so the two
must select the same elements on every document: attributes present,
absent, empty or whitespace-only; IDREF and IDREFS references under
``BIO_POLICY``, empty reference lists included; and non-element context
nodes, which the kernel answers false, and no context node, which must
raise the general path's exact error.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import XPathError
from repro.xmlmodel import parse
from repro.xmlmodel.model import Reference
from repro.xmlmodel.policy import BIO_POLICY
from repro.xpath import XPathContext, evaluate_path, evaluate_predicate, parse_expr, parse_path

DOC = "d.xml"
#: ``a`` is a plain attribute, ``lab`` an IDREF and ``managers`` an
#: IDREFS list under BIO_POLICY; ``gone`` is on no element.
NAMES = ("a", "lab", "managers", "gone")
VALUES = st.one_of(
    st.sampled_from(["", " ", "  ", "v", " v", "v ", "p1", "p1 p2", "p2 p1"]),
    st.text(alphabet="vp12 ", max_size=4),
)
TARGETS = st.sampled_from(["p1", "p2", "v"])

items = st.fixed_dictionaries(
    {
        "a": st.none() | VALUES,
        "lab": st.none() | TARGETS,
        "managers": st.none() | st.lists(TARGETS, max_size=3),
        "text": st.none() | st.sampled_from(["v", "p1 p2"]),
    }
)


def build(specs):
    """``<r>`` with one ``<item>`` per spec; an empty ``managers`` list
    is attached through the model (the parser drops an empty IDREFS)."""
    body = []
    for spec in specs:
        attributes = "".join(
            f' {name}="{value}"'
            for name, value in (
                ("a", spec["a"]),
                ("lab", spec["lab"]),
                ("managers", " ".join(spec["managers"] or ()) or None),
            )
            if value is not None
        )
        body.append(f"<item{attributes}>{spec['text'] or ''}</item>")
    document = parse(f"<r>{''.join(body)}</r>", policy=BIO_POLICY)
    for element, spec in zip(document.root.children, specs):
        if spec["managers"] == []:
            element.attach_reference(Reference("managers"))
    return document


def selected(text, document):
    path = parse_path(text)
    return path, [
        node.node_id for node in evaluate_path(path, XPathContext({DOC: document}))
    ]


@settings(max_examples=300, deadline=None)
@given(specs=st.lists(items, min_size=1, max_size=6), name=st.sampled_from(NAMES), literal=VALUES)
def test_kernel_selects_what_the_general_comparison_selects(specs, name, literal):
    document = build(specs)
    kernel, by_kernel = selected(f'document("{DOC}")/r/item[@{name} = "{literal}"]', document)
    _, by_general = selected(f'document("{DOC}")/r/item["{literal}" = @{name}]', document)
    assert kernel.steps[1].predicates[0].compiled_test.__name__ == "attribute_equals"
    assert by_kernel == by_general


def test_reference_lists_compare_as_their_joined_targets():
    document = parse(
        '<r><item lab="p1" managers="p1 p2"/><item managers="p2"/></r>', policy=BIO_POLICY
    )
    assert len(selected(f'document("{DOC}")/r/item[@managers = "p1 p2"]', document)[1]) == 1
    assert len(selected(f'document("{DOC}")/r/item[@lab = "p1"]', document)[1]) == 1
    assert selected(f'document("{DOC}")/r/item[@managers = "p1"]', document)[1] == []


def context_nodes(document):
    item = document.root.children[0]
    return [
        item.children[0],  # Text
        item.attributes["a"],
        item.references["managers"],
        item.references["managers"].entries[0],
    ]


@pytest.mark.parametrize("index", range(4), ids=["text", "attribute", "reference", "entry"])
def test_a_non_element_context_node_is_false(index):
    document = parse('<r><item a="v" managers="v">v</item></r>', policy=BIO_POLICY)
    node = context_nodes(document)[index]
    context = XPathContext({DOC: document}, context_node=node)
    for name in ("a", "managers"):
        assert evaluate_predicate(parse_expr(f'@{name} = "v"'), context) is False
        assert evaluate_predicate(parse_expr(f'"v" = @{name}'), context) is False


def test_no_context_node_raises_the_general_error():
    context = XPathContext({})
    with pytest.raises(XPathError) as kernel:
        evaluate_predicate(parse_expr('@a = "v"'), context)
    with pytest.raises(XPathError) as general:
        evaluate_predicate(parse_expr('"v" = @a'), context)
    assert str(kernel.value) == str(general.value)
