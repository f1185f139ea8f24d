"""Property: the interval store agrees with the §3 update executor.

Random ``INSERT … BEFORE``/``AFTER``, append and ``DELETE`` statements
run on an :class:`IntervalXmlStore` with a tiny ordinal gap (so
renumbering triggers often) and on :class:`XQueryEngine` over the
parsed document (ordered model).  Both must serialise the same
document, byte for byte, after every step.  Appends bind no unused
variable; the strict xfail below keeps that known divergence visible.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import XQueryEngine
from repro.relational.interval_store import IntervalXmlStore
from repro.workloads.tpcw import CUSTOMER_DTD, CustomerParams, generate_customers
from repro.xmlmodel import parse
from repro.xmlmodel.model import Element
from repro.xmlmodel.serializer import serialize

DOC = "custdb.xml"

#: tag -> (its key child, the content a step inserts next to it)
KEYS = {"Customer": "Name", "Order": "Date", "OrderLine": "ItemName"}
CONTENT = {
    "Customer": "<Customer><Name>{label}</Name><Address><City>c</City>"
                "<State>s</State></Address></Customer>",
    "Order": "<Order><Date>{label}</Date><Status>new</Status><OrderLine>"
             "<ItemName>{label}</ItemName><Qty>1</Qty></OrderLine></Order>",
    "OrderLine": "<OrderLine><ItemName>{label}</ItemName><Qty>1</Qty></OrderLine>",
}


def elements_in_order(root: Element, tag: str) -> list[list[Element]]:
    """Root-to-element paths of every ``tag`` element, in document order."""
    found = []

    def walk(path: list[Element]) -> None:
        for child in path[-1].child_elements():
            if child.name == tag:
                found.append(path + [child])
            walk(path + [child])

    walk([root])
    return found


def step_path(element: Element) -> str:
    key = KEYS[element.name]
    return f'{element.name}[{key}="{element.child_elements(key)[0].text()}"]'


def statement(action: str, path: list[Element], label: str) -> str:
    """The update statement that applies ``action`` to the element at the
    end of ``path``, addressed by its ancestors' key values.  An append
    goes under the element's parent and binds no ``$t``: the store runs
    an update once per target tuple, not once per binding."""
    parent = "/".join([path[0].name] + [step_path(e) for e in path[1:-1]])
    content = CONTENT[path[-1].name].format(label=label)
    if action == "append":
        return (f'FOR $p IN document("{DOC}")/{parent} '
                f"UPDATE $p {{ INSERT {content} }}")
    bind = (f'FOR $p IN document("{DOC}")/{parent}, $t IN $p/{step_path(path[-1])} '
            "UPDATE $p")
    if action == "delete":
        return f"{bind} {{ DELETE $t }}"
    return f"{bind} {{ INSERT {content} {action.upper()} $t }}"


class TestModelEquivalence:
    @given(
        seed=st.integers(0, 200),
        customers=st.integers(2, 4),
        ops=st.lists(
            st.tuples(
                st.sampled_from(["before", "after", "append", "delete"]),
                st.sampled_from(sorted(KEYS)),
                st.integers(0, 30),
            ),
            min_size=1,
            max_size=8,
        ),
    )
    @settings(max_examples=20, deadline=None)
    def test_positional_updates_match_in_memory_model(self, seed, customers, ops):
        text = serialize(
            generate_customers(CustomerParams(customers=customers, seed=seed)).root,
            indent=0,
        )
        model = parse(text)
        engine = XQueryEngine({DOC: model})
        store = IntervalXmlStore.from_dtd(CUSTOMER_DTD, document_name=DOC,
                                          interval_gap=4)
        store.load(parse(text))
        try:
            for step, (action, tag, pick) in enumerate(ops):
                paths = elements_in_order(model.root, tag)
                if not paths:
                    continue
                update = statement(action, paths[pick % len(paths)], f"s{step}")
                engine.execute(update)
                store.execute(update)
                assert serialize(store.to_document().root, indent=0) == serialize(
                    model.root, indent=0
                ), update
            store.interval.validate()
        finally:
            store.close()


@pytest.mark.xfail(
    strict=True,
    reason="the store runs an update once per target tuple, the executor "
           "once per binding (an unused FOR variable multiplies its inserts)",
)
def test_unused_binding_inserts_as_often_as_the_executor(customer_document):
    text = serialize(customer_document.root, indent=0)
    update = (
        f'FOR $p IN document("{DOC}")/CustDB/Customer[Name="John"], '
        "$t IN $p/Order UPDATE $p { INSERT <Order><Date>2001-01-01</Date>"
        "<Status>new</Status></Order> }"
    )
    model = parse(text)
    XQueryEngine({DOC: model}).execute(update)
    store = IntervalXmlStore.from_dtd(CUSTOMER_DTD, document_name=DOC)
    store.load(parse(text))
    try:
        store.execute(update)
        assert serialize(store.to_document().root, indent=0) == serialize(
            model.root, indent=0
        )
    finally:
        store.close()
