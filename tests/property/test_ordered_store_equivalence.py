"""Property: the two order-keeping stores agree.

``OrderedXmlStore`` (sibling positions) and ``IntervalXmlStore``
(pre/post ordinals) keep document order with different side tables
behind the same ``XmlStore`` path, so any mix of positional and plain
update statements and direct subtree copies/deletes must leave both
serialising the same document, byte for byte, after every step.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relational.interval_store import IntervalXmlStore
from repro.relational.ordered_store import OrderedXmlStore
from repro.xmlmodel import parse
from repro.xmlmodel.serializer import serialize

DTD = """\
<!ELEMENT playlist (track*)>
<!ELEMENT track (title, part*)>
<!ELEMENT title (#PCDATA)>
<!ELEMENT part (#PCDATA)>
"""
DOC = "playlist.xml"
XML = (
    "<playlist>"
    "<track><title>a</title><part>a1</part><part>a2</part></track>"
    "<track><title>b</title></track>"
    "<track><title>c</title><part>c1</part></track>"
    "</playlist>"
)

titles = st.sampled_from("abcd")
steps = st.one_of(
    st.tuples(st.sampled_from(["BEFORE", "AFTER"]), titles, titles),
    st.tuples(st.just("insert"), titles),
    st.tuples(st.just("copy"), titles),
    st.tuples(st.just("delete"), titles),
)


def _track(title: str) -> str:
    return f"<track><title>{title}</title><part>{title}-new</part></track>"


def _apply(store, step) -> None:
    kind, title = step[0], step[1]
    where = ('"track".title = ?', (title,))
    if kind in ("BEFORE", "AFTER"):
        store.execute(
            f'FOR $p IN document("{DOC}")/playlist, $t IN $p/track[title="{title}"] '
            f"UPDATE $p {{ INSERT {_track(step[2])} {kind} $t }}"
        )
    elif kind == "insert":
        store.execute(
            f'FOR $p IN document("{DOC}")/playlist UPDATE $p {{ INSERT {_track(title)} }}'
        )
    elif kind == "copy":
        root_id = store.db.query_one("SELECT id FROM playlist")[0]
        store.copy_subtrees("track", *where, root_id)
        store.db.commit()
    else:
        store.delete_subtrees("track", *where)
        store.db.commit()


@given(st.lists(steps, min_size=1, max_size=8))
@settings(max_examples=40, deadline=None)
def test_ordered_and_interval_stores_serialise_identically(sequence):
    stores = [
        store_class.from_dtd(DTD, document_name=DOC)
        for store_class in (OrderedXmlStore, IntervalXmlStore)
    ]
    try:
        for store in stores:
            store.load(parse(XML))
        for step in sequence:
            documents = []
            for store in stores:
                _apply(store, step)
                documents.append(serialize(store.to_document(), indent=0))
            assert documents[0] == documents[1], step
    finally:
        for store in stores:
            store.close()
