"""One store, pluggable order side tables: the plain, ordered and interval
stores run statements and subtree operations through the same
``XmlStore`` path, and the order side table follows every write."""

import pytest

from repro.obs import counter_delta, get_registry
from repro.relational.interval_store import IntervalXmlStore
from repro.relational.ordered import GapPolicy, RenumberPolicy
from repro.relational.ordered_store import OrderedXmlStore
from repro.relational.store import XmlStore
from repro.xmlmodel import parse

DTD = """\
<!ELEMENT playlist (track*)>
<!ELEMENT track (title)>
<!ELEMENT title (#PCDATA)>
"""
XML = (
    "<playlist><track><title>A</title></track><track><title>B</title></track>"
    "<track><title>C</title></track></playlist>"
)
DOC = "playlist.xml"
READ = f'FOR $p IN document("{DOC}")/playlist RETURN $p'
INSERT_X_BEFORE_A = (
    f'FOR $p IN document("{DOC}")/playlist, $t IN $p/track[title="A"] '
    "UPDATE $p { INSERT <track><title>X</title></track> BEFORE $t }"
)

ORDER_KEEPING = [OrderedXmlStore, IntervalXmlStore]


def _loaded(store_class, **options):
    store = store_class.from_dtd(DTD, document_name=DOC, **options)
    store.load(parse(XML))
    return store


def _titles(store):
    [playlist] = store.query(READ)
    return [
        track.child_elements("title")[0].text()
        for track in playlist.child_elements("track")
    ]


def _track_id(store, title):
    return store.db.query_one("SELECT id FROM track WHERE title = ?", (title,))[0]


@pytest.mark.parametrize("store_class", ORDER_KEEPING)
def test_positional_insert_after_a_direct_copy(store_class):
    store = _loaded(store_class)
    root_id = store.db.query_one("SELECT id FROM playlist")[0]
    store.copy_subtrees("track", '"track".id = ?', (_track_id(store, "A"),), root_id)
    store.execute(INSERT_X_BEFORE_A)
    assert _titles(store) == ["X", "A", "B", "C", "X", "A"]
    store.close()


@pytest.mark.parametrize(
    "store_class, side_table",
    [(OrderedXmlStore, "doc_order"), (IntervalXmlStore, "node_interval")],
)
def test_direct_delete_sweeps_the_side_table(store_class, side_table):
    store = _loaded(store_class)
    store.delete_subtrees("track", '"track".id = ?', (_track_id(store, "B"),))
    live = store.db.query("SELECT id FROM playlist UNION ALL SELECT id FROM track")
    indexed = store.db.query(f"SELECT id FROM {side_table}")
    assert {row[0] for row in indexed} <= {row[0] for row in live}
    store.execute(INSERT_X_BEFORE_A)
    assert _titles(store) == ["X", "A", "C"]
    store.close()


@pytest.mark.parametrize("policy", [RenumberPolicy(), GapPolicy(gap=8)], ids=["renumber", "gap8"])
def test_snapshot_keeps_the_order_policy(policy):
    store = _loaded(OrderedXmlStore, order_policy=policy)
    copy = store.snapshot()
    assert type(copy.order.policy) is type(policy)
    assert vars(copy.order.policy) == vars(policy)
    copy.execute(INSERT_X_BEFORE_A)
    assert _titles(copy) == ["X", "A", "B", "C"]
    assert _titles(store) == ["A", "B", "C"]
    store.close()
    copy.close()


@pytest.mark.parametrize("store_class", [XmlStore, *ORDER_KEEPING])
def test_every_store_class_takes_the_same_path(store_class):
    store = _loaded(store_class)
    registry = get_registry()
    store.execute(READ)
    store.execute(READ)
    assert store.plan_cache.stats()["hits"] == 1
    before = registry.snapshot()
    store.execute(
        f'FOR $p IN document("{DOC}")/playlist '
        "UPDATE $p { INSERT <track><title>D</title></track> }"
    )
    after = registry.snapshot()
    assert counter_delta(before, after, "store.updates") == 1
    translated = "span.sql.translate"
    assert (
        after[translated]["count"] - before.get(translated, {}).get("count", 0) == 1
    )
    assert _titles(store) == ["A", "B", "C", "D"]
    store.close()
