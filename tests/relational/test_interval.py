"""Pre/post ordinal machinery, exercised through the interval store."""

import pytest

from repro.errors import StorageError
from repro.obs import counter_delta, get_registry
from repro.relational.interval import INTERVAL_TABLE, coalesce_ranges, merge_ranges
from repro.relational.interval_store import IntervalXmlStore
from repro.workloads.tpcw import CUSTOMER_DTD, CustomerParams, generate_customers
from repro.xmlmodel import parse
from repro.xmlmodel.serializer import serialize

DOC = "custdb.xml"
JOHN = f'document("{DOC}")/CustDB/Customer[Name="John"]'
JOHN_FIRST_ORDER = f'{JOHN}/Order[Date="2000-05-01"]'
NEXT_TO_TIRE = (
    f'FOR $o IN {JOHN_FIRST_ORDER}, $l IN $o/OrderLine[ItemName="tire"] '
    "UPDATE $o {{ INSERT <OrderLine><ItemName>{item}</ItemName><Qty>1</Qty>"
    "</OrderLine> {position} $l }}"
)


@pytest.fixture
def store(customer_document):
    store = IntervalXmlStore.from_dtd(CUSTOMER_DTD, document_name=DOC)
    store.load(customer_document)
    yield store
    store.close()


def ids_in_document_order(store, relation):
    return [
        row[0]
        for row in store.db.query(
            f'SELECT r.id FROM "{relation}" r JOIN {INTERVAL_TABLE} n '
            "ON n.id = r.id ORDER BY n.pre"
        )
    ]


def john_first_order_items(store):
    order = store.query(f"FOR $o IN {JOHN_FIRST_ORDER} RETURN $o")[0]
    return [
        line.child_elements("ItemName")[0].text()
        for line in order.child_elements("OrderLine")
    ]


def insert_next_to_tire(store, item, position="BEFORE"):
    store.execute(NEXT_TO_TIRE.format(item=item, position=position))


class TestMergeRanges:
    def test_nested_ranges_are_dropped(self):
        assert merge_ranges([(1, 100), (5, 20), (150, 200)]) == [(1, 100), (150, 200)]

    def test_disjoint_ranges_survive(self):
        assert merge_ranges([(1, 10), (20, 30)]) == [(1, 10), (20, 30)]


class TestCoalesceRanges:
    def test_adjacent_sibling_subtrees_fuse(self, store):
        # John's two Orders are adjacent siblings: nothing lives in the
        # ordinal slack between them, so one range covers both.
        john_orders = [
            store.interval.space.bounds(order_id)[:2]
            for order_id in ids_in_document_order(store, "Order")[:2]
        ]
        fused = coalesce_ranges(store.db, john_orders)
        assert fused == [(john_orders[0][0], john_orders[1][1])]

    def test_occupied_gap_keeps_ranges_apart(self, store):
        # John's first Order and Mary's Order straddle live rows (John's
        # second Order, Mary's Customer tuple), so the gap probe finds them.
        orders = ids_in_document_order(store, "Order")
        ranges = [
            store.interval.space.bounds(orders[0])[:2],
            store.interval.space.bounds(orders[2])[:2],
        ]
        assert coalesce_ranges(store.db, ranges) == ranges


class TestRoundTrip:
    def test_byte_identical_reconstruction(self, store, customer_document):
        assert serialize(store.to_document().root, indent=0) == serialize(
            customer_document.root, indent=0
        )


class TestAxes:
    def test_descendants(self, store):
        # The descendant step lowers to a pre/post range predicate and
        # its results come back in document order.
        query = f"FOR $l IN {JOHN}//OrderLine RETURN $l"
        items = [
            line.child_elements("ItemName")[0].text() for line in store.query(query)
        ]
        assert items == ["tire", "rim", "pump"]
        assert INTERVAL_TABLE in store.plan_cache.get(query).sql


class TestRangeDelete:
    def test_subtree_delete_is_whole(self, store):
        store.set_delete_method("interval")
        before = store.interval.count()
        store.delete_subtrees("Order", "\"Order\".\"Date\" = '2000-05-01'")
        # The Order and both of its OrderLines leave the data and the index.
        assert before - store.interval.count() == 3
        assert len(store.db.query("SELECT id FROM OrderLine")) == 2
        store.interval.validate()

    def test_statement_count_independent_of_subtree_count(self):
        master = IntervalXmlStore.from_dtd(CUSTOMER_DTD, document_name=DOC)
        master.load(generate_customers(CustomerParams(customers=40, seed=7)))
        # Every other Order, so no two doomed subtrees coalesce.
        scattered = ids_in_document_order(master, "Order")[::2]
        assert len(scattered) >= 32
        statements = {}
        for subtrees in (2, 8, 32):
            store = master.snapshot()
            store.set_delete_method("interval")
            doomed = scattered[:subtrees]
            placeholders = ", ".join("?" for _ in doomed)
            store.db.counts.reset()
            store.delete_subtrees("Order", f'"Order".id IN ({placeholders})', doomed)
            statements[subtrees] = store.db.counts.client
            remaining = {row[0] for row in store.db.query('SELECT id FROM "Order"')}
            assert remaining.isdisjoint(doomed)
            store.interval.validate()
            store.close()
        master.close()
        # Range lookup + gap probe + one ranged DELETE per relation and
        # one for the index — not one statement per subtree.
        assert len(set(statements.values())) == 1, statements
        assert statements[2] <= 5


class TestPositionalInserts:
    def test_insert_before_and_after(self, store):
        insert_next_to_tire(store, "wax")
        insert_next_to_tire(store, "rack", position="AFTER")
        assert john_first_order_items(store) == ["wax", "tire", "rack", "rim"]
        store.interval.validate()

    def test_append_goes_last(self, store):
        store.execute(
            f"FOR $o IN {JOHN_FIRST_ORDER} UPDATE $o {{ INSERT <OrderLine>"
            "<ItemName>mirror</ItemName><Qty>1</Qty></OrderLine> }"
        )
        assert john_first_order_items(store) == ["tire", "rim", "mirror"]
        store.interval.validate()


ALBUM_DTD = """\
<!ELEMENT catalog (album*)>
<!ELEMENT album (title, track*)>
<!ELEMENT title (#PCDATA)>
<!ELEMENT track (name)>
<!ELEMENT name (#PCDATA)>
"""


def album_document(albums: int):
    body = "".join(
        f"<album><title>a{index}</title><track><name>a{index}t0</name></track>"
        f"<track><name>a{index}t1</name></track></album>"
        for index in range(albums)
    )
    return parse(f"<catalog>{body}</catalog>")


class TestRenumbering:
    def test_gap_exhaustion_renumbers_locally_and_stays_correct(
        self, customer_document
    ):
        store = IntervalXmlStore.from_dtd(
            CUSTOMER_DTD, document_name=DOC, interval_gap=4
        )
        store.load(customer_document)
        before = get_registry().snapshot()
        for index in range(24):
            insert_next_to_tire(store, f"item{index}")
        after = get_registry().snapshot()
        assert store.interval.renumber_events > 0
        assert counter_delta(before, after, "interval.renumber.count") == (
            store.interval.renumber_events
        )
        assert counter_delta(before, after, "interval.renumber.nodes") > 0
        # Insert-before keeps submission order ahead of the anchor.
        assert john_first_order_items(store) == (
            [f"item{i}" for i in range(24)] + ["tire", "rim"]
        )
        store.interval.validate()
        store.close()

    def test_hot_spot_inserts_cost_the_same_at_every_document_size(self):
        """Gapped ordinals keep renumbering scoped to the hot subtree, so
        positional inserts at one spot issue the same statements and
        renumber the same nodes however large the document grows."""
        statement = (
            'FOR $a IN document("catalog.xml")/catalog/album[title="a0"], '
            '$t IN $a/track[name="a0t0"] '
            "UPDATE $a { INSERT <track><name>new</name></track> BEFORE $t }"
        )
        per_insert, renumbered, sizes = [], [], []
        for albums in (8, 32, 128, 512):
            store = IntervalXmlStore.from_dtd(ALBUM_DTD, document_name="catalog.xml")
            store.load(album_document(albums))
            sizes.append(store.interval.count())
            before = get_registry().snapshot()
            store.db.counts.reset()
            for _ in range(40):
                store.execute(statement)
            per_insert.append(store.db.counts.client / 40)
            renumbered.append(
                counter_delta(before, get_registry().snapshot(),
                              "interval.renumber.nodes")
            )
            store.interval.validate()
            store.close()
        assert sizes == [25, 97, 385, 1537]
        assert len(set(per_insert)) == 1, per_insert
        assert len(set(renumbered)) == 1, renumbered

    def test_tiny_gap_rejected(self):
        with pytest.raises(ValueError):
            IntervalXmlStore.from_dtd(CUSTOMER_DTD, interval_gap=2)

    def test_window_errors_at_document_edges(self, store):
        root = store.db.query_one("SELECT id FROM CustDB")[0]
        with pytest.raises(StorageError):
            store.interval.space.window_for_before(root, 2)
        with pytest.raises(StorageError):
            store.interval.space.window_for_after(root, 2)
