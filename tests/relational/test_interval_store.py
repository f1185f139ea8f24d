"""End-to-end tests for the interval-indexed store."""

import pytest

from repro.errors import TranslationError
from repro.obs import counter_delta, get_registry
from repro.relational.interval_store import IntervalXmlStore
from repro.relational.store import XmlStore
from repro.workloads.tpcw import CUSTOMER_DTD
from repro.xmlmodel import parse
from repro.xmlmodel.serializer import serialize

DOC = "custdb.xml"
ALL_LINES = f'FOR $l IN document("{DOC}")/CustDB/Customer/Order/OrderLine RETURN $l'
JOHN_LINES = (
    f'FOR $l IN document("{DOC}")/CustDB/Customer/Order[Date="2000-05-01"]'
    "//OrderLine RETURN $l"
)


@pytest.fixture
def store(customer_document):
    store = IntervalXmlStore.from_dtd(CUSTOMER_DTD, document_name=DOC)
    store.load(customer_document)
    yield store
    store.close()


def john_order_dates(store):
    results = store.query(
        f'FOR $c IN document("{DOC}")/CustDB/Customer[Name="John"] RETURN $c'
    )
    return [
        order.child_elements("Date")[0].text()
        for order in results[0].child_elements("Order")
    ]


class TestIndexLifecycle:
    def test_load_populates_and_validates(self, store):
        assert store.interval.count() > 0
        store.interval.validate()
        stats = store.interval_stats()
        assert stats["nodes"] == store.interval.count()
        assert stats["renumber_events"] == 0

    def test_adopting_existing_data_populates(self, customer_document):
        plain = XmlStore.from_dtd(CUSTOMER_DTD, document_name=DOC)
        plain.load(customer_document)
        adopted = IntervalXmlStore(plain.schema, db=plain.db, document_name=DOC,
                                   policy=plain.policy, create=False)
        adopted.interval.validate()
        assert adopted.interval.count() > 0
        adopted.close()

    def test_sharing_a_schema_leaves_the_plain_store_alone(self, customer_document):
        plain = XmlStore.from_dtd(CUSTOMER_DTD, document_name=DOC)
        interval = IntervalXmlStore(plain.schema, document_name=DOC)
        plain.load(customer_document)
        assert plain.db.query_one(
            "SELECT name FROM sqlite_master WHERE name = 'node_interval'"
        ) is None
        interval.load(customer_document)
        interval.interval.validate()
        plain.close()
        interval.close()

    def test_second_document_appends_past_the_first(self, store, customer_document):
        first_post = store.db.query_one("SELECT MAX(post) FROM node_interval")[0]
        first_ids = {row[0] for row in store.db.query("SELECT id FROM node_interval")}
        store.load(customer_document)
        store.interval.validate()
        second = store.db.query(
            "SELECT pre FROM node_interval WHERE id NOT IN "
            f"({', '.join(str(i) for i in first_ids)})"
        )
        assert len(second) == len(first_ids)
        assert min(pre for (pre,) in second) > first_post

    def test_failed_statement_after_load_keeps_the_index(self, store):
        indexed = store.interval.count()
        with pytest.raises(TranslationError):
            store.execute(
                f'FOR $x IN document("{DOC}")/CustDB UPDATE $y {{ DELETE $x }}'
            )
        assert store.interval.count() == indexed
        store.interval.validate()
        store.execute(
            f"""
            FOR $c IN document("{DOC}")/CustDB/Customer[Name="John"],
                $o IN $c/Order[Date="2000-06-12"]
            UPDATE $c {{
                INSERT <Order><Date>2000-06-01</Date><Status>new</Status>
                </Order> BEFORE $o
            }}
            """
        )
        assert john_order_dates(store) == ["2000-05-01", "2000-06-01", "2000-06-12"]
        store.interval.validate()

    def test_update_statement_sweeps_index(self, store):
        before = store.interval.count()
        store.execute(
            f'FOR $c IN document("{DOC}")/CustDB/Customer[Name="John"], '
            '$o IN $c/Order[Date="2000-05-01"] '
            "UPDATE $c { DELETE $o }"
        )
        assert store.interval.count() < before
        store.interval.validate()
        assert john_order_dates(store) == ["2000-06-12"]


class TestReads:
    def test_round_trip(self, store, customer_document):
        results = store.query(f'FOR $d IN document("{DOC}")/CustDB RETURN $d')
        assert serialize(results[0], indent=0) == serialize(
            customer_document.root, indent=0
        )

    def test_descendant_axis_matches_plain_store(self, store, customer_document):
        plain = XmlStore.from_dtd(CUSTOMER_DTD, document_name=DOC)
        plain.load(customer_document)
        query = f'FOR $l IN document("{DOC}")/CustDB//OrderLine RETURN $l'
        lowered = [serialize(e, indent=0) for e in store.query(query)]
        reference = [serialize(e, indent=0) for e in plain.query(query)]
        assert sorted(lowered) == sorted(reference)
        plain.close()

    def test_filtered_descendant_step(self, store):
        results = store.query(JOHN_LINES)
        items = sorted(
            line.child_elements("ItemName")[0].text() for line in results
        )
        assert items == ["rim", "tire"]


class TestPositionalInserts:
    def test_insert_before_honoured(self, store):
        store.execute(
            f"""
            FOR $c IN document("{DOC}")/CustDB/Customer[Name="John"],
                $o IN $c/Order[Date="2000-06-12"]
            UPDATE $c {{
                INSERT <Order><Date>2000-06-01</Date><Status>new</Status>
                </Order> BEFORE $o
            }}
            """
        )
        assert john_order_dates(store) == ["2000-05-01", "2000-06-01", "2000-06-12"]
        assert not any("degraded" in w for w in store.warnings)
        store.interval.validate()

    def test_insert_after_honoured(self, store):
        store.execute(
            f"""
            FOR $c IN document("{DOC}")/CustDB/Customer[Name="John"],
                $o IN $c/Order[Date="2000-05-01"]
            UPDATE $c {{
                INSERT <Order><Date>2000-05-15</Date><Status>new</Status>
                </Order> AFTER $o
            }}
            """
        )
        assert john_order_dates(store) == ["2000-05-01", "2000-05-15", "2000-06-12"]
        store.interval.validate()


class TestIntervalStrategies:
    def test_range_delete_strategy(self, store):
        store.set_delete_method("interval")
        store.delete_subtrees("Order", "\"Order\".\"Date\" = '2000-05-01'")
        assert john_order_dates(store) == ["2000-06-12"]
        store.interval.validate()

    def test_whole_relation_truncate_path(self, store):
        store.set_delete_method("interval")
        registry = get_registry()
        before = registry.snapshot()
        store.delete_subtrees("Order")
        after = registry.snapshot()
        assert counter_delta(before, after, "interval.range_deletes") == 1
        # Every Order and OrderLine is gone; the non-target relations
        # (CustDB, Customer) survive in both the data and the index.
        assert store.db.query('SELECT id FROM "Order"') == []
        assert store.db.query("SELECT id FROM OrderLine") == []
        assert len(store.db.query("SELECT id FROM Customer")) == 2
        store.interval.validate()

    def test_strategies_work_on_plain_store_too(self, customer_document):
        plain = XmlStore.from_dtd(CUSTOMER_DTD, document_name=DOC)
        plain.load(customer_document)
        plain.set_delete_method("interval")
        plain.delete_subtrees("Order", "\"Order\".\"Status\" = 'shipped'")
        dates = sorted(row[0] for row in plain.db.query('SELECT Date FROM "Order"'))
        assert dates == ["2000-05-01", "2000-07-20"]
        plain.close()


class TestPlanCacheInvalidation:
    def test_renumber_bumps_generation_like_rename(self, customer_document):
        store = IntervalXmlStore.from_dtd(
            CUSTOMER_DTD, document_name=DOC, interval_gap=4
        )
        store.load(customer_document)
        registry = get_registry()
        assert store.query(JOHN_LINES)  # populate the cache
        stale = store.plan_cache.get(JOHN_LINES)
        assert stale is not None
        generation = store.plan_cache.generation
        before = registry.snapshot()
        # Hammer positional inserts into the gapped window until the
        # allocator must renumber (gap=4 exhausts after a few bisections).
        for index in range(12):
            store.execute(
                f'FOR $c IN document("{DOC}")/CustDB/Customer[Name="John"], '
                '$o IN $c/Order[Date="2000-05-01"], $l IN $o/OrderLine[ItemName="tire"] '
                "UPDATE $o { INSERT <OrderLine><ItemName>"
                f"extra{index}</ItemName><Qty>1</Qty></OrderLine> BEFORE $l }}"
            )
        after = registry.snapshot()
        assert store.interval.renumber_events > 0
        assert store.plan_cache.generation > generation
        assert counter_delta(before, after, "cache.plan.invalidations.renumber") > 0
        # The invalidation is *necessary*: the stale plan baked the old
        # (pre, post) windows in as literals, and renumbering moved the
        # live ordinals out from under them — replaying it would miss
        # rows the fresh translation finds.
        fresh = store.query(JOHN_LINES)
        assert len(fresh) == 2 + 12
        stale_rows = store.db.query(stale.sql, stale.params)
        assert len(stale_rows) < len(
            store.db.query(store.plan_cache.get(JOHN_LINES).sql,
                           store.plan_cache.get(JOHN_LINES).params)
        )
        store.close()

    def test_rename_still_bumps_generation(self):
        items_dtd = (
            "<!ELEMENT db (itemA|itemB)*>"
            "<!ELEMENT itemA (name)>"
            "<!ELEMENT itemB (name)>"
            "<!ELEMENT name (#PCDATA)>"
        )
        store = IntervalXmlStore.from_dtd(items_dtd, document_name="items.xml")
        store.load(parse(
            "<db><itemA><name>a1</name></itemA><itemB><name>b1</name></itemB></db>"
        ))
        registry = get_registry()
        before = registry.snapshot()
        generation = store.plan_cache.generation
        store.execute(
            'FOR $d IN document("items.xml")/db, $i IN $d/itemA[name="a1"] '
            "UPDATE $d { RENAME $i TO itemB }"
        )
        after = registry.snapshot()
        assert store.plan_cache.generation > generation
        assert counter_delta(before, after, "cache.plan.invalidations.rename") == 1
        store.interval.validate()
        store.close()

    def test_plain_reads_do_not_bump(self, store):
        generation = store.plan_cache.generation
        store.query(ALL_LINES)
        store.query(ALL_LINES)
        assert store.plan_cache.generation == generation
