"""Value-column indexes: every inlined PCDATA/attribute column is indexed,
so a value predicate seeks its matches instead of walking every child of
the parent (the paper's "scan vs. index lookup" scope)."""

import os
import sqlite3

import pytest

from repro.errors import StorageError
from repro.relational.database import Database
from repro.relational.inlining import derive_inlining_schema
from repro.relational.interval_store import IntervalXmlStore
from repro.relational.ordered_store import OrderedXmlStore
from repro.relational.store import XmlStore
from repro.service import StoreHost
from repro.xmlmodel.dtd import parse_dtd
from repro.xmlmodel.parser import parse

from tests.conftest import CUSTOMER_DTD

SYNTHETIC_DTD = """\
<!ELEMENT root (n1*)>
<!ELEMENT n1 (str, num, n2*)>
<!ELEMENT n2 (str, num)>
<!ELEMENT str (#PCDATA)>
<!ELEMENT num (#PCDATA)>
"""

SYNTHETIC_XML = "<root>%s</root>" % "".join(
    f"<n1><str>s{i}</str><num>{i}</num><n2><str>t{i}</str><num>1</num></n2></n1>"
    for i in range(20)
)

QUERY = 'FOR $x IN document("d.xml")/root/n1[str="s3"] RETURN $x'
DELETE = 'FOR $r IN document("d.xml")/root, $x IN $r/n1[str="s4"] UPDATE $r {DELETE $x}'
REPLACE = (
    'FOR $r IN document("d.xml")/root, $x IN $r/n1[str="s5"] '
    "UPDATE $r {DELETE $x, INSERT <n1><str>new</str><num>1</num>"
    "<n2><str>u</str><num>2</num></n2></n1>}"
)
QUERY_INSERTED = 'FOR $x IN document("d.xml")/root/n1[str="new"] RETURN $x'

STORES = [XmlStore, OrderedXmlStore, IntervalXmlStore]


def _loaded(store_class):
    store = store_class.from_dtd(SYNTHETIC_DTD, document_name="d.xml")
    store.load(parse(SYNTHETIC_XML))
    return store


def _run(store, statement):
    if "UPDATE" in statement:
        store.execute(statement)
    else:
        store.query(statement)


def _traced(store, statement):
    """The SQL ``statement`` issued, with bound parameters expanded."""
    issued: list[str] = []
    store.db._connection.set_trace_callback(issued.append)
    try:
        _run(store, statement)
    finally:
        store.db._connection.set_trace_callback(None)
    return issued


def _plan(db, sql):
    return [row[-1] for row in db._connection.execute("EXPLAIN QUERY PLAN " + sql)]


def _value_index_names(db):
    return {
        name
        for (name,) in db.query(
            "SELECT name FROM sqlite_master WHERE type = 'index' AND name LIKE '%(%'"
        )
    }


class TestIndexNames:
    # Under naive ``idx_<table>_<column>`` naming this DTD collides twice:
    # the inlined child ``parent`` of ``a`` meets a's ``parentId`` index,
    # and a's column ``b_c`` meets table ``a_b``'s column ``c``.
    COLLIDING_DTD = """\
<!ELEMENT db (a*, a_b*)>
<!ELEMENT a (parent, b)>
<!ATTLIST a ID ID #REQUIRED>
<!ELEMENT parent (#PCDATA)>
<!ELEMENT b (c)>
<!ELEMENT c (#PCDATA)>
<!ELEMENT a_b (c)>
"""

    def test_colliding_dtd_creates_distinct_indexes(self):
        schema = derive_inlining_schema(parse_dtd(self.COLLIDING_DTD))
        relations = schema.relations
        assert {"a", "a_b"} <= set(relations)
        assert set(relations["a"].data_columns) == {"ID_2", "parent", "b_c"}
        naive = [f"idx_{name}_parent" for name in relations] + [
            f"idx_{name}_{column}"
            for name, relation in relations.items()
            for column in relation.data_columns
        ]
        assert len(set(naive)) < len(naive)

        connection = sqlite3.connect(":memory:")
        for statement in schema.create_all_sql():
            connection.execute(statement)
        names = [
            name
            for (name,) in connection.execute(
                "SELECT name FROM sqlite_master WHERE type = 'index'"
            )
        ]
        assert len(names) == len(set(names))
        assert {
            "idx_a_parent",
            "idx_a(parent)",
            "idx_a(b_c)",
            "idx_a(ID_2)",
            "idx_a_b(c)",
        } <= set(names)

    def test_only_pcdata_and_attribute_columns_are_indexed(self):
        dtd = """\
<!ELEMENT db (item*)>
<!ELEMENT item (name, extra?)>
<!ATTLIST item ID ID #REQUIRED ref IDREF #IMPLIED>
<!ELEMENT name (#PCDATA)>
<!ELEMENT extra (note)>
<!ELEMENT note (#PCDATA)>
"""
        schema = derive_inlining_schema(parse_dtd(dtd))
        assert {f.column: f.kind for f in schema.relations["item"].fields} == {
            "ID_2": "attribute",
            "ref": "refs",
            "name": "pcdata",
            "extra_present": "presence",
            "extra_note": "pcdata",
        }
        db = Database()
        for statement in schema.create_all_sql():
            db.execute(statement)
        assert _value_index_names(db) == {
            "idx_item(ID_2)",
            "idx_item(name)",
            "idx_item(extra_note)",
        }

    def test_index_ddl_is_idempotent(self):
        schema = derive_inlining_schema(parse_dtd(SYNTHETIC_DTD))
        db = Database()
        for statement in schema.create_all_sql():
            db.execute(statement)
        for statement in schema.create_index_sql():
            db.execute(statement)


class TestPlans:
    @pytest.mark.parametrize("store_class", STORES)
    @pytest.mark.parametrize("statement", [QUERY, DELETE], ids=["query", "update"])
    def test_value_predicate_seeks_the_value_index(self, store_class, statement):
        store = _loaded(store_class)
        selections = [sql for sql in _traced(store, statement) if '"n1"."str" =' in sql]
        assert selections
        for sql in selections:
            plan = _plan(store.db, sql)
            assert "SEARCH n1 USING INDEX idx_n1(str) (str=?)" in plan, plan
            assert not [line for line in plan if "idx_n1_parent" in line], plan
            assert not [line for line in plan if line.startswith("SCAN n1")], plan

    def test_paper_customer_query_seeks_the_name_index(self, customer_document):
        store = XmlStore.from_dtd(CUSTOMER_DTD, document_name="custdb.xml")
        store.load(customer_document)
        issued = _traced(
            store,
            'FOR $c IN document("custdb.xml")/CustDB/Customer[Name="John"] RETURN $c',
        )
        [selection] = [sql for sql in issued if '"Customer"."Name" =' in sql]
        assert "SEARCH Customer USING INDEX idx_Customer(Name) (Name=?)" in _plan(
            store.db, selection
        )

    @pytest.mark.parametrize(
        "store_class, expected",
        [
            (XmlStore, [1, 1, 8, 1]),
            (OrderedXmlStore, [2, 4, 17, 2]),
            (IntervalXmlStore, [2, 5, 67, 2]),
        ],
    )
    def test_statement_counts_are_unchanged(self, store_class, expected):
        # The same counts as a store without value indexes: an index
        # changes a statement's plan, never its SQL.
        store = _loaded(store_class)
        counts = []
        for statement in (QUERY, DELETE, REPLACE, QUERY_INSERTED):
            store.db.counts.reset()
            _run(store, statement)
            counts.append(store.db.counts.total)
        assert counts == expected


class TestRestore:
    def test_restored_pre_index_image_gains_the_value_indexes(self):
        store = _loaded(XmlStore)
        for name in _value_index_names(store.db):
            store.db.execute(f'DROP INDEX "{name}"')
        store.db.commit()
        image = store.db.dump_bytes()
        old = Database()
        old.load_bytes(image)
        assert _value_index_names(old) == set()
        old.close()

        host = StoreHost("d.xml", _loaded(XmlStore))
        host.restore_state(image)
        [selection] = [
            sql for sql in _traced(host.store, QUERY) if '"n1"."str" =' in sql
        ]
        assert "SEARCH n1 USING INDEX idx_n1(str) (str=?)" in _plan(
            host.store.db, selection
        )
        assert len(host.store.query(QUERY)) == 1

    @pytest.fixture(params=[0, 2], ids=["unpooled", "pooled"])
    def db(self, request, tmp_path, monkeypatch):
        db = Database()
        db.execute('CREATE TABLE "t" (id INTEGER PRIMARY KEY, val TEXT)')
        db.executemany('INSERT INTO "t" (id, val) VALUES (?, ?)', [(1, "a"), (2, "b")])
        db.commit()
        if request.param:
            db.configure_pool(request.param)
        ram = tmp_path / "ram"
        ram.mkdir()
        monkeypatch.setattr("repro.relational.database._memory_directory", lambda: str(ram))
        yield db, ram
        db.close()

    def test_load_bytes_leaves_no_temporary_file(self, db):
        db, ram = db
        image = db.dump_bytes()
        db.execute('DELETE FROM "t"')
        db.commit()
        db.load_bytes(image)
        assert db.read_query('SELECT COUNT(*) FROM "t"') == [(2,)]
        assert os.listdir(ram) == []

    def test_corrupt_image_raises_and_leaves_no_temporary_file(self, db):
        db, ram = db
        with pytest.raises(StorageError, match="cannot load database image"):
            db.load_bytes(b"not a database image " * 256)
        assert os.listdir(ram) == []
        assert db.read_query('SELECT COUNT(*) FROM "t"') == [(2,)]
