"""Server-side ``execute`` of update statements through a real server.

``UpdateService.execute`` runs a statement on a copy of the live
document and submits the effect the executor recorded.  These tests
pin what that buys: paths that count every live node (adjacent PCDATA
included), a recovered document byte-identical to the live one with or
without a checkpoint between statements, and nothing submitted by a
statement that fails part-way.
"""

import pytest

from repro.errors import ModelError, ServiceError
from repro.service import (
    AsyncNetServer,
    DeltaUpdate,
    ServiceClient,
    ServiceConfig,
    UpdateService,
)
from repro.updates.delta import InsertNode
from repro.xmlmodel import parse
from repro.xmlmodel.policy import RefPolicy
from repro.xmlmodel.serializer import serialize
from repro.xquery import XQueryEngine
from tests.conftest import BIO_XML

DOC = "bio.xml"
TIMEOUT = 30

#: The paper's biology policy, plus ``heads`` so a renamed ``managers``
#: list stays a reference when a checkpoint snapshot is parsed back.
POLICY = RefPolicy.explicit(
    references=("managers", "heads"),
    singleton_references=("source", "biologist", "lab", "worksAt"),
)

#: Every primitive of §3.2 on the paper's Figure 1 document: Examples
#: 1-5, then renames of an element, an attribute and an IDREFS list.
STATEMENTS = [
    f"""FOR $p IN document("{DOC}")/db/paper, $cat IN $p/@category,
            $bio IN $p/ref(biologist,"smith1"), $ti IN $p/title
        UPDATE $p {{ DELETE $cat, DELETE $bio, DELETE $ti }}""",
    f"""FOR $bio in document("{DOC}")/db/biologist[@ID="smith1"]
        UPDATE $bio {{
            INSERT new_attribute(age,"29"), INSERT new_ref(worksAt,"ucla"),
            INSERT new_ref(worksAt,"baselab"), INSERT <firstname>Jeff</firstname>
        }}""",
    f"""FOR $lab in document("{DOC}")/db/lab[@ID="baselab"], $n IN $lab/name,
            $sref IN $lab/ref(managers,"smith1")
        UPDATE $lab {{
            INSERT "jones1" BEFORE $sref, INSERT <street>Oak</street> AFTER $n
        }}""",
    f"""FOR $lab in document("{DOC}")/db/lab[@ID="baselab"], $name IN $lab/name,
            $mgr IN $lab/ref(managers, "smith1")
        UPDATE $lab {{
            REPLACE $name WITH <appellation>Fancy Lab</>,
            REPLACE $mgr WITH new_attribute(managers,"lab2")
        }}""",
    f"""FOR $u in document("{DOC}")/db/university[@ID="ucla"], $lab IN $u/lab
        WHERE $lab.index() = 0
        UPDATE $u {{
            INSERT new_attribute(labs,"2"),
            INSERT <lab ID="newlab"><name>UCLA Secondary Lab</name></lab> BEFORE $lab,
            FOR $l1 IN $u/lab, $labname IN $l1/name, $ci IN $l1/city
            UPDATE $l1 {{
                REPLACE $labname WITH <name>UCLA Primary Lab</>, DELETE $ci
            }}
        }}""",
    f"""FOR $b IN document("{DOC}")/db/biologist[@ID="jones1"], $a IN $b/@age,
            $l IN $b/lastname
        UPDATE $b {{ RENAME $a TO years, RENAME $l TO surname }}""",
    f"""FOR $lab IN document("{DOC}")/db/lab[@ID="baselab"],
            $m IN $lab/ref(managers, "jones1")
        UPDATE $lab {{ RENAME $m TO heads }}""",
]


def make_service(**config):
    service = UpdateService(ServiceConfig(batch_size=4, **config))
    service.host_document(DOC, parse(BIO_XML, policy=POLICY), POLICY)
    return service


class TestAdjacentText:
    def test_execute_deletes_the_bound_node_beside_adjacent_text(self):
        """Two adjacent PCDATA nodes on the live tree: the statement's
        paths must count both, as the committer will."""
        service = UpdateService(ServiceConfig())
        service.host_document("doc.xml", parse("<r><a/><b/></r>"))
        server = AsyncNetServer(service.start(), own_service=True).start()
        try:
            with ServiceClient(*server.address) as client:
                for index, text in enumerate("xy"):
                    client.submit_wait(
                        DeltaUpdate("doc.xml", (InsertNode((), index, text=text),))
                    )
                outcome = client.execute(
                    "doc.xml",
                    'FOR $r IN document("doc.xml")/r, $b IN $r/b UPDATE $r { DELETE $b }',
                )
                assert outcome["delta_ops"] == 1
                assert client.query("doc.xml") == "<r>xy<a/></r>"
        finally:
            server.close()


class TestRecordedDeltasAreDurable:
    @pytest.mark.parametrize("checkpoint_after", [None, 3], ids=["wal", "checkpoint"])
    def test_recovered_document_is_byte_identical(self, tmp_path, checkpoint_after):
        wal_path = str(tmp_path / "bio.wal")
        service = make_service(wal_path=wal_path).start()
        server = AsyncNetServer(service, own_service=True).start()
        try:
            with ServiceClient(*server.address) as client:
                for index, statement in enumerate(STATEMENTS):
                    outcome = client.execute(DOC, statement, timeout=TIMEOUT)
                    assert outcome["delta_ops"] >= 1, statement
                    if index == checkpoint_after:
                        assert client.checkpoint()["documents"] == 1
                live = client.query(DOC)
        finally:
            server.close()

        reference = parse(BIO_XML, policy=POLICY)
        engine = XQueryEngine({DOC: reference}, policy=POLICY)
        for statement in STATEMENTS:
            engine.execute(statement)
        assert live == serialize(reference)

        restarted = make_service(wal_path=wal_path)
        report = restarted.recover()
        restarted.start()
        try:
            assert restarted.query(DOC) == live
        finally:
            restarted.close()
        assert report.snapshot_docs == (0 if checkpoint_after is None else 1)
        assert report.failed == 0


class TestFailedStatement:
    def test_statement_failing_part_way_submits_nothing(self, tmp_path):
        """The delete runs on the copy, then the duplicate attribute
        insert fails: no delta reaches the WAL or the live document."""
        service = make_service(wal_path=str(tmp_path / "bio.wal")).start()
        try:
            before = service.query(DOC)
            next_seq = service.wal.next_seq
            with pytest.raises(ModelError):
                service.execute(
                    DOC,
                    f"""FOR $b IN document("{DOC}")/db/biologist[@ID="jones1"],
                            $l IN $b/lastname
                        UPDATE $b {{ DELETE $l, INSERT new_attribute(age,"40") }}""",
                    timeout=TIMEOUT,
                )
            service.flush(TIMEOUT)
            assert service.wal.next_seq == next_seq
            assert service.query(DOC) == before
        finally:
            service.close()

    def test_update_statement_on_a_store_host_is_refused(self):
        from repro.relational.store import XmlStore
        from repro.xmlmodel import parse_dtd
        from tests.conftest import CUSTOMER_DTD, CUSTOMER_XML

        store = XmlStore.from_dtd(parse_dtd(CUSTOMER_DTD), document_name="custdb.xml")
        store.load(parse(CUSTOMER_XML))
        service = UpdateService(ServiceConfig())
        service.host_store("custdb.xml", store)
        service.start()
        try:
            with pytest.raises(ServiceError, match="store-hosted"):
                service.execute(
                    "custdb.xml",
                    'FOR $d IN document("custdb.xml")/CustDB UPDATE $d { INSERT <x/> }',
                )
        finally:
            service.close()
            store.close()
