"""Cost cards: the work one canonical operation does, counted.

Each row runs one operation in-process, the shape the benchmark's
workload drives, on a fixed document, and pins exact counts read as
:class:`~repro.obs.MetricsRegistry` deltas.  A count is the claim a
timing then has to show: a change that makes one rise edits its row
and says why.

========================  ===================================================
operation                 shape
========================  ===================================================
``execute_update``        ``svc_execute``: one update statement through
                          ``UpdateService.execute`` (delete the oldest order
                          of a lane, insert a new one) on 2 x 100 orders
``execute_read``          ``svc_execute``: one read statement through
                          ``UpdateService.execute`` (the order with a given
                          key) on 2 x 100 orders
``durable_append``        ``svc_append``: one two-op delta (delete a lane's
                          first entry, append one) on 2 x 250 entries
``execute_read_store``    no workload: one read statement through
                          ``UpdateService.execute`` on a store host (the
                          customers of one city, Figure 4's DTD)
========================  ===================================================

The statement runs in place on the committer, so it copies nothing, and
no write rebuilds the ID index; a dangling IDREF rebuilds it at most
once per write, not once per lookup.  ``execute`` parses its statement
once, under the host's policy: a read hands the parsed statement to
the query pool (with its text, which a store host keys its plan cache
by), so each ``execute`` makes one statement-cache lookup
(``cache.parse.hits`` plus ``cache.parse.misses``) on either host kind.
"""

import pytest

from repro.obs import counter_delta, get_registry
from repro.relational.store import XmlStore
from repro.service import DeltaUpdate, ServiceConfig, UpdateService
from repro.updates.delta import DeleteNode, InsertNode
from repro.workloads.tpcw import CUSTOMER_DTD, CustomerParams, generate_customers
from repro.xmlmodel import parse

COPIES = "xmlmodel.document.copies"
REINDEXES = "xmlmodel.document.reindexes"
APPENDS = "wal.appends"
FSYNCS = "wal.fsyncs"
#: Statement-cache lookups: the sum of two counters, not one counter.
LOOKUPS = "cache.parse.lookups"
PLAN_HITS = "cache.plan.hits"
TIMEOUT = 30
END = 1 << 30


def lanes(root, child, per_lane):
    """A ``svc_*``-shaped document: two lanes of keyed children."""
    body = "".join(
        f'<lane key="{k}">'
        + "".join(child(f"{k}-{i:08d}") for i in range(per_lane))
        + "</lane>"
        for k in range(2)
    )
    return f"<{root}>{body}</{root}>"


def host_orders(service):
    doc = "orders.xml"
    service.host_document(
        doc, parse(lanes("orders", lambda key: f'<order key="{key}" qty="7"/>', 100))
    )
    service.start()
    return doc


def execute_update(service):
    doc = host_orders(service)
    yield lambda: service.execute(
        doc,
        f'FOR $l IN document("{doc}")/orders/lane[@key="0"], '
        f'$o IN $l/order[@key="0-00000000"] '
        'UPDATE $l { DELETE $o, INSERT <order key="0-00000100" qty="9"/> }',
        timeout=TIMEOUT,
    )


def execute_read(service):
    doc = host_orders(service)
    yield lambda: service.execute(
        doc,
        f'FOR $o IN document("{doc}")/orders/lane/order[@key="1-00000042"] RETURN $o',
        timeout=TIMEOUT,
    )


def durable_append(service):
    doc = "log.xml"
    service.host_document(
        doc, parse(lanes("log", lambda key: f'<entry key="{key}">abcdefgh</entry>', 250))
    )
    service.start()
    yield lambda: service.submit_wait(
        DeltaUpdate(
            doc,
            (DeleteNode((0, 0)), InsertNode((0,), END, xml='<entry key="0-n">x</entry>')),
        ),
        timeout=TIMEOUT,
    )


def execute_read_store(service):
    doc = "c.xml"
    store = XmlStore.from_dtd(CUSTOMER_DTD, document_name=doc)
    store.load(generate_customers(CustomerParams(customers=4, seed=1)))
    service.host_store(doc, store)
    service.start()
    yield lambda: service.execute(
        doc,
        f'FOR $c IN document("{doc}")/CustDB/Customer '
        'WHERE $c/Address/City = "Seattle" RETURN $c',
        timeout=TIMEOUT,
    )


#: operation -> its pinned counts.  Before statements ran in place on
#: the committer, execute_update copied the document once and rebuilt
#: an ID index twice, and durable_append rebuilt one twice (the parsed
#: insert fragment's and the whole document's); 100 dangling lookups
#: rebuilt the index 100 times.  Before the query pool took the parsed
#: statement, execute_read looked it up in the statement cache twice,
#: and execute_read_store did until the store took it parsed, keyed by
#: its text (so its plan is still cached).
CARDS = {
    execute_update: {COPIES: 0, REINDEXES: 0, APPENDS: 2, FSYNCS: 1, LOOKUPS: 1},
    execute_read: {COPIES: 0, REINDEXES: 0, APPENDS: 0, FSYNCS: 0, LOOKUPS: 1},
    durable_append: {COPIES: 0, REINDEXES: 0, APPENDS: 2, FSYNCS: 1},
    execute_read_store: {APPENDS: 0, FSYNCS: 0, LOOKUPS: 1, PLAN_HITS: 1},
}


def count(before, after, name):
    if name == LOOKUPS:
        return sum(
            counter_delta(before, after, f"cache.parse.{outcome}")
            for outcome in ("hits", "misses")
        )
    return counter_delta(before, after, name)


@pytest.mark.parametrize("operation", list(CARDS), ids=lambda op: op.__name__)
def test_cost_card(operation, tmp_path):
    service = UpdateService(ServiceConfig(wal_path=str(tmp_path / "doc.wal")))
    registry = get_registry()
    try:
        steps = operation(service)
        run = next(steps)
        run()  # warm: the statement cache and first-use paths
        before = registry.snapshot()
        run()
        after = registry.snapshot()
    finally:
        service.close()
    counts = {name: count(before, after, name) for name in CARDS[operation]}
    assert counts == CARDS[operation]


def test_dangling_idref_rebuilds_the_index_at_most_once_per_write():
    """100 ``->`` lookups of an ID nothing carries, after one write."""
    doc = "x.xml"
    service = UpdateService(ServiceConfig())
    service.host_document(
        doc,
        parse(
            "<!DOCTYPE r [<!ATTLIST p ID ID #REQUIRED ref IDREF #IMPLIED>]>"
            '<r><p ID="a"/><p ID="b" ref="gone"/></r>'
        ),
    )
    service.start()
    registry = get_registry()
    follow = f'FOR $p IN document("{doc}")/r/p[@ref], $t IN $p/@ref-> RETURN $t'
    try:
        service.execute(doc, f'FOR $r IN document("{doc}")/r UPDATE $r {{ INSERT <q/> }}')
        before = registry.snapshot()
        for _ in range(100):
            assert service.execute(doc, follow, timeout=TIMEOUT)["results"] == []
        after = registry.snapshot()
    finally:
        service.close()
    assert counter_delta(before, after, REINDEXES) <= 1
