"""The four benchmark workloads: generated inputs, client cycles, models.

Each workload owns a deterministic *model* of the state its program
under test must end up in.  The model is plain Python data built from
the seed — it never calls the code it checks — and every read asserts
its exact result against it, so a wrong answer is a failed operation,
not a fast one.

Every workload is stationary: a write that adds a subtree is paired
with one that removes one, so document size, WAL record size and the
reader pool's image size do not drift with how fast a run goes.  All
random choices come from per-connection ``random.Random`` streams keyed
by ``(seed, workload, connection)``; how the two connections interleave
therefore never changes what either of them sends.
"""

from __future__ import annotations

import random
import re
import string
from collections import Counter, deque
from dataclasses import dataclass
from typing import Awaitable, Callable

from repro import serialize
from repro.service import DeltaUpdate, SubtreeCopy, SubtreeDelete
from repro.updates.delta import DeleteNode, InsertNode

#: One connection per CPU of the reference host, one request in flight
#: each (closed loop).  ``svc_execute`` uses a single connection.
CONNECTIONS = 2

#: ``InsertNode`` index meaning "append": any index past the last child.
END = 1 << 30

HOT_SET = 16
TEMPLATES = 4
STRING_LENGTH = 50

SYNTHETIC_DTD = "\n".join(
    [
        "<!ELEMENT root (n1*)>",
        "<!ELEMENT n1 (str, num, n2*)>",
        "<!ELEMENT n2 (str, num)>",
        "<!ELEMENT str (#PCDATA)>",
        "<!ELEMENT num (#PCDATA)>",
    ]
)


@dataclass(frozen=True)
class Sizes:
    """Document sizes and fixed warm-up counts (cycles per connection).

    ``warmup`` cycles run before the setup checkpoint and ``tail``
    cycles after it, so the restart inside setup restores a snapshot
    *and* replays a WAL suffix; ``rewarm`` cycles run on the restarted
    child, which is the one measured, and ``rss_mb`` is read when they
    end.  The full sizes put every setup near three seconds on the
    2-CPU reference host; ``smoke`` keeps the harness self-test short.
    """

    append_entries: int = 250  # per lane
    append_warmup: int = 40
    append_tail: int = 15
    append_rewarm: int = 20
    execute_orders: int = 100  # per lane
    execute_warmup: int = 18
    execute_tail: int = 6
    execute_rewarm: int = 40
    store_subtrees: int = 8000
    store_fanout: int = 2
    store_deletable: int = 3000
    store_warmup: int = 12
    store_tail: int = 4
    store_rewarm: int = 16
    lib_subtrees: int = 6000
    lib_warmup: int = 60

    @classmethod
    def smoke(cls) -> "Sizes":
        return cls(
            append_entries=50, append_warmup=6, append_tail=3, append_rewarm=3,
            execute_orders=30, execute_warmup=3, execute_tail=2, execute_rewarm=3,
            store_subtrees=600, store_deletable=300, store_warmup=3, store_tail=2,
            store_rewarm=3,
            lib_subtrees=1500, lib_warmup=10,
        )


def canon(text: str) -> str:
    """Strip the serializer's indentation so a program answer can be
    compared with model text byte for byte."""
    return re.sub(r">\s+<", "><", text.strip())


def _rng(seed: int, *key: object) -> random.Random:
    return random.Random("/".join(str(part) for part in (seed, *key)))


def _word(rng: random.Random) -> str:
    return "".join(rng.choices(string.ascii_lowercase, k=STRING_LENGTH))


Check = Callable[[object], bool]
#: ``op(kind, awaitable, check)`` — supplied by the load generator: it
#: times the request, counts it, and records a latency sample only when
#: ``check`` accepts the result.  Returns whether the operation passed.
Op = Callable[[str, Awaitable, Check], Awaitable[bool]]


# ----------------------------------------------------------------------
# Document hosts: svc_append, svc_execute
# ----------------------------------------------------------------------
class LaneDocument:
    """The model of a document host: a root holding one ``<lane>`` per
    connection, each a first-in-first-out queue of keyed children."""

    host = "document"
    root = ""

    def __init__(self, seed: int, children: int) -> None:
        self._rngs = [_rng(seed, self.name, k) for k in range(CONNECTIONS)]
        self._next = [0] * CONNECTIONS
        self.lanes: list[deque[str]] = [deque() for _ in range(CONNECTIONS)]
        for k in range(CONNECTIONS):
            for _ in range(children):
                self.lanes[k].append(self.new_child(k)[1])

    def new_child(self, k: int) -> tuple[str, str]:
        """The next child of lane ``k``: its key and its XML."""
        key = f"{k}-{self._next[k]:08d}"
        self._next[k] += 1
        return key, self.child_xml(key, self._rngs[k])

    def oldest_key(self, k: int) -> str:
        return f"{k}-{self._next[k] - len(self.lanes[k]):08d}"

    def replace_oldest(self, k: int, xml: str) -> None:
        self.lanes[k].popleft()
        self.lanes[k].append(xml)

    def document_text(self) -> str:
        lanes = "".join(
            f'<lane key="{k}">{"".join(lane)}</lane>' for k, lane in enumerate(self.lanes)
        )
        return f"<{self.root}>{lanes}</{self.root}>"

    async def verify(self, client, control) -> list[str]:
        if canon(await client.query(self.doc)) != self.document_text():
            return [f"{self.doc} differs from the model"]
        return []


class SvcAppend(LaneDocument):
    """Write-heavy: durable delta appends on a document host."""

    name = "svc_append"
    doc = "log.xml"
    root = "log"
    connections = CONNECTIONS

    def __init__(self, seed: int, sizes: Sizes) -> None:
        self.warmup, self.tail = sizes.append_warmup, sizes.append_tail
        self.rewarm = sizes.append_rewarm
        super().__init__(seed, sizes.append_entries)

    @staticmethod
    def child_xml(key: str, rng: random.Random) -> str:
        return f'<entry key="{key}">{_word(rng)}</entry>'

    async def cycle(self, client, k: int, op: Op) -> None:
        key = xml = ""
        for _ in range(8):
            key, xml = self.new_child(k)
            update = DeltaUpdate(
                self.doc, (DeleteNode((k, 0)), InsertNode((k,), END, xml=xml))
            )
            if await op("write", client.submit_wait(update), lambda seq: seq is not None):
                self.replace_oldest(k, xml)
        statement = (
            f'FOR $e IN document("{self.doc}")/log/lane/entry[@key="{key}"] RETURN $e'
        )
        await op(
            "read",
            client.query(self.doc, statement),
            lambda results: [canon(item) for item in results] == [xml],
        )


class SvcExecute(LaneDocument):
    """Server-side ``execute``: scratch copy, XQuery, diff, delta.

    One connection, alternating between the two lanes.  The server
    serialises update statements per document anyway, and with a second
    connection each read either raced the other connection's update for
    the GIL or did not: ``read_p50_ms`` flipped between 2.6 and 8 ms
    from one second to the next (a spread of half its median).
    """

    name = "svc_execute"
    doc = "orders.xml"
    root = "orders"
    connections = 1

    def __init__(self, seed: int, sizes: Sizes) -> None:
        self.warmup, self.tail = sizes.execute_warmup, sizes.execute_tail
        self.rewarm = sizes.execute_rewarm
        self._cycles = 0
        super().__init__(seed, sizes.execute_orders)

    @staticmethod
    def child_xml(key: str, rng: random.Random) -> str:
        return f'<order key="{key}" qty="{rng.randrange(1, 100)}"/>'

    async def cycle(self, client, _: int, op: Op) -> None:
        k = self._cycles % CONNECTIONS
        self._cycles += 1
        oldest = self.oldest_key(k)
        key, xml = self.new_child(k)
        update = (
            f'FOR $l IN document("{self.doc}")/orders/lane[@key="{k}"], '
            f'$o IN $l/order[@key="{oldest}"] '
            f"UPDATE $l {{ DELETE $o, INSERT {xml} }}"
        )
        if await op(
            "write",
            client.execute(self.doc, update),
            lambda reply: reply.get("seq") is not None and reply["delta_ops"] >= 1,
        ):
            self.replace_oldest(k, xml)
        read = (
            f'FOR $o IN document("{self.doc}")/orders/lane/order[@key="{key}"] '
            "RETURN $o"
        )
        await op(
            "read",
            client.execute(self.doc, read),
            lambda reply: [canon(item) for item in reply.get("results", ())] == [xml],
        )


# ----------------------------------------------------------------------
# The synthetic relational document (svc_store_mix, lib_update)
# ----------------------------------------------------------------------
class SyntheticDocument:
    """Depth-2 fixed synthetic document (paper §7.1.1): ``subtrees``
    ``n1`` elements with a unique 50-character string each and
    ``fanout`` ``n2`` children."""

    def __init__(self, rng: random.Random, subtrees: int, fanout: int) -> None:
        self.fanout = fanout
        self.strs: list[str] = []
        self.xml: list[str] = []
        for _ in range(subtrees):
            text, xml = self.subtree(rng)
            self.strs.append(text)
            self.xml.append(xml)

    def subtree(self, rng: random.Random) -> tuple[str, str]:
        text = _word(rng)
        children = "".join(
            f"<n2><str>{_word(rng)}</str><num>{rng.randrange(10**6)}</num></n2>"
            for _ in range(self.fanout)
        )
        return text, (
            f"<n1><str>{text}</str><num>{rng.randrange(10**6)}</num>{children}</n1>"
        )

    def text(self) -> str:
        return f"<root>{''.join(self.xml)}</root>"


def select_n1(doc: str, text: str) -> str:
    return f'FOR $x IN document("{doc}")/root/n1[str="{text}"] RETURN $x'


# ----------------------------------------------------------------------
# svc_store_mix
# ----------------------------------------------------------------------
class SvcStoreMix:
    """Read-heavy: cached and uncached queries beside durable subtree
    deletes and copies on a store host (shared inlining).

    Subtree indices are partitioned so nothing collides: ``[0, 16)`` is
    the hot set, the next four are copy templates, the next
    ``store_deletable`` are delete targets, the rest are read once each
    as never-seen statement texts.  Hot and template subtrees are never
    deleted.
    """

    name = "svc_store_mix"
    doc = "db.xml"
    host = "store"
    connections = CONNECTIONS

    def __init__(self, seed: int, sizes: Sizes) -> None:
        self.warmup, self.tail = sizes.store_warmup, sizes.store_tail
        self.rewarm = sizes.store_rewarm
        self.data = SyntheticDocument(
            _rng(seed, self.name), sizes.store_subtrees, sizes.store_fanout
        )
        first_delete = HOT_SET + TEMPLATES
        first_cold = first_delete + sizes.store_deletable
        # One template stripe per connection: two copies of the *same*
        # subtree coalesced into one batch are applied once (the merged
        # id set is de-duplicated), which a model cannot predict.
        self._templates = list(range(HOT_SET, first_delete))
        self._deletes = [
            iter(range(first_delete + k, first_cold, CONNECTIONS))
            for k in range(CONNECTIONS)
        ]
        self._cold = [
            iter(range(first_cold + k, sizes.store_subtrees, CONNECTIONS))
            for k in range(CONNECTIONS)
        ]
        self._reads = [0] * CONNECTIONS
        self._writes = [0] * CONNECTIONS
        self.deleted: list[int] = []
        self.copies: Counter[int] = Counter()
        #: Tuple ids, reported by the launcher after the load: the root
        #: and each ``n1`` subtree in document order.
        self.root_id = 0
        self.n1_ids: list[int] = []

    def document_text(self) -> str:
        return self.data.text()

    def bind_ids(self, info: dict) -> None:
        self.root_id, self.n1_ids = info["root_id"], info["n1_ids"]

    def _expect(self, index: int) -> Check:
        expected = [self.data.xml[index]]
        return lambda results: [canon(item) for item in results] == expected

    async def cycle(self, client, k: int, op: Op) -> None:
        for slot in range(8):
            if slot < 7:
                index = (self._reads[k] * CONNECTIONS + k) % HOT_SET
                self._reads[k] += 1
            else:
                index = next(self._cold[k])
            statement = select_n1(self.doc, self.data.strs[index])
            await op("read", client.query(self.doc, statement), self._expect(index))
        count = self._writes[k]
        self._writes[k] += 1
        if count % 2 == 0:
            index = next(self._deletes[k])
            update = SubtreeDelete(self.doc, "n1", (self.n1_ids[index],))
            if await op("write", client.submit_wait(update), lambda seq: seq is not None):
                self.deleted.append(index)
        else:
            index = self._templates[k::CONNECTIONS][count // 2 % (TEMPLATES // CONNECTIONS)]
            update = SubtreeCopy(self.doc, "n1", (self.n1_ids[index],), self.root_id)
            if await op("write", client.submit_wait(update), lambda seq: seq is not None):
                self.copies[index] += 1

    async def verify(self, client, control) -> list[str]:
        problems = []
        subtrees = len(self.data.strs) - len(self.deleted) + sum(self.copies.values())
        expected = {"n1": subtrees, "n2": subtrees * self.data.fanout}
        counts = await control("counts")
        if counts != expected:
            problems.append(f"tuple counts {counts} differ from the model {expected}")
        spots = [(0, 1)]
        spots += [(index, 0) for index in self.deleted[:2] + self.deleted[-2:]]
        spots += [(index, 1 + self.copies[index]) for index in self._templates]
        for index, want in spots:
            results = await client.query(self.doc, select_n1(self.doc, self.data.strs[index]))
            if [canon(item) for item in results] != [self.data.xml[index]] * want:
                problems.append(f"subtree {index}: expected {want} exact result(s)")
        return problems


# ----------------------------------------------------------------------
# lib_update
# ----------------------------------------------------------------------
class LibUpdate:
    """The paper's own path: ``XmlStore`` update statements translated
    to SQL and queries through the Sorted Outer Union — no service, no
    sockets, no WAL.  Runs inside its child process (``lib_main``)."""

    name = "lib_update"
    doc = "db.xml"
    host = "lib"

    def __init__(self, seed: int, sizes: Sizes) -> None:
        self.warmup = sizes.lib_warmup
        self._rng = _rng(seed, self.name, "fresh")
        self.data = SyntheticDocument(_rng(seed, self.name), sizes.lib_subtrees, 2)
        self._victims = iter(range(HOT_SET, sizes.lib_subtrees))
        self._cycles = 0
        self.deleted: list[int] = []
        self.inserted: list[tuple[str, str]] = []

    def document_text(self) -> str:
        return self.data.text()

    def cycle(self, store, op: Callable[[str, Callable[[], object], Check], bool]) -> None:
        victim = next(self._victims)
        text, xml = self.data.subtree(self._rng)
        update = (
            f'FOR $r IN document("{self.doc}")/root, '
            f'$x IN $r/n1[str="{self.data.strs[victim]}"] '
            f"UPDATE $r {{ DELETE $x, INSERT {xml} }}"
        )

        def write() -> None:
            store.execute(update)
            store.db.commit()

        if op("write", write, lambda _: True):
            self.deleted.append(victim)
            self.inserted.append((text, xml))
        hot = self._cycles % HOT_SET
        self._cycles += 1
        for wanted, statement in (
            (self.data.xml[hot], select_n1(self.doc, self.data.strs[hot])),
            (xml, select_n1(self.doc, text)),
        ):
            op(
                "read",
                lambda statement=statement: store.query(statement),
                lambda nodes, wanted=wanted: _serialized(nodes) == [wanted],
            )

    def verify(self, store) -> list[str]:
        problems = []
        subtrees = len(self.data.strs) - len(self.deleted) + len(self.inserted)
        expected = {"n1": subtrees, "n2": subtrees * self.data.fanout}
        counts = {name: store.tuple_count(name) for name in expected}
        if counts != expected:
            problems.append(f"tuple counts {counts} differ from the model {expected}")
        spots = [(self.data.strs[0], [self.data.xml[0]])]
        spots += [(self.data.strs[i], []) for i in self.deleted[:2] + self.deleted[-2:]]
        spots += [(text, [xml]) for text, xml in self.inserted[:2] + self.inserted[-2:]]
        for text, want in spots:
            if _serialized(store.query(select_n1(self.doc, text))) != want:
                problems.append(f"n1[str={text[:8]}...]: expected {len(want)} exact result(s)")
        return problems


def _serialized(nodes) -> list[str]:
    return [canon(serialize(node)) for node in nodes]


WORKLOADS = {
    cls.name: cls for cls in (SvcAppend, SvcStoreMix, SvcExecute, LibUpdate)
}
