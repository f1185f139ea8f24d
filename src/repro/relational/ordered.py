"""Order-preserving relational storage (the paper's §8 future work).

The paper's conclusion sketches the problem: a query-only repository
keeps document order by storing each element's child position and
sorting on output, but *updates* that insert between existing siblings
must "push" the positions of old data forward.  This module implements
the sketch plus the two classic maintenance policies:

* :class:`RenumberPolicy` — dense positions 0,1,2,...; an insert at
  position *k* first shifts every following sibling
  (``UPDATE ... SET pos = pos + 1 WHERE parentId = ? AND pos >= ?``).
  Simple, but each front insert costs O(siblings).
* :class:`GapPolicy` — positions spaced ``gap`` apart (…1024, 2048,…);
  an insert takes the midpoint between its neighbours and only when a
  gap is exhausted are that parent's children renumbered.  Amortises
  the push.

:class:`OrderedStore` keeps one ``doc_order`` side table
(tuple id → parent id → position) next to any inlining-mapped store, so
the unordered schema and all of Section 6's strategies keep working.
It is one of the store's two side tables (the other is
:class:`~repro.relational.interval.IntervalIndex`): ``XmlStore`` calls
its hooks after loads and writes, for positional splices and for
order-aware reads.  The ablation benchmark
``benchmarks/test_ablation_order.py`` compares the policies' push costs.
"""

from __future__ import annotations

import copy
from typing import Optional, Sequence

from repro.errors import StorageError
from repro.relational.store import XmlStore

ORDER_TABLE = "doc_order"


class OrderPolicy:
    """How positions are assigned and maintained."""

    name = "abstract"

    def initial_positions(self, count: int) -> list[int]:
        raise NotImplementedError

    def insert_at(self, store: "OrderedStore", parent_id: int, index: int) -> int:
        """Make room at child index ``index`` under ``parent_id`` and
        return the position value the new tuple should use."""
        raise NotImplementedError


class RenumberPolicy(OrderPolicy):
    """Dense 0..n-1 positions; inserts shift all following siblings."""

    name = "renumber"

    def initial_positions(self, count: int) -> list[int]:
        return list(range(count))

    def insert_at(self, store: "OrderedStore", parent_id: int, index: int) -> int:
        siblings = store.child_positions(parent_id)
        if index < 0 or index > len(siblings):
            raise StorageError(f"insert index {index} out of range")
        position = siblings[index][1] if index < len(siblings) else len(siblings)
        # The paper's "push": one UPDATE shifting everything at or after.
        store.db.execute(
            f"UPDATE {ORDER_TABLE} SET pos = pos + 1 "
            "WHERE parentId = ? AND pos >= ?",
            (parent_id, position),
        )
        return position


class GapPolicy(OrderPolicy):
    """Spaced positions; inserts bisect, renumbering only when full."""

    name = "gap"

    def __init__(self, gap: int = 1024) -> None:
        if gap < 2:
            raise ValueError("gap must be at least 2")
        self.gap = gap
        self.rebalances = 0  # observable in the ablation

    def initial_positions(self, count: int) -> list[int]:
        return [self.gap * (i + 1) for i in range(count)]

    def insert_at(self, store: "OrderedStore", parent_id: int, index: int) -> int:
        siblings = store.child_positions(parent_id)
        if index < 0 or index > len(siblings):
            raise StorageError(f"insert index {index} out of range")
        before = siblings[index - 1][1] if index > 0 else 0
        after = siblings[index][1] if index < len(siblings) else before + 2 * self.gap
        if after - before > 1:
            return (before + after) // 2
        # Gap exhausted: renumber this parent's children, then retry.
        self.rebalances += 1
        store.db.execute(
            f"UPDATE {ORDER_TABLE} SET pos = pos * ? WHERE parentId = ?",
            (self.gap, parent_id),
        )
        return self.insert_at(store, parent_id, index)


class OrderedStore:
    """Document order on top of an (unordered) :class:`XmlStore`.

    Tracks, for every relation-anchored tuple, its position among its
    parent tuple's relation-anchored children.  Inlined elements keep
    their mapping-determined positions (they occur at most once, so the
    DTD already fixes where they belong).
    """

    #: Positions order siblings per parent, not the whole document.
    positions_global = False
    #: No descendant lowering: positions say nothing about depth.
    resolver = None

    def __init__(self, store: XmlStore, policy: Optional[OrderPolicy] = None) -> None:
        self.store = store
        self.db = store.db
        self.policy = policy or RenumberPolicy()
        self.db.execute(
            f"CREATE TABLE IF NOT EXISTS {ORDER_TABLE} ("
            "id INTEGER PRIMARY KEY, parentId INTEGER, pos INTEGER)"
        )
        self.db.execute(
            f"CREATE INDEX IF NOT EXISTS idx_{ORDER_TABLE}_parent "
            f"ON {ORDER_TABLE} (parentId, pos)"
        )

    # ------------------------------------------------------------------
    # Building positions
    # ------------------------------------------------------------------
    def index_existing(self) -> None:
        """Assign positions to all loaded tuples, in id order per parent
        (the shredder assigns DFS ids, so id order is document order)."""
        rows: list[tuple[int, int, int]] = []
        parents: dict[int, list[int]] = {}
        for relation in self.store.schema.iter_top_down():
            for tuple_id, parent_id in self.db.query(
                f'SELECT id, parentId FROM "{relation.name}" WHERE parentId IS NOT NULL'
            ):
                parents.setdefault(parent_id, []).append(tuple_id)
        for parent_id, children in parents.items():
            children.sort()
            for index, position in enumerate(self.policy.initial_positions(len(children))):
                rows.append((children[index], parent_id, position))
        self.db.execute(f"DELETE FROM {ORDER_TABLE}")
        self.db.executemany(
            f"INSERT INTO {ORDER_TABLE} (id, parentId, pos) VALUES (?, ?, ?)", rows
        )
        self.db.commit()

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def child_positions(self, parent_id: int) -> list[tuple[int, int]]:
        """(tuple id, position) of the parent's children, in order."""
        return self.db.query(
            f"SELECT id, pos FROM {ORDER_TABLE} WHERE parentId = ? ORDER BY pos",
            (parent_id,),
        )

    def ordered_child_ids(self, parent_id: int) -> list[int]:
        return [tuple_id for tuple_id, _pos in self.child_positions(parent_id)]

    # ------------------------------------------------------------------
    # Order-aware mutations
    # ------------------------------------------------------------------
    def register_insert(self, tuple_id: int, parent_id: int, index: int) -> None:
        """Record a new tuple inserted at child index ``index``."""
        position = self.policy.insert_at(self, parent_id, index)
        self.db.execute(
            f"INSERT INTO {ORDER_TABLE} (id, parentId, pos) VALUES (?, ?, ?)",
            (tuple_id, parent_id, position),
        )

    def register_append(self, tuple_id: int, parent_id: int) -> None:
        siblings = self.child_positions(parent_id)
        self.register_insert(tuple_id, parent_id, len(siblings))

    def register_delete(self, tuple_ids: Sequence[int]) -> None:
        if not tuple_ids:
            return
        placeholders = ", ".join("?" for _ in tuple_ids)
        self.db.execute(
            f"DELETE FROM {ORDER_TABLE} WHERE id IN ({placeholders})",
            tuple(tuple_ids),
        )

    def sweep_deleted(self) -> None:
        """Drop order rows whose tuples no longer exist in any relation
        (after a strategy delete ran without order bookkeeping)."""
        union = " UNION ALL ".join(
            f'SELECT id FROM "{relation.name}"'
            for relation in self.store.schema.iter_top_down()
        )
        self.db.execute(
            f"DELETE FROM {ORDER_TABLE} WHERE id NOT IN ({union})"
        )

    def index_new(self) -> None:
        """Give append positions to tuples inserted without an explicit
        position (plain INSERTs and strategy copies)."""
        for relation in self.store.schema.iter_top_down():
            if relation.parent is None:
                continue
            rows = self.db.query(
                f'SELECT id, parentId FROM "{relation.name}" WHERE id NOT IN '
                f"(SELECT id FROM {ORDER_TABLE})"
            )
            for tuple_id, parent_id in sorted(rows):
                self.register_append(tuple_id, parent_id)

    # ------------------------------------------------------------------
    # Side-table hooks (called by XmlStore)
    # ------------------------------------------------------------------
    def after_load(self) -> None:
        self.index_existing()

    def place(self, new_id: int, anchor_id: int, parent_id: int,
              before: bool, size: int) -> None:
        """Splice ``new_id`` in next to its sibling ``anchor_id``."""
        index = self.ordered_child_ids(parent_id).index(anchor_id)
        self.register_insert(new_id, parent_id, index if before else index + 1)

    def after_write(self, inserted: bool = True, deleted: bool = True) -> bool:
        """Position new tuples and sweep deleted ones; positions are read
        at reconstruction time, never baked into plans, so no cached
        plan goes stale (always False)."""
        if inserted:
            self.index_new()
        if deleted:
            self.sweep_deleted()
        return False

    def positions(self) -> dict[int, int]:
        return dict(self.db.query(f"SELECT id, pos FROM {ORDER_TABLE}"))

    def configure_like(self, other: "OrderedStore") -> None:
        """Take ``other``'s policy (a snapshot copies its store's)."""
        self.policy = copy.deepcopy(other.policy)
