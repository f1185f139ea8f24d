"""Interval (pre/post) encoding: the XPath accelerator as a side table.

Every relation-anchored tuple carries ``(pre, post, level)`` in the
``node_interval`` table.  ``pre``/``post`` are the entry/exit ordinals
of a depth-first walk, so the structural axes collapse into range
predicates over the ``pre`` index:

* descendant(a): ``pre > a.pre AND pre < a.post``
* ancestor(d):   ``pre < d.pre AND post > d.post``

and a whole-subtree delete is ``DELETE … WHERE pre BETWEEN a.pre AND
a.post`` — one statement regardless of subtree size or fan-out.

The update-maintenance half is the hard part.  Ordinals are **gapped**
(spaced integers, :data:`DEFAULT_INTERVAL_GAP` apart at load time) so
inserts bisect into free integers without touching neighbours.  When a
gap is exhausted, the :class:`OrdinalAllocator` **renumbers locally**:
it re-spaces the smallest enclosing element scope whose width can host
its boundaries plus the requested reservation, escalating to outer
ancestors only when the inner scope is too dense, and at the document
root it simply widens ``root.post`` (the one ordinal nothing else
constrains).  Renumber frequency and cost are observable via the
``interval.renumber.*`` metrics, mirroring how the ordered store
reports its sibling-dictionary maintenance.

Two layers live here, neither of which imports the store (so the
strategy registries can import this module without a cycle):

* :class:`OrdinalAllocator` — gapped window allocation + renumbering
  over the ``node_interval`` table.
* :class:`IntervalIndex` — the side table itself: the only code that
  assigns ordinals (at load, on positional inserts, on copies), used by
  the interval-aware *strategies* and the interval store.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from repro.errors import StorageError
from repro.obs import get_registry
from repro.relational.database import Database
from repro.relational.schema import MappingSchema

#: Side table carrying the pre/post interval encoding of every
#: relation-anchored tuple.
INTERVAL_TABLE = "node_interval"

#: Spacing between consecutive pre/post ordinals at load time.  Inserts
#: bisect into the gaps; a localized renumbering re-spaces a scope only
#: when its gap is exhausted.
DEFAULT_INTERVAL_GAP = 64


#: OR'd ``pre BETWEEN ? AND ?`` terms per DELETE / per INSERT…SELECT CASE
#: arm; keeps statements far under SQLite's parameter limit.
MAX_RANGES_PER_DELETE = 400

#: When a range delete would leave at most this many index rows behind,
#: copy the survivors out, truncate, and re-insert them instead.
SURVIVOR_TRUNCATE_LIMIT = 256
MAX_RANGES_PER_CASE = 48

#: windows re-resolved after a concurrent renumber before giving up
_MAX_RENUMBER_ATTEMPTS = 16

#: A descendant step lowers to OR'd range predicates only while the
#: outer selection resolves to at most this many subtree windows;
#: larger selections fall back to the parentId-chain plan.
MAX_INTERVAL_WINDOWS = 16


def merge_ranges(rows: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    """Drop ranges nested inside an earlier one (input sorted by pre).

    Pre/post intervals are properly nested, so a later range starting
    inside the current one is wholly contained by it.
    """
    merged: list[tuple[int, int]] = []
    for pre, post in rows:
        if merged and pre < merged[-1][1]:
            continue
        merged.append((pre, post))
    return merged


def coalesce_ranges(
    db: Database, ranges: Sequence[tuple[int, int]]
) -> list[tuple[int, int]]:
    """Fuse adjacent ranges whose separating gap holds no live row.

    Sibling subtrees are separated only by gapped-ordinal slack, so a
    bulk delete of a whole child set coalesces to **one**
    ``pre BETWEEN ? AND ?`` instead of one OR term per subtree.  One
    probe statement checks every gap (an indexed point lookup per gap);
    a gap row (an undeleted sibling between two doomed ones) keeps the
    ranges apart.  Input must be sorted by ``pre`` and non-overlapping
    (:func:`merge_ranges` output).
    """
    if len(ranges) < 2:
        return list(ranges)
    gaps = [
        (ranges[i][1] + 1, ranges[i + 1][0] - 1)
        for i in range(len(ranges) - 1)
        if ranges[i][1] + 1 <= ranges[i + 1][0] - 1
    ]
    occupied: set[int] = set()
    for chunk in _chunks(gaps, MAX_RANGES_PER_DELETE):
        values = ", ".join("(?, ?)" for _ in chunk)
        params: list[int] = []
        for lo, hi in chunk:
            params.extend((lo, hi))
        rows = db.query(
            f"SELECT g.column1 FROM (VALUES {values}) g "
            f"JOIN {INTERVAL_TABLE} n ON n.pre BETWEEN g.column1 AND g.column2 "
            "GROUP BY g.column1",
            params,
        )
        occupied.update(row[0] for row in rows)
    fused: list[list[int]] = [list(ranges[0])]
    for pre, post in ranges[1:]:
        gap_lo = fused[-1][1] + 1
        if gap_lo > pre - 1 or gap_lo not in occupied:
            fused[-1][1] = post
        else:
            fused.append([pre, post])
    return [(lo, hi) for lo, hi in fused]


def range_predicate(ranges: Sequence[tuple[int, int]]) -> tuple[str, list[int]]:
    """``(pre BETWEEN ? AND ?) OR …`` plus its flattened parameters."""
    sql = " OR ".join("(pre BETWEEN ? AND ?)" for _ in ranges)
    params: list[int] = []
    for pre, post in ranges:
        params.extend((pre, post))
    return sql, params


def _chunks(items: Sequence, size: int) -> Iterable[Sequence]:
    for start in range(0, len(items), size):
        yield items[start:start + size]


class OrdinalAllocator:
    """Gapped pre/post ordinal management over the interval table.

    ``window_for_*`` return an exclusive window ``(lo, hi)`` whose
    interior holds at least ``need`` free integers at the requested
    position, renumbering (and thereby moving ``lo``/``hi``) as needed.
    ``renumber_events`` lets callers detect that cached coordinates went
    stale — the plan cache's renumber generation bump keys off it.
    """

    def __init__(self, db: Database, gap: int = DEFAULT_INTERVAL_GAP) -> None:
        if gap < 4:
            raise ValueError("interval gap must be at least 4")
        self.db = db
        self.gap = gap
        self.renumber_events = 0

    def bounds(self, node_id: int) -> tuple[int, int, int]:
        row = self.db.query_one(
            f"SELECT pre, post, level FROM {INTERVAL_TABLE} WHERE id = ?", (node_id,)
        )
        if row is None:
            raise StorageError(f"node {node_id} is not in the interval index")
        return row

    # ------------------------------------------------------------------
    # Window allocation
    # ------------------------------------------------------------------
    def window_for_append(self, parent_id: int, need: int) -> tuple[int, int]:
        """Window after the last child of ``parent_id`` (before its post)."""
        for _ in range(_MAX_RENUMBER_ATTEMPTS):
            pre, post, _level = self.bounds(parent_id)
            row = self.db.query_one(
                "SELECT MAX(v) FROM ("
                f"SELECT MAX(pre) AS v FROM {INTERVAL_TABLE} WHERE pre > ? AND pre < ? "
                "UNION ALL "
                f"SELECT MAX(post) AS v FROM {INTERVAL_TABLE} WHERE post > ? AND post < ?)",
                (pre, post, pre, post),
            )
            lo = row[0] if row is not None and row[0] is not None else pre
            if post - lo - 1 >= need:
                return lo, post
            self._renumber(lo, post, need)
        raise StorageError("interval window did not stabilise after renumbering")

    def window_for_before(self, anchor_id: int, need: int) -> tuple[int, int]:
        """Window immediately before ``anchor_id``'s pre ordinal."""
        for _ in range(_MAX_RENUMBER_ATTEMPTS):
            apre, _apost, _level = self.bounds(anchor_id)
            row = self.db.query_one(
                "SELECT MAX(v) FROM ("
                f"SELECT MAX(pre) AS v FROM {INTERVAL_TABLE} WHERE pre < ? "
                "UNION ALL "
                f"SELECT MAX(post) AS v FROM {INTERVAL_TABLE} WHERE post < ?)",
                (apre, apre),
            )
            if row is None or row[0] is None:
                raise StorageError("cannot insert before the document root")
            lo = row[0]
            if apre - lo - 1 >= need:
                return lo, apre
            self._renumber(lo, apre, need)
        raise StorageError("interval window did not stabilise after renumbering")

    def window_for_after(self, anchor_id: int, need: int) -> tuple[int, int]:
        """Window immediately after ``anchor_id``'s post ordinal."""
        for _ in range(_MAX_RENUMBER_ATTEMPTS):
            _apre, apost, _level = self.bounds(anchor_id)
            row = self.db.query_one(
                "SELECT MIN(v) FROM ("
                f"SELECT MIN(pre) AS v FROM {INTERVAL_TABLE} WHERE pre > ? "
                "UNION ALL "
                f"SELECT MIN(post) AS v FROM {INTERVAL_TABLE} WHERE post > ?)",
                (apost, apost),
            )
            if row is None or row[0] is None:
                raise StorageError("cannot insert after the document root")
            hi = row[0]
            if hi - apost - 1 >= need:
                return apost, hi
            self._renumber(apost, hi, need)
        raise StorageError("interval window did not stabilise after renumbering")

    def place(self, lo: int, hi: int, count: int, pack: str = "spread") -> list[int]:
        """``count`` increasing integers strictly inside ``(lo, hi)``.

        ``pack`` picks where the leftover slack goes: ``"spread"``
        distributes it evenly, ``"low"`` packs values near ``lo`` (slack
        ends up next to ``hi`` — right where the *next* insert-before or
        append will bisect), ``"high"`` packs near ``hi`` (slack next to
        ``lo``, the hot side of insert-after).  Hot-side packing is what
        turns a renumber's reserved headroom into many follow-up inserts
        instead of one.
        """
        if hi - lo - 1 < count:
            raise StorageError("window too small for placement")
        if pack == "spread":
            step = (hi - lo) // (count + 1)
            return [lo + (index + 1) * step for index in range(count)]
        step = 2 if hi - lo - 1 >= 2 * count else 1
        if pack == "low":
            return [lo + step * (index + 1) for index in range(count)]
        return [hi - step * (count - index) for index in range(count)]

    # ------------------------------------------------------------------
    # Renumbering
    # ------------------------------------------------------------------
    def _renumber(self, lo: int, hi: int, need: int) -> None:
        """Re-space the smallest enclosing scope that can host its
        boundary events plus ``need`` reserved integers between the
        current ordinal values ``lo`` and ``hi``.

        Scopes are walked innermost-first; a scope whose width cannot
        grant at least unit spacing escalates outward.  The outermost
        scope (the root) always succeeds: its post ordinal bounds
        nothing, so it is pushed out to restore full gap spacing.
        """
        registry = get_registry()
        # Reserve well past the immediate request: renumbering costs the
        # same either way, and combined with hot-side packing the extra
        # headroom amortises one renumber over many follow-up inserts.
        need = need + 4 * self.gap
        scopes = self.db.query(
            f"SELECT id, pre, post FROM {INTERVAL_TABLE} "
            "WHERE pre <= ? AND post >= ? ORDER BY pre DESC",
            (lo, hi),
        )
        if not scopes:
            raise StorageError("no enclosing scope to renumber")
        escalations = 0
        for position, (scope_id, spre, spost) in enumerate(scopes):
            at_root = position == len(scopes) - 1
            inside = self.db.query_one(
                f"SELECT COUNT(*) FROM {INTERVAL_TABLE} WHERE pre > ? AND post < ?",
                (spre, spost),
            )[0]
            events = 2 * inside
            width = spost - spre - 1
            step = (width - need) // (events + 1) if width > need else 0
            if step < 1:
                if not at_root:
                    escalations += 1
                    continue
                step = self.gap  # widen the root interval instead
            self._respace(scope_id, spre, spost, lo, need, step, at_root)
            self.renumber_events += 1
            registry.counter("interval.renumber.count").inc()
            registry.counter("interval.renumber.nodes").inc(inside)
            if escalations:
                registry.counter("interval.renumber.escalations").inc(escalations)
            return
        raise StorageError("renumbering failed to find a scope")

    def _respace(self, scope_id: int, spre: int, spost: int, lo: int,
                 need: int, step: int, widen_root: bool) -> None:
        rows = self.db.query(
            f"SELECT id, pre, post FROM {INTERVAL_TABLE} "
            "WHERE pre > ? AND post < ? ORDER BY pre",
            (spre, spost),
        )
        events: list[tuple[int, int, int]] = []
        for node_id, pre, post in rows:
            events.append((pre, node_id, 0))
            events.append((post, node_id, 1))
        events.sort()
        new_values: dict[int, list[Optional[int]]] = {}
        cursor = spre
        placed = False
        for value, node_id, side in events:
            if not placed and value > lo:
                cursor += need  # the reservation the caller is waiting on
                placed = True
            cursor += step
            new_values.setdefault(node_id, [None, None])[side] = cursor
        if not placed:
            cursor += need
        end = cursor + step
        if widen_root:
            self.db.execute(
                f"UPDATE {INTERVAL_TABLE} SET post = ? WHERE id = ?", (end, scope_id)
            )
        elif end > spost:
            raise StorageError("interval renumbering overflowed its scope")
        # Two-phase write: new ordinals may transiently collide with old
        # ones under the UNIQUE pre index, so park them as negatives
        # first, then flip the sign in one statement.
        updates = [
            (-values[0], -values[1], node_id)
            for node_id, values in new_values.items()
        ]
        if updates:
            self.db.executemany(
                f"UPDATE {INTERVAL_TABLE} SET pre = ?, post = ? WHERE id = ?", updates
            )
            self.db.execute(
                f"UPDATE {INTERVAL_TABLE} SET pre = -pre, post = -post WHERE pre < 0"
            )


class IntervalIndex:
    """The ``node_interval`` side table over an inlining-mapped store.

    One row per relation-anchored tuple (the granularity updates and
    deletes operate at), regardless of which relation holds the tuple.
    As the interval store's side table it spends the index on both
    paths: reconstruction orders by ``pre`` and descendant steps lower
    to range predicates (:meth:`resolver`).
    """

    #: ``pre`` orders the whole document, so top-level results sort too.
    positions_global = True

    def __init__(self, db: Database, schema: MappingSchema,
                 gap: int = DEFAULT_INTERVAL_GAP) -> None:
        self.db = db
        self.schema = schema
        # Idempotent: the strategies and the store may share one table.
        db.execute(
            f"CREATE TABLE IF NOT EXISTS {INTERVAL_TABLE} ("
            "id INTEGER PRIMARY KEY, pre INTEGER NOT NULL, "
            "post INTEGER NOT NULL, level INTEGER NOT NULL)"
        )
        db.execute(
            f"CREATE UNIQUE INDEX IF NOT EXISTS idx_{INTERVAL_TABLE}_pre "
            f"ON {INTERVAL_TABLE} (pre)"
        )
        db.execute(
            f"CREATE INDEX IF NOT EXISTS idx_{INTERVAL_TABLE}_post "
            f"ON {INTERVAL_TABLE} (post)"
        )
        self.space = OrdinalAllocator(db, gap)
        self._reported_renumbers = 0

    @property
    def renumber_events(self) -> int:
        return self.space.renumber_events

    def count(self) -> int:
        return self.db.query_one(f"SELECT COUNT(*) FROM {INTERVAL_TABLE}")[0]

    # ------------------------------------------------------------------
    # Indexing whole documents
    # ------------------------------------------------------------------
    def ensure_populated(self) -> None:
        """Index every document the index does not hold yet (adopting a
        database that predates the index, or installing a strategy)."""
        self._index_documents(f"id NOT IN (SELECT id FROM {INTERVAL_TABLE})")

    def _index_documents(self, unindexed_sql: str, params: Sequence = ()) -> None:
        """Give the unindexed root tuples that ``unindexed_sql`` selects,
        and the tuples below them, gapped ordinals, then commit.

        One depth-first walk per document, starting past ``MAX(post)``
        so a later document follows the earlier ones.  The shredder
        assigns ids depth-first, so sorting siblings by id is document
        order.  The commit makes the index as durable as the data the
        shredder already committed: a later rolled-back statement must
        not take a loaded document's ordinals with it."""
        by_parent: dict[int, list[int]] = {}
        root_ids: list[int] = []
        for relation in self.schema.iter_top_down():
            for node_id, parent_id in self.db.query(
                f'SELECT id, parentId FROM "{relation.name}" WHERE {unindexed_sql}',
                params,
            ):
                if parent_id is None:
                    root_ids.append(node_id)
                else:
                    by_parent.setdefault(parent_id, []).append(node_id)
        if not root_ids:
            return
        for children in by_parent.values():
            children.sort()
        gap = self.space.gap
        counter = self.db.query_one(f"SELECT MAX(post) FROM {INTERVAL_TABLE}")[0] or 0
        rows: list[tuple[int, int, int, int]] = []
        for root in sorted(root_ids):
            stack: list[tuple[int, int, bool]] = [(root, 0, False)]
            pre_of: dict[int, int] = {}
            while stack:
                node, depth, leaving = stack.pop()
                counter += gap
                if leaving:
                    rows.append((node, pre_of[node], counter, depth))
                else:
                    pre_of[node] = counter
                    stack.append((node, depth, True))
                    for child in reversed(by_parent.get(node, ())):
                        stack.append((child, depth + 1, False))
        self.db.executemany(
            f"INSERT INTO {INTERVAL_TABLE} (id, pre, post, level) VALUES (?, ?, ?, ?)",
            rows,
        )
        self.db.commit()

    # ------------------------------------------------------------------
    # Range lookups
    # ------------------------------------------------------------------
    def ranges_for(self, id_select_sql: str,
                   params: Sequence = ()) -> list[tuple[int, int]]:
        """Merged (pre, post) ranges of the ids a subquery selects."""
        rows = self.db.query(
            f"SELECT pre, post FROM {INTERVAL_TABLE} "
            f"WHERE id IN ({id_select_sql}) ORDER BY pre",
            params,
        )
        return coalesce_ranges(self.db, merge_ranges(rows))

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def register_append(self, node_id: int, parent_id: int,
                        slots: int = 2) -> None:
        """Index ``node_id`` as the new last child of ``parent_id``.

        ``slots >= 2`` reserves extra interior room when the node roots a
        subtree whose descendants will be appended inside it next.
        """
        _pre, _post, parent_level = self.space.bounds(parent_id)
        lo, hi = self.space.window_for_append(parent_id, slots)
        values = self.space.place(lo, hi, slots, pack="low")
        self._insert(node_id, values[0], values[-1], parent_level + 1)

    def register_before(self, node_id: int, anchor_id: int,
                        slots: int = 2) -> None:
        _pre, _post, level = self.space.bounds(anchor_id)
        lo, hi = self.space.window_for_before(anchor_id, slots)
        values = self.space.place(lo, hi, slots, pack="low")
        self._insert(node_id, values[0], values[-1], level)

    def register_after(self, node_id: int, anchor_id: int,
                       slots: int = 2) -> None:
        _pre, _post, level = self.space.bounds(anchor_id)
        lo, hi = self.space.window_for_after(anchor_id, slots)
        values = self.space.place(lo, hi, slots, pack="high")
        self._insert(node_id, values[0], values[-1], level)

    def _insert(self, node_id: int, pre: int, post: int, level: int) -> None:
        self.db.execute(
            f"INSERT INTO {INTERVAL_TABLE} (id, pre, post, level) "
            "VALUES (?, ?, ?, ?)",
            (node_id, pre, post, level),
        )

    def register_copies(self, root_ids: Sequence[int], offset: int,
                        new_parent_id: int) -> None:
        """Index copied subtrees after a table-based bulk copy.

        The data-side copy preserved tree shape and shifted every tuple
        id by ``offset``; the interval rows can therefore be produced by
        the same trick — shift each source subtree's (pre, post) block
        rigidly into a window reserved under the new parent.  Statement
        count stays constant in the number of copied *tuples*: one
        ``INSERT … SELECT`` per :data:`MAX_RANGES_PER_CASE` source roots.

        Nested source roots (one selected root inside another) are not
        supported; the mapping's tree schemas never produce them.
        """
        if not root_ids:
            return
        _pre, _post, parent_level = self.space.bounds(new_parent_id)
        rows: list[tuple[int, int, int, int]] = []
        for _ in range(_MAX_RENUMBER_ATTEMPTS):
            placeholders = ", ".join("?" for _ in root_ids)
            rows = self.db.query(
                f"SELECT id, pre, post, level FROM {INTERVAL_TABLE} "
                f"WHERE id IN ({placeholders}) ORDER BY pre",
                tuple(root_ids),
            )
            if len(rows) != len(set(root_ids)):
                raise StorageError("copy source is not fully interval-indexed")
            need = sum(post - pre + 2 for _id, pre, post, _level in rows)
            marker = self.space.renumber_events
            lo, _hi = self.space.window_for_append(new_parent_id, need)
            if self.space.renumber_events == marker:
                break
        else:
            raise StorageError("interval copy window did not stabilise")
        shifted: list[tuple[int, int, int, int]] = []  # (pre, post, delta, dlevel)
        cursor = lo
        for _id, pre, post, level in rows:
            shifted.append((pre, post, cursor + 1 - pre, parent_level + 1 - level))
            cursor += (post - pre) + 2
        for chunk in _chunks(shifted, MAX_RANGES_PER_CASE):
            pre_case = " ".join("WHEN pre BETWEEN ? AND ? THEN pre + ?" for _ in chunk)
            post_case = " ".join("WHEN pre BETWEEN ? AND ? THEN post + ?" for _ in chunk)
            level_case = " ".join("WHEN pre BETWEEN ? AND ? THEN level + ?" for _ in chunk)
            where = " OR ".join("(pre BETWEEN ? AND ?)" for _ in chunk)
            params: list[int] = [offset]
            for a, b, delta, _dl in chunk:
                params.extend((a, b, delta))
            for a, b, delta, _dl in chunk:
                params.extend((a, b, delta))
            for a, b, _delta, dlevel in chunk:
                params.extend((a, b, dlevel))
            for a, b, _delta, _dl in chunk:
                params.extend((a, b))
            self.db.execute(
                f"INSERT INTO {INTERVAL_TABLE} (id, pre, post, level) "
                f"SELECT id + ?, CASE {pre_case} END, CASE {post_case} END, "
                f"CASE {level_case} END FROM {INTERVAL_TABLE} WHERE {where}",
                params,
            )

    def index_new(self) -> int:
        """Append-index any tuples the data relations hold but the index
        does not (content spliced in by a non-positional insert)."""
        pending: list[tuple[int, int]] = []
        for relation in self.schema.iter_top_down():
            pending.extend(
                self.db.query(
                    f'SELECT id, parentId FROM "{relation.name}" '
                    f"WHERE id NOT IN (SELECT id FROM {INTERVAL_TABLE})"
                )
            )
        indexed = 0
        for node_id, parent_id in sorted(pending):
            if parent_id is None:
                continue
            self.register_append(node_id, parent_id)
            indexed += 1
        return indexed

    def sweep_deleted(self) -> int:
        """Drop index rows whose tuples no longer exist in any relation."""
        union = " UNION ALL ".join(
            f'SELECT id FROM "{relation.name}"'
            for relation in self.schema.iter_top_down()
        )
        cursor = self.db.execute(
            f"DELETE FROM {INTERVAL_TABLE} WHERE id NOT IN ({union})"
        )
        return cursor.rowcount

    # ------------------------------------------------------------------
    # Side-table hooks (called by XmlStore)
    # ------------------------------------------------------------------
    def after_load(self) -> None:
        """Index the document a load just wrote.  Ids are allocated
        monotonically, so its tuples are exactly those above the highest
        indexed id: the walk reads one primary-key range per relation,
        not the whole store."""
        newest = self.db.query_one(f"SELECT MAX(id) FROM {INTERVAL_TABLE}")[0]
        self._index_documents("id > ?", (newest or 0,))

    def place(self, new_id: int, anchor_id: int, parent_id: int,
              before: bool, size: int) -> None:
        """Splice ``new_id`` in next to ``anchor_id``, reserving interior
        room for its ``size``-tuple subtree (its descendants are
        append-indexed inside it by :meth:`after_write`)."""
        if before:
            self.register_before(new_id, anchor_id, slots=2 * size)
        else:
            self.register_after(new_id, anchor_id, slots=2 * size)

    def after_write(self, inserted: bool = True, deleted: bool = True) -> bool:
        """Append-index new tuples and sweep deleted ones; True when a
        renumbering moved ordinals since the last call (cached plans bake
        resolved windows in as literals, so they went stale)."""
        if inserted:
            self.index_new()
        if deleted:
            self.sweep_deleted()
        moved = self.renumber_events != self._reported_renumbers
        self._reported_renumbers = self.renumber_events
        return moved

    def positions(self) -> dict[int, int]:
        return dict(self.db.query(f"SELECT id, pre FROM {INTERVAL_TABLE}"))

    def resolver(self, relation, conditions, params, next_relation):
        """Descendant-step lowering for query translation: rewrites a
        relation-to-relation descendant step as pre/post range predicates
        (None falls back to the parentId-chain plan)."""
        where = " AND ".join(f"({c})" for c in conditions)
        sql = (
            f"SELECT n.pre, n.post FROM {INTERVAL_TABLE} n WHERE n.id IN "
            f'(SELECT id FROM "{relation.name}"'
            + (f" WHERE {where})" if where else ")")
        )
        windows = self.db.query(sql, params)
        if not windows or len(windows) > MAX_INTERVAL_WINDOWS:
            return None
        predicate = " OR ".join("(pre > ? AND pre < ?)" for _ in windows)
        condition = (
            f'"{next_relation.name}".id IN '
            f"(SELECT id FROM {INTERVAL_TABLE} WHERE {predicate})"
        )
        window_params: list[int] = []
        for pre, post in windows:
            window_params.extend((pre, post))
        return [condition], window_params

    def configure_like(self, other: "IntervalIndex") -> None:
        """Take ``other``'s ordinal gap (a snapshot copies its store's)."""
        self.space.gap = other.space.gap

    def validate(self) -> None:
        """Sanity check used by tests: every tuple indexed, child
        intervals strictly inside their parent's."""
        for relation in self.schema.iter_top_down():
            missing = self.db.query_one(
                f'SELECT COUNT(*) FROM "{relation.name}" '
                f"WHERE id NOT IN (SELECT id FROM {INTERVAL_TABLE})"
            )[0]
            if missing:
                raise StorageError(f"{missing} unindexed tuples in {relation.name}")
            bad = self.db.query_one(
                f'SELECT COUNT(*) FROM "{relation.name}" r '
                f"JOIN {INTERVAL_TABLE} n ON n.id = r.id "
                f"JOIN {INTERVAL_TABLE} p ON p.id = r.parentId "
                "WHERE r.parentId IS NOT NULL AND NOT "
                "(n.pre > p.pre AND n.post < p.post AND n.pre < n.post "
                "AND n.level = p.level + 1)"
            )[0]
            if bad:
                raise StorageError(
                    f"{bad} tuples of {relation.name} have intervals outside "
                    "their parent's"
                )

