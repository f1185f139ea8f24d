"""An interval-indexed :class:`XmlStore`: the inlining mapping with a
pre/post side table for document order.

``IntervalXmlStore`` is an :class:`XmlStore` with the ``node_interval``
side table (:mod:`repro.relational.interval`) plugged in; the store
keeps it in sync across its whole lifecycle and spends it on both paths:

* **reads** — relation-to-relation descendant steps in query
  translation lower to pre/post range predicates (the XPath-accelerator
  plan) instead of nested parentId subqueries, and reconstruction
  orders siblings by ``pre`` so positional inserts are honoured;
* **writes** — ``INSERT <x/> BEFORE/AFTER $y`` splices into the gapped
  ordinal space; the interval delete/insert strategies maintain the
  index with range statements; everything else is caught by an
  append-index / sweep pass after each update statement or direct
  subtree operation.

Resolved (pre, post) windows are baked into translated plans as
literals, so a renumbering — which moves ordinals — invalidates cached
plans exactly like a Rename does: the store bumps the plan-cache
generation whenever ``renumber_events`` advanced (reason ``renumber``
in the ``cache.plan.invalidations.*`` metrics).
"""

from __future__ import annotations

from repro.relational.interval import DEFAULT_INTERVAL_GAP, IntervalIndex
from repro.relational.store import XmlStore


class IntervalXmlStore(XmlStore):
    """XmlStore plus pre/post interval maintenance and range-scan axes."""

    def __init__(self, schema, *args, interval_gap: int = DEFAULT_INTERVAL_GAP,
                 **kwargs) -> None:
        super().__init__(schema, *args, **kwargs)
        self._interval_index = self._side_table = IntervalIndex(
            self.db, self.schema, gap=interval_gap
        )
        # Adopting a database whose tuples predate the index (or predate
        # this subclass) still yields a usable store.
        self._interval_index.ensure_populated()

    @property
    def interval(self) -> IntervalIndex:
        return self._interval_index

    def interval_stats(self) -> dict:
        return {
            "nodes": self.interval.count(),
            "renumber_events": self.interval.renumber_events,
            "gap": self.interval.space.gap,
        }
