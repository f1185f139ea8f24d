"""An order-preserving :class:`XmlStore` (completing the §8 sketch).

``OrderedXmlStore`` is an :class:`XmlStore` with the ``doc_order`` side
table of :mod:`repro.relational.ordered` plugged in; the store calls it
across its whole lifecycle:

* loading indexes every tuple's document-order position;
* element-level positional inserts (``INSERT <x/> BEFORE $y``) are
  honoured when both the content and the anchor are relation-anchored:
  the new tuple is spliced at the anchor's position (the §8 "push")
  instead of degrading to an append;
* plain inserts, strategy copies and direct subtree copies get append
  positions; strategy deletes sweep their order rows;
* queries reconstruct relation-anchored siblings in document order.

Inlined elements keep mapping-determined positions — the DTD pins them
to at most one occurrence, so the content model fixes where they belong.
"""

from __future__ import annotations

from typing import Optional

from repro.relational.ordered import GapPolicy, OrderPolicy, OrderedStore
from repro.relational.store import XmlStore


class OrderedXmlStore(XmlStore):
    """XmlStore plus document-order preservation for element children."""

    def __init__(self, *args, order_policy: Optional[OrderPolicy] = None, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.order = self._side_table = OrderedStore(
            self, policy=order_policy or GapPolicy()
        )
