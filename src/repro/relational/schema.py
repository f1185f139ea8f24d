"""Relational schema descriptors for XML-to-relational mappings.

A :class:`MappingSchema` describes how a DTD's element types map to
relations.  Every relation carries, besides its SQL columns, enough
mapping metadata to shred documents in and to reconstruct XML back out:

* which element tag the relation anchors,
* its parent relation (``None`` for the root relation),
* the **inlined fields**: PCDATA, attributes, reference lists, and
  presence flags of descendant elements folded into this relation's
  tuples, each identified by the relative element path from the anchor.

Column names follow the paper's Figure 5 convention: the inlined City
of a Customer's Address is column ``Address_City``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.errors import MappingError

# Field kinds.
FIELD_PCDATA = "pcdata"  # text content of the element at `path`
FIELD_ATTRIBUTE = "attribute"  # a CDATA/ID attribute
FIELD_REFS = "refs"  # an IDREF/IDREFS attribute (space-separated IDs)
FIELD_PRESENCE = "presence"  # flag: inlined optional non-leaf element exists

@dataclass(frozen=True)
class InlinedField:
    """One data column of a relation.

    ``path`` is the element path relative to the relation's anchor
    element (empty tuple = the anchor itself); ``name`` is the attribute
    name for attribute/refs fields and ``""`` otherwise.
    """

    column: str
    kind: str
    path: tuple[str, ...] = ()
    name: str = ""


@dataclass
class Relation:
    """One relation of the mapping."""

    name: str  # SQL table name
    tag: str  # anchoring element tag
    parent: Optional[str] = None  # parent relation name
    #: element path under the parent relation's anchor where this
    #: relation's elements attach (non-empty when the structural parent
    #: element was itself inlined)
    parent_path: tuple[str, ...] = ()
    fields: list[InlinedField] = field(default_factory=list)
    children: list[str] = field(default_factory=list)  # child relation names

    @property
    def data_columns(self) -> list[str]:
        return [f.column for f in self.fields]

    @property
    def all_columns(self) -> list[str]:
        """Column order used everywhere: id, parentId, then data."""
        return ["id", "parentId"] + self.data_columns

    def field_for(self, path: tuple[str, ...], kind: str, name: str = "") -> Optional[InlinedField]:
        for candidate in self.fields:
            if candidate.path == path and candidate.kind == kind and candidate.name == name:
                return candidate
        return None

    def attribute_column(self, name: str, path: tuple[str, ...] = ()) -> str:
        """SQL column holding attribute ``name`` of the element at ``path``
        (attributes whose name collides with a system column are suffixed,
        e.g. an XML ``ID`` attribute lands in column ``ID_2``)."""
        for kind in (FIELD_ATTRIBUTE, FIELD_REFS):
            field_found = self.field_for(path, kind, name)
            if field_found is not None:
                return field_found.column
        raise MappingError(
            f"relation {self.name!r} stores no attribute {name!r} at path {path}"
        )

    def create_table_sql(self) -> str:
        columns = ["id INTEGER PRIMARY KEY", "parentId INTEGER"]
        for inlined in self.fields:
            sql_type = "INTEGER" if inlined.kind == FIELD_PRESENCE else "TEXT"
            columns.append(f'"{inlined.column}" {sql_type}')
        return f'CREATE TABLE "{self.name}" ({", ".join(columns)})'

    def create_index_sql(self) -> list[str]:
        """The relation's B-tree indexes: ``parentId`` for structural
        joins, and one per inlined PCDATA/attribute column so a value
        predicate (``Customer[Name="John"]``) seeks its matches instead
        of walking every child of the parent.

        A value index is named ``idx_<table>(<column>)``.  Parentheses
        cannot occur in an XML name, so the name collides neither with
        ``idx_<table>_parent`` nor across tables whose names contain
        underscores.  ``IF NOT EXISTS`` lets a restored checkpoint image
        taken before the value indexes existed gain them.
        """
        statements = [
            f'CREATE INDEX IF NOT EXISTS "idx_{self.name}_parent" '
            f'ON "{self.name}" (parentId)'
        ]
        for inlined in self.fields:
            if inlined.kind in (FIELD_PCDATA, FIELD_ATTRIBUTE):
                statements.append(
                    f'CREATE INDEX IF NOT EXISTS "idx_{self.name}({inlined.column})" '
                    f'ON "{self.name}" ("{inlined.column}")'
                )
        return statements


@dataclass
class MappingSchema:
    """A complete mapping: relations keyed by name, plus the root."""

    kind: str  # 'inlining' | 'edge' | 'attribute'
    root: str  # root relation name
    relations: dict[str, Relation] = field(default_factory=dict)

    def relation(self, name: str) -> Relation:
        try:
            return self.relations[name]
        except KeyError:
            raise MappingError(f"no relation named {name!r} in this mapping") from None

    def child_relations(self, name: str) -> list[Relation]:
        return [self.relations[child] for child in self.relation(name).children]

    def parent_relations_of(self, name: str) -> list[str]:
        """Every relation whose tuples may parent ``name``'s tuples.

        For tree mappings this is the single declared parent; a
        recursive relation additionally parents itself (e.g. part tuples
        hang under assembly tuples AND under other part tuples)."""
        self.relation(name)  # existence check
        return [
            candidate.name
            for candidate in self.relations.values()
            if name in candidate.children
        ]

    def iter_top_down(self) -> Iterator[Relation]:
        """Relations in breadth-first order from the root.

        Recursive mappings make the children graph a DAG (a relation may
        be its own child); each relation is yielded once.
        """
        queue = [self.root]
        visited: set[str] = set()
        while queue:
            name = queue.pop(0)
            if name in visited:
                continue
            visited.add(name)
            relation = self.relations[name]
            yield relation
            queue.extend(relation.children)

    def depth_of(self, name: str) -> int:
        """0-based depth of a relation below the root relation."""
        depth = 0
        current = self.relation(name)
        while current.parent is not None:
            current = self.relation(current.parent)
            depth += 1
        return depth

    def max_depth(self) -> int:
        return max(self.depth_of(name) for name in self.relations)

    def create_index_sql(self) -> list[str]:
        """Every relation's indexes (idempotent DDL, see
        :meth:`Relation.create_index_sql`)."""
        statements: list[str] = []
        for relation in self.iter_top_down():
            statements.extend(relation.create_index_sql())
        return statements

    def create_all_sql(self) -> list[str]:
        statements = [relation.create_table_sql() for relation in self.iter_top_down()]
        statements.extend(self.create_index_sql())
        return statements
