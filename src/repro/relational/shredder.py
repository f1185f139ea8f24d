"""Shredding: load an XML document into the relational mapping.

Walks the document top-down; every element whose type anchors a
relation produces one tuple, with the PCDATA/attributes of its inlined
descendants folded into that tuple's columns.  ids are assigned
depth-first, so a subtree always occupies a contiguous id range under
its root tuple — the property the table-based insert's min/max offset
heuristic exploits (Section 6.2.2).
"""

from __future__ import annotations

from typing import Optional

from repro.errors import MappingError
from repro.relational.database import Database
from repro.relational.idgen import IdAllocator
from repro.relational.schema import (
    FIELD_ATTRIBUTE,
    FIELD_PCDATA,
    FIELD_PRESENCE,
    FIELD_REFS,
    MappingSchema,
    Relation,
)
from repro.xmlmodel.model import Document, Element


def create_schema(db: Database, schema: MappingSchema) -> None:
    """Create all tables and indexes of the mapping."""
    for statement in schema.create_all_sql():
        db.execute(statement)


def shred_document(
    db: Database,
    schema: MappingSchema,
    document: Document,
    allocator: Optional[IdAllocator] = None,
) -> int:
    """Load ``document`` into an already-created schema.

    Returns the id assigned to the root tuple.  Rows are batched per
    relation with ``executemany`` (loading cost is not part of any
    measured experiment).
    """
    allocator = allocator or IdAllocator(db)
    shredder = _Shredder(schema, allocator)
    root_id = shredder.shred(document.root)
    for relation_name, rows in shredder.rows.items():
        relation = schema.relation(relation_name)
        placeholders = ", ".join("?" for _ in relation.all_columns)
        columns = ", ".join(f'"{c}"' for c in relation.all_columns)
        db.executemany(
            f'INSERT INTO "{relation_name}" ({columns}) VALUES ({placeholders})',
            rows,
        )
    db.commit()
    return root_id


class _Shredder:
    def __init__(self, schema: MappingSchema, allocator: IdAllocator) -> None:
        self.schema = schema
        self.allocator = allocator
        self.rows: dict[str, list[tuple]] = {name: [] for name in schema.relations}
        self._count = 0

    def shred(self, root_element: Element) -> int:
        root_relation = self.schema.relation(self.schema.root)
        if root_relation.tag != root_element.name:
            raise MappingError(
                f"document root <{root_element.name}> does not match the mapping "
                f"root relation (tag {root_relation.tag!r})"
            )
        total = self._count_tuples(root_element, root_relation)
        first_id = self.allocator.reserve(total)
        self._next_id = first_id
        return self._emit(root_element, root_relation, parent_id=None)

    # ------------------------------------------------------------------
    def _count_tuples(self, element: Element, relation: Relation) -> int:
        count = 1
        for child_relation in self.schema.child_relations(relation.name):
            anchor = element_at(element, child_relation.parent_path)
            if anchor is None:
                continue
            for child in anchor.child_elements(child_relation.tag):
                count += self._count_tuples(child, child_relation)
        return count

    def _emit(
        self,
        element: Element,
        relation: Relation,
        parent_id: Optional[int],
    ) -> int:
        tuple_id = self._next_id
        self._next_id += 1
        row = [tuple_id, parent_id]
        for inlined in relation.fields:
            row.append(extract_field(element, inlined))
        self.rows[relation.name].append(tuple(row))
        for child_relation in self.schema.child_relations(relation.name):
            anchor = element_at(element, child_relation.parent_path)
            if anchor is None:
                continue
            for child in anchor.child_elements(child_relation.tag):
                self._emit(child, child_relation, parent_id=tuple_id)
        return tuple_id


def shred_element(
    db: Database,
    schema: MappingSchema,
    relation: Relation,
    element: Element,
    parent_id: Optional[int],
    allocator: IdAllocator,
) -> int:
    """Insert one element subtree under an existing parent tuple.

    Used when an update statement inserts *constructed* XML content that
    maps to a child relation.  Returns the new root tuple's id.
    """
    if relation.tag != element.name:
        raise MappingError(
            f"element <{element.name}> does not anchor relation {relation.name!r} "
            f"(tag {relation.tag!r})"
        )
    shredder = _Shredder(schema, allocator)
    total = shredder._count_tuples(element, relation)
    first_id = allocator.reserve(total)
    shredder._next_id = first_id
    root_id = shredder._emit(element, relation, parent_id=parent_id)
    for relation_name, rows in shredder.rows.items():
        if not rows:
            continue
        rel = schema.relation(relation_name)
        placeholders = ", ".join("?" for _ in rel.all_columns)
        columns = ", ".join(f'"{c}"' for c in rel.all_columns)
        for row in rows:
            db.execute(
                f'INSERT INTO "{relation_name}" ({columns}) VALUES ({placeholders})',
                row,
            )
    return root_id


def element_at(element: Element, path: tuple[str, ...]) -> Optional[Element]:
    """Follow a single-occurrence child path; None if any hop is missing."""
    current: Optional[Element] = element
    for tag in path:
        if current is None:
            return None
        current = current.first_child_element(tag)
    return current


def extract_field(element: Element, inlined) -> Optional[object]:
    """Compute an inlined column's value for a relation-anchoring element."""
    target = element_at(element, inlined.path)
    if inlined.kind == FIELD_PRESENCE:
        return 1 if target is not None else None
    if target is None:
        return None
    if inlined.kind == FIELD_PCDATA:
        return target.text()
    if inlined.kind == FIELD_ATTRIBUTE:
        attribute = target.attributes.get(inlined.name)
        return attribute.value if attribute is not None else None
    if inlined.kind == FIELD_REFS:
        reference = target.references.get(inlined.name)
        return " ".join(reference.targets) if reference is not None else None
    raise MappingError(f"unknown inlined field kind {inlined.kind!r}")
