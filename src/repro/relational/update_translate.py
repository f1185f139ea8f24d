"""Translate FLWU update statements to SQL over the mapping (Section 6).

The translator mirrors the paper's execution recipe (Section 6.3):

1. every FOR clause becomes a :class:`TargetSelection`-based binding
   (WHERE predicates attach to the variable they constrain);
2. unless the statement is a single primitive operation, all bindings —
   including nested Sub-Update pattern matches — are **materialised**
   into explicit tuple-id lists over the pre-update state.  This is how
   the paper prevents interference between sub-operations (Example 8's
   ordering pitfall).  A single-operation statement skips this and
   pushes its predicate straight into the SQL, which is the shape the
   benchmarks measure;
3. operations execute sequentially: "simple" updates (inlined content)
   become SQL UPDATEs, "complex" deletes/inserts go through the
   configured strategy objects.

Relational stores do not keep document order among child *elements*
(Section 5.1), so positional element inserts degrade to appends with a
recorded warning (IDREFS lists ARE ordered — they live in one column —
so positional reference inserts are honoured).  A store with an order
side table (the §8 extension) passes it in, and the translator splices
positional element inserts into it instead.  Deleting one entry from
an IDREFS column uses string surgery and removes every occurrence of
that ID (IDs rarely repeat within one list).
"""

from __future__ import annotations

from dataclasses import dataclass, replace as dataclass_replace
from typing import TYPE_CHECKING, Optional, Union

from repro.errors import TranslationError
from repro.relational.database import Database
from repro.relational.delete_methods import DeleteMethod
from repro.relational.idgen import IdAllocator
from repro.relational.insert_methods import InsertMethod
from repro.relational.query_translate import (
    TargetSelection,
    translate_predicate,
    translate_relative_path,
    translate_target_path,
)
from repro.relational.schema import (
    FIELD_ATTRIBUTE,
    FIELD_PCDATA,
    FIELD_PRESENCE,
    FIELD_REFS,
    InlinedField,
    MappingSchema,
    Relation,
)
from repro.relational.shredder import _Shredder, extract_field, shred_element
from repro.updates.binding import LetClause
from repro.updates.content import RefContent
from repro.updates.operations import (
    Delete,
    Insert,
    InsertAfter,
    InsertBefore,
    Rename,
    Replace,
    SubUpdate,
    UpdateOp,
    VarOperand,
)
from repro.xmlmodel.model import Attribute, Element
from repro.xpath.ast import (
    AttributeStep,
    ChildStep,
    DocumentStart,
    Expr,
    Path,
    PathValue,
    RefStep,
    TextStep,
    VariableStart,
)
from repro.xquery.ast import Query

if TYPE_CHECKING:
    from repro.relational.store import SideTable

# ----------------------------------------------------------------------
# Bindings
# ----------------------------------------------------------------------
@dataclass
class TupleBinding:
    """A variable bound to whole tuples (a relation-anchored element)."""

    selection: TargetSelection


@dataclass
class InlinedBinding:
    """A variable bound to something stored *inside* tuples.

    ``kind``: 'element' (inlined element), 'attribute', 'refs' (whole
    IDREFS list), 'ref_entry' (one IDREF), or 'pcdata'.
    """

    base: TargetSelection
    kind: str
    path: tuple[str, ...] = ()
    name: str = ""
    ref_target: str = ""  # for ref_entry; '*' matches any


Binding = Union[TupleBinding, InlinedBinding]


class UpdateTranslator:
    """Executes parsed FLWU statements against the relational store."""

    def __init__(
        self,
        db: Database,
        schema: MappingSchema,
        allocator: IdAllocator,
        delete_method: DeleteMethod,
        insert_method: InsertMethod,
        strict_order: bool = False,
        document_name: Optional[str] = None,
        side_table: Optional["SideTable"] = None,
    ) -> None:
        self.db = db
        self.schema = schema
        self.allocator = allocator
        self.delete_method = delete_method
        self.insert_method = insert_method
        self.strict_order = strict_order
        self.document_name = document_name
        self.side_table = side_table
        self.warnings: list[str] = []

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def execute_update(self, query: Query) -> None:
        if not query.updates:
            raise TranslationError("statement has no UPDATE clause")
        env = self._bind_clauses(query.clauses, query.where, {})
        operations: list[tuple[dict[str, Binding], str, UpdateOp]] = []
        total_ops = 0
        has_nested = False
        for clause in query.updates:
            for operation in clause.operations:
                total_ops += 1
                if isinstance(operation, SubUpdate):
                    has_nested = True
        if total_ops > 1 or has_nested:
            env = self._materialize_env(env)
        # Pre-bind nested updates over the (pre-update) state.
        for clause in query.updates:
            if clause.target_variable not in env:
                raise TranslationError(
                    f"UPDATE target ${clause.target_variable} is not bound"
                )
            for operation in clause.operations:
                operations.extend(
                    self._prebind(env, clause.target_variable, operation)
                )
        for scope, target_variable, operation in operations:
            self._execute_op(scope, target_variable, operation)
        self.db.commit()

    def _prebind(
        self,
        env: dict[str, Binding],
        target_variable: str,
        operation: UpdateOp,
    ) -> list[tuple[dict[str, Binding], str, UpdateOp]]:
        if not isinstance(operation, SubUpdate):
            return [(env, target_variable, operation)]
        nested_env = self._bind_clauses(
            operation.clauses, operation.predicates, env
        )
        nested_env = self._materialize_env(nested_env)
        bound: list[tuple[dict[str, Binding], str, UpdateOp]] = []
        for nested_op in operation.operations:
            bound.extend(
                self._prebind(nested_env, operation.target_variable, nested_op)
            )
        return bound

    # ------------------------------------------------------------------
    # Binding clauses
    # ------------------------------------------------------------------
    def _bind_clauses(
        self,
        clauses,
        predicates,
        outer_env: dict[str, Binding],
    ) -> dict[str, Binding]:
        env = dict(outer_env)
        predicate_map = self._group_predicates(predicates)
        for clause in clauses:
            if isinstance(clause, LetClause):
                raise TranslationError(
                    "LET clauses are not supported by the relational translator"
                )
            binding = self._bind_path(env, clause.path)
            for predicate in predicate_map.pop(clause.variable, []):
                binding = self._apply_predicate(binding, predicate)
            env[clause.variable] = binding
        for variable, remaining in predicate_map.items():
            if remaining and variable not in env:
                raise TranslationError(
                    f"WHERE predicate references unbound variable ${variable}"
                )
            for predicate in remaining:
                env[variable] = self._apply_predicate(env[variable], predicate)
        return env

    def _group_predicates(self, predicates) -> dict[str, list[Expr]]:
        grouped: dict[str, list[Expr]] = {}
        for predicate in predicates:
            variable = _predicate_variable(predicate)
            if variable is None:
                raise TranslationError(
                    f"WHERE predicate {predicate!r} does not reference a "
                    "variable the translator can attach it to"
                )
            grouped.setdefault(variable, []).append(predicate)
        return grouped

    def _apply_predicate(self, binding: Binding, predicate: Expr) -> Binding:
        stripped = _strip_variable(predicate)
        if isinstance(binding, TupleBinding):
            return TupleBinding(
                translate_predicate(self.schema, binding.selection, stripped)
            )
        raise TranslationError(
            "WHERE predicates on inlined bindings are not supported"
        )

    def _bind_path(self, env: dict[str, Binding], path: Path) -> Binding:
        element_steps, trailing = _split_trailing(path.steps)
        if isinstance(path.start, DocumentStart):
            if element_steps:
                selection = translate_target_path(
                    self.schema,
                    Path(path.start, tuple(element_steps)),
                    document_name=self.document_name,
                )
            else:
                if (
                    self.document_name is not None
                    and path.start.name != self.document_name
                ):
                    raise TranslationError(
                        f"unknown document {path.start.name!r}; this store "
                        f"serves {self.document_name!r}"
                    )
                selection = TargetSelection(self.schema.root)
        elif isinstance(path.start, VariableStart):
            outer = env.get(path.start.name)
            if outer is None:
                raise TranslationError(f"unbound variable ${path.start.name}")
            if not isinstance(outer, TupleBinding):
                raise TranslationError(
                    f"cannot navigate below inlined binding ${path.start.name}"
                )
            if element_steps:
                selection = translate_relative_path(
                    self.schema,
                    outer.selection,
                    Path(path.start, tuple(element_steps)),
                )
            else:
                selection = outer.selection
        else:
            raise TranslationError(f"cannot bind path starting at {path.start!r}")
        return self._attach_trailing(selection, trailing)

    def _attach_trailing(self, selection: TargetSelection, trailing) -> Binding:
        if trailing is None:
            if selection.is_inlined:
                return InlinedBinding(
                    dataclass_replace(selection, inlined_path=()),
                    "element",
                    path=selection.inlined_path,
                )
            return TupleBinding(selection)
        relation = self.schema.relation(selection.relation)
        inlined_path = selection.inlined_path
        base = dataclass_replace(selection, inlined_path=())
        if isinstance(trailing, AttributeStep):
            attribute = _find_field(
                relation, inlined_path, (FIELD_ATTRIBUTE,), trailing.name
            )
            if attribute is not None:
                return InlinedBinding(base, "attribute", inlined_path, trailing.name)
            refs = _find_field(relation, inlined_path, (FIELD_REFS,), trailing.name)
            if refs is not None:
                return InlinedBinding(base, "refs", inlined_path, trailing.name)
            raise TranslationError(
                f"attribute {trailing.name!r} is not stored on relation "
                f"{relation.name!r} at path {inlined_path}"
            )
        if isinstance(trailing, RefStep):
            if trailing.label == "*":
                fields = [
                    f
                    for f in relation.fields
                    if f.kind == FIELD_REFS and f.path == inlined_path
                ]
                if len(fields) != 1:
                    raise TranslationError(
                        "ref(*, ...) needs exactly one reference attribute on "
                        f"relation {relation.name!r}"
                    )
                name = fields[0].name
            else:
                name = trailing.label
                if _find_field(relation, inlined_path, (FIELD_REFS,), name) is None:
                    raise TranslationError(
                        f"reference {name!r} is not stored on relation "
                        f"{relation.name!r}"
                    )
            return InlinedBinding(
                base, "ref_entry", inlined_path, name, ref_target=trailing.target
            )
        if isinstance(trailing, TextStep):
            if _find_field(relation, inlined_path, (FIELD_PCDATA,)) is None:
                raise TranslationError(
                    f"no PCDATA stored at path {inlined_path} of relation "
                    f"{relation.name!r}"
                )
            return InlinedBinding(base, "pcdata", inlined_path)
        raise TranslationError(f"cannot bind trailing step {trailing!r}")

    # ------------------------------------------------------------------
    # Materialisation (bind-before-update)
    # ------------------------------------------------------------------
    def _materialize_env(self, env: dict[str, Binding]) -> dict[str, Binding]:
        frozen: dict[str, Binding] = {}
        cache: dict[tuple, TargetSelection] = {}
        for variable, binding in env.items():
            if isinstance(binding, TupleBinding):
                frozen[variable] = TupleBinding(
                    self._freeze(binding.selection, cache)
                )
            else:
                frozen[variable] = dataclass_replace(
                    binding, base=self._freeze(binding.base, cache)
                )
        return frozen

    def _freeze(
        self, selection: TargetSelection, cache: dict[tuple, TargetSelection]
    ) -> TargetSelection:
        key = (selection.relation, selection.where_sql, selection.params)
        if key in cache:
            frozen = cache[key]
        else:
            ids = self._selection_ids(selection)
            id_list = ", ".join(str(i) for i in ids) or "NULL"
            frozen = TargetSelection(
                selection.relation,
                f'"{selection.relation}".id IN ({id_list})',
                (),
            )
            cache[key] = frozen
        return dataclass_replace(frozen, inlined_path=selection.inlined_path)

    def _selection_ids(self, selection: TargetSelection) -> list[int]:
        where = f" WHERE {selection.where_sql}" if selection.where_sql else ""
        rows = self.db.query(
            f'SELECT id FROM "{selection.relation}"{where}', selection.params
        )
        return [row[0] for row in rows]

    def _selection_rows(self, selection: TargetSelection) -> list[tuple[int, Optional[int]]]:
        where = f" WHERE {selection.where_sql}" if selection.where_sql else ""
        return self.db.query(
            f'SELECT id, parentId FROM "{selection.relation}"{where}',
            selection.params,
        )

    # ------------------------------------------------------------------
    # Operation execution
    # ------------------------------------------------------------------
    def _execute_op(
        self,
        env: dict[str, Binding],
        target_variable: str,
        operation: UpdateOp,
    ) -> None:
        target = env[target_variable]
        if not isinstance(target, TupleBinding):
            raise TranslationError(
                f"UPDATE target ${target_variable} must bind whole elements"
            )
        if isinstance(operation, Delete):
            self._execute_delete(env, operation)
        elif isinstance(operation, Insert):
            self._execute_insert(env, target, operation.content)
        elif isinstance(operation, (InsertBefore, InsertAfter)):
            self._execute_positional(env, target, operation)
        elif isinstance(operation, Replace):
            self._execute_replace(env, target, operation)
        elif isinstance(operation, Rename):
            self._execute_rename(env, operation)
        else:
            raise TranslationError(f"unsupported operation {operation!r}")

    # -- DELETE ---------------------------------------------------------
    def _execute_delete(self, env: dict[str, Binding], operation: Delete) -> None:
        binding = self._operand_binding(env, operation.child)
        if isinstance(binding, TupleBinding):
            # Complex delete: subtree stored across relations.
            selection = binding.selection
            self.delete_method.delete(
                self.db,
                self.schema,
                selection.relation,
                selection.where_sql,
                selection.params,
            )
            return
        # Simple delete: NULL out the inlined columns.
        relation = self.schema.relation(binding.base.relation)
        if binding.kind == "element":
            columns = [
                f for f in relation.fields if _path_under(f.path, binding.path)
            ]
            if not columns:
                raise TranslationError(
                    f"no stored columns under path {binding.path} of "
                    f"{relation.name!r}"
                )
            self._update_set(
                binding.base, {f.column: None for f in columns}
            )
        elif binding.kind in ("attribute", "refs"):
            field = _find_field(
                relation,
                binding.path,
                (FIELD_ATTRIBUTE, FIELD_REFS),
                binding.name,
            )
            assert field is not None
            self._update_set(binding.base, {field.column: None})
        elif binding.kind == "pcdata":
            field = _find_field(relation, binding.path, (FIELD_PCDATA,))
            assert field is not None
            self._update_set(binding.base, {field.column: None})
        elif binding.kind == "ref_entry":
            self._delete_ref_entry(binding)
        else:
            raise TranslationError(f"cannot delete binding kind {binding.kind!r}")

    def _delete_ref_entry(self, binding: InlinedBinding) -> None:
        relation = self.schema.relation(binding.base.relation)
        field = _find_field(relation, binding.path, (FIELD_REFS,), binding.name)
        assert field is not None
        column = f'"{field.column}"'
        if binding.ref_target == "*":
            self._update_set(binding.base, {field.column: None})
            return
        where = f" WHERE {binding.base.where_sql}" if binding.base.where_sql else ""
        # Remove the entry from the space-separated list; NULL the column
        # if it empties (the in-memory model drops empty lists too).
        self.db.execute(
            f'UPDATE "{relation.name}" SET {column} = '
            f"NULLIF(TRIM(REPLACE(' ' || {column} || ' ', ' ' || ? || ' ', ' ')), '')"
            f"{where}",
            (binding.ref_target,) + binding.base.params,
        )

    # -- INSERT ---------------------------------------------------------
    def _execute_insert(
        self,
        env: dict[str, Binding],
        target: TupleBinding,
        content,
    ) -> None:
        relation = self.schema.relation(target.selection.relation)
        if isinstance(content, str):
            field = _find_field(relation, (), (FIELD_PCDATA,))
            if field is None:
                raise TranslationError(
                    f"relation {relation.name!r} stores no PCDATA to append to"
                )
            where = self._where(target.selection)
            self.db.execute(
                f'UPDATE "{relation.name}" SET "{field.column}" = '
                f'COALESCE("{field.column}", \'\') || ?{where}',
                (content,) + target.selection.params,
            )
            return
        if isinstance(content, Attribute):
            field = _find_field(relation, (), (FIELD_ATTRIBUTE,), content.name)
            if field is None:
                refs = _find_field(relation, (), (FIELD_REFS,), content.name)
                if refs is not None:
                    self._append_ref(target.selection, refs, content.value)
                    return
                raise TranslationError(
                    f"attribute {content.name!r} is not stored on relation "
                    f"{relation.name!r}"
                )
            self._check_unoccupied(target.selection, field)
            self._update_set(target.selection, {field.column: content.value})
            return
        if isinstance(content, RefContent):
            field = _find_field(relation, (), (FIELD_REFS,), content.label)
            if field is None:
                raise TranslationError(
                    f"reference {content.label!r} is not stored on relation "
                    f"{relation.name!r}"
                )
            self._append_ref(target.selection, field, content.target)
            return
        if isinstance(content, Element):
            self._insert_element_content(target, relation, content)
            return
        if isinstance(content, VarOperand):
            self._insert_copy(env, target, content)
            return
        raise TranslationError(f"unsupported insert content {content!r}")

    def _insert_element_content(
        self,
        target: TupleBinding,
        relation: Relation,
        element: Element,
    ) -> None:
        child = _child_relation_for_tag(self.schema, relation, element.name)
        if child is not None:
            for target_id in self._selection_ids(target.selection):
                shred_element(
                    self.db, self.schema, child, element, target_id, self.allocator
                )
            return
        # Fully inlined content: set every column the element maps to.
        prefix = (element.name,)
        fields = [f for f in relation.fields if _path_under(f.path, prefix)]
        if not fields:
            raise TranslationError(
                f"element <{element.name}> maps to neither a child relation nor "
                f"inlined columns of {relation.name!r}"
            )
        # Paper §6.2: warn when inserting "over" a once-only item.
        marker = _find_field(relation, prefix, (FIELD_PCDATA,)) or _find_field(
            relation, prefix, (FIELD_PRESENCE,)
        )
        if marker is not None:
            self._check_unoccupied(target.selection, marker)
        wrapper = Element("wrapper")
        wrapper.append_child(element)
        assignments = {}
        for field in fields:
            assignments[field.column] = extract_field(wrapper, field)
        self._update_set(target.selection, assignments)

    def _insert_copy(
        self,
        env: dict[str, Binding],
        target: TupleBinding,
        content: VarOperand,
    ) -> None:
        source = env.get(content.name)
        if source is None:
            raise TranslationError(f"unbound content variable ${content.name}")
        if not isinstance(source, TupleBinding):
            raise TranslationError(
                "only whole-element bindings can be copied as content"
            )
        source_relation = self.schema.relation(source.selection.relation)
        target_relation = self.schema.relation(target.selection.relation)
        if source_relation.parent != target_relation.name and not (
            source_relation.name
            in target_relation.children
        ):
            # The copy must land where its tag is a child relation of the
            # target; same-relation copies (replicating subtrees under the
            # same parent kind) are the common, supported case.
            raise TranslationError(
                f"cannot copy {source_relation.name!r} subtrees under "
                f"{target_relation.name!r} tuples: no child relation matches"
            )
        for target_id in self._selection_ids(target.selection):
            self.insert_method.insert_copy(
                self.db,
                self.schema,
                self.allocator,
                source.selection.relation,
                source.selection.where_sql,
                source.selection.params,
                target_id,
            )

    def _execute_positional(
        self,
        env: dict[str, Binding],
        target: TupleBinding,
        operation,
    ) -> None:
        anchor = self._operand_binding(env, operation.anchor)
        before = isinstance(operation, InsertBefore)
        if (
            self.side_table is not None
            and isinstance(anchor, TupleBinding)
            and isinstance(operation.content, Element)
        ):
            self._positional_tuple_insert(anchor, operation.content, before)
            return
        if (
            isinstance(anchor, InlinedBinding)
            and anchor.kind == "ref_entry"
            and isinstance(operation.content, (str, RefContent))
        ):
            # IDREFS order lives inside one column, so positional reference
            # inserts are honoured via string surgery.
            new_target = (
                operation.content
                if isinstance(operation.content, str)
                else operation.content.target
            )
            if isinstance(operation.content, RefContent) and (
                operation.content.label != anchor.name
            ):
                raise TranslationError(
                    f"reference labelled {operation.content.label!r} cannot "
                    f"enter the {anchor.name!r} list"
                )
            relation = self.schema.relation(anchor.base.relation)
            field = _find_field(relation, anchor.path, (FIELD_REFS,), anchor.name)
            assert field is not None
            column = f'"{field.column}"'
            pair = f"{new_target} {anchor.ref_target}" if before else f"{anchor.ref_target} {new_target}"
            where = self._where(anchor.base)
            self.db.execute(
                f'UPDATE "{relation.name}" SET {column} = '
                f"TRIM(REPLACE(' ' || {column} || ' ', ' ' || ? || ' ', ' ' || ? || ' '))"
                f"{where}",
                (anchor.ref_target, pair) + anchor.base.params,
            )
            return
        # Element order is not stored relationally (Section 5.1): degrade.
        message = (
            "positional INSERT degraded to an append: the relational mapping "
            "does not store document order"
        )
        if self.strict_order:
            raise TranslationError(message)
        self.warnings.append(message)
        self._execute_insert(env, target, operation.content)

    def _positional_tuple_insert(
        self, anchor: TupleBinding, content: Element, before: bool
    ) -> None:
        """Insert ``content`` as a sibling tuple of every anchor tuple,
        spliced at the anchor's document-order position in the side
        table."""
        anchor_rows = self._selection_rows(anchor.selection)
        if not anchor_rows:
            return
        anchor_relation = self.schema.relation(anchor.selection.relation)
        if anchor_relation.parent is None:
            raise TranslationError("cannot insert siblings of the document root")
        content_relation = next(
            (
                child
                for child in self.schema.child_relations(anchor_relation.parent)
                if child.tag == content.name
            ),
            None,
        )
        if content_relation is None:
            raise TranslationError(
                f"element <{content.name}> cannot be stored as a sibling of "
                f"{anchor_relation.name!r} tuples"
            )
        size = _Shredder(self.schema, self.allocator)._count_tuples(
            content, content_relation
        )
        for anchor_id, parent_id in anchor_rows:
            new_id = shred_element(
                self.db, self.schema, content_relation, content,
                parent_id, self.allocator,
            )
            self.side_table.place(new_id, anchor_id, parent_id, before, size)

    # -- REPLACE --------------------------------------------------------
    def _execute_replace(
        self,
        env: dict[str, Binding],
        target: TupleBinding,
        operation: Replace,
    ) -> None:
        child = self._operand_binding(env, operation.child)
        content = operation.content
        if isinstance(child, TupleBinding):
            # Section 6.3's special case first: replacing a tree with the
            # value of one of its own subtrees links the subtree to the new
            # parent and deletes only the remainder — no data is copied.
            if isinstance(content, VarOperand):
                source = env.get(content.name)
                if (
                    isinstance(source, TupleBinding)
                    and source.selection.relation == child.selection.relation
                    and self._try_subtree_promotion(child, source)
                ):
                    return
            # General complex replace: delete the subtrees, insert content
            # under each doomed tuple's parent (Section 6.3).
            rows = self._selection_rows(child.selection)
            self.delete_method.delete(
                self.db,
                self.schema,
                child.selection.relation,
                child.selection.where_sql,
                child.selection.params,
            )
            relation = self.schema.relation(child.selection.relation)
            if isinstance(content, Element):
                for _old_id, parent_id in rows:
                    shred_element(
                        self.db, self.schema, relation, content, parent_id, self.allocator
                    )
                return
            if isinstance(content, VarOperand):
                source = env.get(content.name)
                if not isinstance(source, TupleBinding):
                    raise TranslationError(
                        "REPLACE content must be an element binding or literal"
                    )
                for _old_id, parent_id in rows:
                    self.insert_method.insert_copy(
                        self.db,
                        self.schema,
                        self.allocator,
                        source.selection.relation,
                        source.selection.where_sql,
                        source.selection.params,
                        parent_id,
                    )
                return
            raise TranslationError(
                f"cannot replace whole elements with content {content!r}"
            )
        relation = self.schema.relation(child.base.relation)
        if child.kind in ("element", "pcdata") and isinstance(content, Element):
            if child.kind == "element" and content.name != (
                child.path[-1] if child.path else relation.tag
            ):
                # Replacing <name> with <appellation>: the column set of the
                # new tag must exist; inlined mappings fix the tag per
                # column, so a cross-tag replace is a rename + set.
                renamed = self._counterpart_fields(
                    relation, child.path, (content.name,)
                )
                assignments: dict[str, Optional[str]] = {}
                wrapper = Element("wrapper")
                wrapper.append_child(content)
                for old_field, new_field in renamed:
                    assignments[old_field.column] = None
                    assignments[new_field.column] = extract_field(wrapper, new_field)
                self._update_set(child.base, assignments)
                return
            wrapper = Element("wrapper")
            wrapper.append_child(content)
            fields = [
                f for f in relation.fields if _path_under(f.path, child.path or (content.name,))
            ]
            if not fields:
                raise TranslationError(
                    f"element <{content.name}> maps to no stored columns at "
                    f"path {child.path} of relation {relation.name!r}"
                )
            assignments = {f.column: extract_field(wrapper, f) for f in fields}
            self._update_set(child.base, assignments)
            return
        if child.kind == "pcdata" and isinstance(content, str):
            field = _find_field(relation, child.path, (FIELD_PCDATA,))
            assert field is not None
            self._update_set(child.base, {field.column: content})
            return
        if child.kind == "attribute" and isinstance(content, Attribute):
            old_field = _find_field(
                relation, child.path, (FIELD_ATTRIBUTE,), child.name
            )
            assert old_field is not None
            if content.name == child.name:
                self._update_set(child.base, {old_field.column: content.value})
                return
            new_field = _find_field(
                relation, child.path, (FIELD_ATTRIBUTE,), content.name
            )
            if new_field is None:
                raise TranslationError(
                    f"attribute {content.name!r} is not stored on relation "
                    f"{relation.name!r}"
                )
            self._update_set(
                child.base, {old_field.column: None, new_field.column: content.value}
            )
            return
        if child.kind == "ref_entry":
            label, new_target = _ref_content(content)
            if label and label != child.name:
                raise TranslationError(
                    f"a reference can only be replaced by one with the same "
                    f"label ({child.name!r})"
                )
            field = _find_field(relation, child.path, (FIELD_REFS,), child.name)
            assert field is not None
            column = f'"{field.column}"'
            where = self._where(child.base)
            self.db.execute(
                f'UPDATE "{relation.name}" SET {column} = '
                f"TRIM(REPLACE(' ' || {column} || ' ', ' ' || ? || ' ', ' ' || ? || ' '))"
                f"{where}",
                (child.ref_target, new_target) + child.base.params,
            )
            return
        if child.kind == "refs":
            label, new_target = _ref_content(content)
            if label and label != child.name:
                raise TranslationError(
                    f"a reference list can only be replaced by references with "
                    f"the same label ({child.name!r})"
                )
            field = _find_field(relation, child.path, (FIELD_REFS,), child.name)
            assert field is not None
            self._update_set(child.base, {field.column: new_target})
            return
        raise TranslationError(
            f"cannot replace binding kind {child.kind!r} with {content!r}"
        )

    def _try_subtree_promotion(self, child: TupleBinding, source: TupleBinding) -> bool:
        """Attempt §6.3's optimisation: when the replacement is a subtree
        of the replaced tree itself, re-link it instead of copying.

        Applies when there is exactly one doomed tuple and every source
        tuple sits strictly inside its subtree.  Returns True if the
        replace was performed this way."""
        doomed = self._selection_rows(child.selection)
        if len(doomed) != 1:
            return False
        doomed_id, new_parent = doomed[0]
        source_ids = self._selection_ids(source.selection)
        if not source_ids or doomed_id in source_ids:
            return False
        relation = child.selection.relation
        for source_id in source_ids:
            if not self._is_descendant(relation, source_id, doomed_id):
                return False
        # 1. Link the promoted subtree roots to the doomed tuple's parent.
        id_list = ", ".join(str(i) for i in source_ids)
        self.db.execute(
            f'UPDATE "{relation}" SET parentId = ? WHERE id IN ({id_list})',
            (new_parent,),
        )
        # 2. Delete the remainder of the old tree (the promoted subtrees
        #    no longer hang under it, so the strategy cannot reach them).
        self.delete_method.delete(
            self.db, self.schema, relation, f'"{relation}".id = ?', (doomed_id,)
        )
        return True

    def _is_descendant(self, relation: str, node_id: int, ancestor_id: int) -> bool:
        """Walk parentId links within (and above) ``relation``.

        Only same-relation hops can reach ``ancestor_id`` (it lives in
        ``relation``), so the walk stays inside one table — the common
        case is a recursive relation, where this is exactly the paper's
        "subtree of the same kind of element"."""
        current = node_id
        for _ in range(100_000):  # cycle guard
            row = self.db.query_one(
                f'SELECT parentId FROM "{relation}" WHERE id = ?', (current,)
            )
            if row is None or row[0] is None:
                return False
            current = row[0]
            if current == ancestor_id:
                return True
        return False

    # -- RENAME ---------------------------------------------------------
    def _execute_rename(self, env: dict[str, Binding], operation: Rename) -> None:
        binding = self._operand_binding(env, operation.child)
        if isinstance(binding, TupleBinding):
            self._rename_relation_tuples(binding, operation.name)
            return
        relation = self.schema.relation(binding.base.relation)
        if binding.kind == "attribute":
            old_field = _find_field(
                relation, binding.path, (FIELD_ATTRIBUTE,), binding.name
            )
            new_field = _find_field(
                relation, binding.path, (FIELD_ATTRIBUTE,), operation.name
            )
            if old_field is None or new_field is None:
                raise TranslationError(
                    f"attribute rename needs both columns stored on "
                    f"{relation.name!r}"
                )
            self._move_column(binding.base, relation, old_field, new_field)
            return
        if binding.kind in ("refs", "ref_entry"):
            # §3.2: renaming one IDREF renames the entire IDREFS list.
            old_field = _find_field(relation, binding.path, (FIELD_REFS,), binding.name)
            new_field = _find_field(
                relation, binding.path, (FIELD_REFS,), operation.name
            )
            if old_field is None or new_field is None:
                raise TranslationError(
                    f"reference rename needs both columns stored on "
                    f"{relation.name!r}"
                )
            self._move_column(binding.base, relation, old_field, new_field)
            return
        if binding.kind == "element":
            pairs = self._counterpart_fields(
                relation, binding.path, binding.path[:-1] + (operation.name,)
            )
            where = self._where(binding.base)
            assignments = ", ".join(
                f'"{new.column}" = "{old.column}", "{old.column}" = NULL'
                for old, new in pairs
            )
            self.db.execute(
                f'UPDATE "{relation.name}" SET {assignments}{where}',
                binding.base.params,
            )
            return
        raise TranslationError(f"cannot rename binding kind {binding.kind!r}")

    def _rename_relation_tuples(self, binding: TupleBinding, new_name: str) -> None:
        """Move tuples between same-shaped sibling relations.

        The paper's optimisation: only the top-level table changes; ids
        are preserved, so child linkage would survive — but moving child
        rows between differently-rooted child relations is out of scope,
        hence the leaf-relation restriction.
        """
        relation = self.schema.relation(binding.selection.relation)
        if relation.parent is None:
            raise TranslationError("cannot rename the document root")
        siblings = self.schema.relation(relation.parent).children
        target_relation = None
        for sibling_name in siblings:
            sibling = self.schema.relation(sibling_name)
            if sibling.tag == new_name:
                target_relation = sibling
                break
        if target_relation is None:
            raise TranslationError(
                f"no sibling relation with tag {new_name!r} to rename into"
            )
        if relation.children or target_relation.children:
            raise TranslationError(
                "renaming non-leaf elements across relations is not supported"
            )
        # Columns are tag-named, so compare field *signatures* (kind, path
        # relative to the anchor, attribute name) and map positionally.
        def signature(rel: Relation):
            return [(f.kind, f.path, f.name) for f in rel.fields]

        if signature(relation) != signature(target_relation):
            raise TranslationError(
                f"relations {relation.name!r} and {target_relation.name!r} "
                "store different content; rename cannot move the data"
            )
        where = self._where(binding.selection)
        source_columns = ", ".join(f'"{c}"' for c in relation.all_columns)
        target_columns = ", ".join(f'"{c}"' for c in target_relation.all_columns)
        self.db.execute(
            f'INSERT INTO "{target_relation.name}" ({target_columns}) '
            f'SELECT {source_columns} FROM "{relation.name}"{where}',
            binding.selection.params,
        )
        self.db.execute(
            f'DELETE FROM "{relation.name}"{where}', binding.selection.params
        )

    # ------------------------------------------------------------------
    # Small helpers
    # ------------------------------------------------------------------
    def _operand_binding(self, env: dict[str, Binding], operand) -> Binding:
        if isinstance(operand, VarOperand):
            binding = env.get(operand.name)
            if binding is None:
                raise TranslationError(f"unbound variable ${operand.name}")
            return binding
        raise TranslationError(
            f"operand {operand!r} must be a variable in the relational translator"
        )

    def _where(self, selection: TargetSelection) -> str:
        return f" WHERE {selection.where_sql}" if selection.where_sql else ""

    def _update_set(self, selection: TargetSelection, assignments: dict) -> None:
        if not assignments:
            return
        columns = ", ".join(f'"{column}" = ?' for column in assignments)
        where = self._where(selection)
        relation = selection.relation
        self.db.execute(
            f'UPDATE "{relation}" SET {columns}{where}',
            tuple(assignments.values()) + selection.params,
        )

    def _append_ref(
        self, selection: TargetSelection, field: InlinedField, target: str
    ) -> None:
        column = f'"{field.column}"'
        where = self._where(selection)
        self.db.execute(
            f'UPDATE "{selection.relation}" SET {column} = '
            f"CASE WHEN {column} IS NULL OR {column} = '' THEN ? "
            f"ELSE {column} || ' ' || ? END{where}",
            (target, target) + selection.params,
        )

    def _check_unoccupied(
        self, selection: TargetSelection, field: InlinedField
    ) -> None:
        """Paper §6.2: query before inserting over a once-only item."""
        where = self._where(selection)
        conjunction = "AND" if where else "WHERE"
        row = self.db.query_one(
            f'SELECT COUNT(*) FROM "{selection.relation}"{where} {conjunction} '
            f'"{field.column}" IS NOT NULL',
            selection.params,
        )
        if row and row[0]:
            self.warnings.append(
                f"insert over occupied item {field.column!r} on "
                f"{selection.relation!r} ({row[0]} tuples overwritten)"
            )

    def _move_column(
        self,
        selection: TargetSelection,
        relation: Relation,
        old_field: InlinedField,
        new_field: InlinedField,
    ) -> None:
        where = self._where(selection)
        self.db.execute(
            f'UPDATE "{relation.name}" SET "{new_field.column}" = '
            f'"{old_field.column}", "{old_field.column}" = NULL{where}',
            selection.params,
        )

    def _counterpart_fields(
        self,
        relation: Relation,
        old_prefix: tuple[str, ...],
        new_prefix: tuple[str, ...],
    ) -> list[tuple[InlinedField, InlinedField]]:
        pairs: list[tuple[InlinedField, InlinedField]] = []
        for field in relation.fields:
            if not _path_under(field.path, old_prefix):
                continue
            suffix = field.path[len(old_prefix):]
            counterpart = None
            for candidate in relation.fields:
                if (
                    candidate.path == new_prefix + suffix
                    and candidate.kind == field.kind
                    and candidate.name == field.name
                ):
                    counterpart = candidate
                    break
            if counterpart is None:
                raise TranslationError(
                    f"no stored counterpart at {new_prefix + suffix} for column "
                    f"{field.column!r}; the DTD does not allow this rename"
                )
            pairs.append((field, counterpart))
        if not pairs:
            raise TranslationError(
                f"no stored columns under path {old_prefix} of {relation.name!r}"
            )
        return pairs


# ----------------------------------------------------------------------
# Module helpers
# ----------------------------------------------------------------------
def _split_trailing(steps):
    """Separate a path into leading element steps and one trailing
    attribute/ref/text step (or None)."""
    if steps and isinstance(steps[-1], (AttributeStep, RefStep, TextStep)):
        return list(steps[:-1]), steps[-1]
    return list(steps), None


def _find_field(
    relation: Relation,
    path: tuple[str, ...],
    kinds: tuple[str, ...],
    name: str = "",
) -> Optional[InlinedField]:
    for field in relation.fields:
        if field.path == path and field.kind in kinds:
            if not name or field.name == name:
                return field
    return None


def _path_under(path: tuple[str, ...], prefix: tuple[str, ...]) -> bool:
    return path[: len(prefix)] == prefix


def _child_relation_for_tag(
    schema: MappingSchema, relation: Relation, tag: str
) -> Optional[Relation]:
    for child_name in relation.children:
        child = schema.relation(child_name)
        if child.tag == tag and child.parent_path == ():
            return child
    return None


def _ref_content(content) -> tuple[str, str]:
    if isinstance(content, RefContent):
        return content.label, content.target
    if isinstance(content, Attribute):
        return content.name, content.value
    if isinstance(content, str):
        return "", content
    raise TranslationError(f"cannot use {content!r} as reference content")


def _predicate_variable(predicate: Expr) -> Optional[str]:
    """The single variable a WHERE predicate constrains, if exactly one."""
    variables: set[str] = set()
    _collect_variables(predicate, variables)
    if len(variables) == 1:
        return variables.pop()
    return None


def _collect_variables(node, variables: set[str]) -> None:
    if isinstance(node, Path):
        if isinstance(node.start, VariableStart):
            variables.add(node.start.name)
        for step in node.steps:
            if isinstance(step, ChildStep):
                for predicate in step.predicates:
                    _collect_variables(predicate, variables)
        return
    if hasattr(node, "path"):
        _collect_variables(node.path, variables)
    if hasattr(node, "left"):
        _collect_variables(node.left, variables)
    if hasattr(node, "right"):
        _collect_variables(node.right, variables)


def _strip_variable(predicate: Expr) -> Expr:
    """Rewrite ``$x/...`` paths in a predicate to context-relative paths
    (so they translate against $x's relation)."""
    from repro.xpath.ast import (
        BooleanOp,
        Comparison,
        ContextStart,
        Exists,
        IndexCall,
        PathValue,
    )

    def strip_path(path: Path) -> Path:
        if isinstance(path.start, VariableStart):
            return Path(ContextStart(), path.steps)
        return path

    if isinstance(predicate, PathValue):
        return PathValue(strip_path(predicate.path))
    if isinstance(predicate, Exists):
        return Exists(strip_path(predicate.path))
    if isinstance(predicate, Comparison):
        return Comparison(
            predicate.op,
            _strip_variable(predicate.left),
            _strip_variable(predicate.right),
        )
    if isinstance(predicate, BooleanOp):
        return BooleanOp(
            predicate.op,
            _strip_variable(predicate.left),
            _strip_variable(predicate.right),
        )
    if isinstance(predicate, IndexCall):
        raise TranslationError(
            "index() predicates are not supported by the relational store "
            "(document order is not stored)"
        )
    return predicate
