"""`XmlStore`: the end-to-end XML repository over SQLite.

Usage::

    store = XmlStore.from_dtd(dtd_text)
    store.load(document)
    store.set_delete_method("per_tuple_trigger")
    store.execute('FOR $c IN document("doc.xml")/CustDB/Customer[Name="John"] '
                  'UPDATE $d { DELETE $c }')      # translated to SQL
    elements = store.query('FOR $c IN .../Customer[Name="John"] RETURN $c')

Queries run through the Sorted Outer Union (Section 5.2); updates run
through the configured delete/insert strategies (Section 6).  The store
keeps the paper's measurement hooks exposed: ``db.counts`` for SQL
statement counts and strategy switching per experiment.

Document order (the paper's §8 future work) is an optional *side
table* next to the mapping — :class:`~repro.relational.ordered.OrderedStore`
or :class:`~repro.relational.interval.IntervalIndex` — that this one
store calls at fixed points (:class:`SideTable`).  The paper-default
store has none and takes none of those branches.
"""

from __future__ import annotations

from typing import Callable, Optional, Protocol, Sequence, Union

from repro.errors import StorageError, TranslationError
from repro.obs import get_registry, span
from repro.relational.asr import AsrManager
from repro.relational.database import Database
from repro.relational.delete_methods import (
    DELETE_METHODS,
    AsrDelete,
    DeleteMethod,
    IntervalRangeDelete,
)
from repro.relational.idgen import IdAllocator
from repro.relational.inlining import derive_inlining_schema
from repro.relational.insert_methods import (
    INSERT_METHODS,
    AsrInsert,
    InsertMethod,
    IntervalCopyInsert,
)
from repro.relational.interval import IntervalIndex
from repro.relational.outer_union import build_outer_union, reconstruct_elements
from repro.relational.plan_cache import PlanCache, contains_rename
from repro.relational.query_translate import (
    TargetSelection,
    translate_predicate,
    translate_target_path,
)
from repro.relational.schema import MappingSchema
from repro.relational.shredder import create_schema, shred_document
from repro.relational.update_translate import UpdateTranslator, _strip_variable
from repro.xmlmodel.dtd import Dtd, parse_dtd
from repro.xmlmodel.model import Document, Element
from repro.xmlmodel.policy import RefPolicy
from repro.xpath.ast import VariableStart
from repro.xquery.ast import Query
from repro.xquery.cache import parse_cached, statement_cache_stats


class SideTable(Protocol):
    """An order side table's hooks, as :class:`XmlStore` calls them."""

    #: Whether :meth:`positions` orders the whole document (and so also
    #: sorts top-level results) rather than siblings per parent.
    positions_global: bool
    #: Descendant-step lowering for query translation, or None.
    resolver: Optional[Callable]

    def after_load(self) -> None:
        """Index the tuples a document load just wrote."""

    def place(self, new_id: int, anchor_id: int, parent_id: int,
              before: bool, size: int) -> None:
        """Splice one new ``size``-tuple subtree next to a sibling."""

    def after_write(self, inserted: bool = True, deleted: bool = True) -> bool:
        """Index new tuples and/or sweep deleted ones; True when ordinals
        that cached plans bake in moved."""

    def positions(self) -> dict[int, int]:
        """Tuple id -> position, for order-aware reconstruction."""

    def configure_like(self, other: "SideTable") -> None:
        """Take ``other``'s configuration (for :meth:`XmlStore.snapshot`)."""


class XmlStore:
    """An XML repository with a relational (SQLite) core."""

    #: Set by the order-keeping constructors; None keeps the paper's
    #: unordered semantics.
    _side_table: Optional[SideTable] = None

    def __init__(
        self,
        schema: MappingSchema,
        db: Optional[Database] = None,
        document_name: str = "doc.xml",
        policy: Optional[RefPolicy] = None,
        strict_order: bool = False,
        create: bool = True,
    ) -> None:
        self.schema = schema
        self.db = db or Database()
        self.document_name = document_name
        self.policy = policy or RefPolicy.default()
        self.strict_order = strict_order
        if create:
            create_schema(self.db, schema)
        self.allocator = IdAllocator(self.db)
        self._delete_method: DeleteMethod = DELETE_METHODS["per_tuple_trigger"]()
        self._insert_method: InsertMethod = INSERT_METHODS["table"]()
        self._asr: Optional[AsrManager] = None
        self._interval_index: Optional[IntervalIndex] = None
        if create:
            self._delete_method.install(self.db, self.schema)
        self.plan_cache = PlanCache()
        self.warnings: list[str] = []

    def snapshot(self) -> "XmlStore":
        """A fully independent copy of this store (schema + data +
        installed machinery).  Benchmark runs mutate the copy.

        Trigger DDL, ASR tables and side-table rows travel with the
        cloned database; strategy objects are re-instantiated against
        the copy, and its side table takes this one's configuration.
        """
        copy = self.__class__(
            self.schema,
            db=self.db.clone(),
            document_name=self.document_name,
            policy=self.policy,
            strict_order=self.strict_order,
            create=False,
        )
        if self._side_table is not None:
            copy._side_table.configure_like(self._side_table)
        copy._delete_method = copy._strategy(DELETE_METHODS, self._delete_method.name)
        copy._insert_method = copy._strategy(INSERT_METHODS, self._insert_method.name)
        return copy

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_dtd(
        cls,
        dtd: Union[str, Dtd],
        root: Optional[str] = None,
        db: Optional[Database] = None,
        document_name: str = "doc.xml",
        strict_order: bool = False,
        **options,
    ) -> "XmlStore":
        """Build a store whose mapping is derived from a DTD; ``options``
        go to the constructor (``order_policy=``, ``interval_gap=``)."""
        parsed = parse_dtd(dtd) if isinstance(dtd, str) else dtd
        schema = derive_inlining_schema(parsed, root=root)
        policy = RefPolicy.from_dtd(parsed)
        return cls(
            schema,
            db=db,
            document_name=document_name,
            policy=policy,
            strict_order=strict_order,
            **options,
        )

    def load(self, document: Document) -> int:
        """Shred a document into the store; returns the root tuple id."""
        root_id = shred_document(self.db, self.schema, document, self.allocator)
        if self._side_table is not None:
            self._side_table.after_load()
        return root_id

    # ------------------------------------------------------------------
    # Strategy selection
    # ------------------------------------------------------------------
    @property
    def delete_method(self) -> str:
        return self._delete_method.name

    @property
    def insert_method(self) -> str:
        return self._insert_method.name

    def set_delete_method(self, name: str) -> None:
        """Switch delete strategy, swapping trigger/ASR machinery."""
        if name not in DELETE_METHODS:
            raise StorageError(
                f"unknown delete method {name!r}; choose from "
                f"{sorted(DELETE_METHODS)}"
            )
        if name == self._delete_method.name:
            return
        self._delete_method.uninstall(self.db, self.schema)
        method = self._strategy(DELETE_METHODS, name)
        method.install(self.db, self.schema)
        self._delete_method = method

    def set_insert_method(self, name: str) -> None:
        if name not in INSERT_METHODS:
            raise StorageError(
                f"unknown insert method {name!r}; choose from "
                f"{sorted(INSERT_METHODS)}"
            )
        if name == self._insert_method.name:
            return
        self._insert_method.uninstall(self.db, self.schema)
        method = self._strategy(INSERT_METHODS, name)
        method.install(self.db, self.schema)
        self._insert_method = method

    def _strategy(self, registry: dict, name: str):
        """Build strategy ``name`` wired to this store's shared machinery:
        the ASR manager or the interval index."""
        method = registry[name]()
        if isinstance(method, (AsrDelete, AsrInsert)):
            method.asr = self._shared_asr()
        if isinstance(method, (IntervalRangeDelete, IntervalCopyInsert)):
            method.index = self._shared_interval()
        return method

    def _shared_asr(self) -> AsrManager:
        if self._asr is None:
            self._asr = AsrManager(self.db, self.schema)
        return self._asr

    def _shared_interval(self) -> IntervalIndex:
        """One interval index per store, shared by both interval
        strategies (and the interval store's side table)."""
        if self._interval_index is None:
            self._interval_index = IntervalIndex(self.db, self.schema)
        return self._interval_index

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------
    def parse(self, text: str) -> Query:
        """Parse through the process-wide statement cache."""
        return parse_cached(text, policy=self.policy)

    def execute(self, statement: Union[str, Query]) -> Optional[list[Element]]:
        """Run an XQuery statement: updates mutate the store and return
        None; RETURN queries reconstruct and return elements."""
        query = self.parse(statement) if isinstance(statement, str) else statement
        if query.is_update:
            get_registry().counter("store.updates").inc()
            translator = UpdateTranslator(
                self.db,
                self.schema,
                self.allocator,
                self._delete_method,
                self._insert_method,
                strict_order=self.strict_order,
                document_name=self.document_name,
                side_table=self._side_table,
            )
            try:
                with span("sql.translate", kind="update"):
                    translator.execute_update(query)
            except Exception:
                # A failing sub-operation must not leave a partial update
                # behind (the statement is one logical unit of work).
                self.db.rollback()
                raise
            self.warnings.extend(translator.warnings)
            if contains_rename(query):
                # Rename moves tuples between sibling relations, changing
                # the element-to-relation assignment cached plans baked in.
                self.plan_cache.bump_generation()
            if self._side_table is not None:
                self._sync_side_table()
                self.db.commit()
            return None
        return self.query(statement if isinstance(statement, str) else query)

    def query(
        self, statement: Union[str, Query], key: Optional[str] = None
    ) -> list[Element]:
        """Run a FLWR statement via the Sorted Outer Union.

        Statement *text* is translated through the per-store plan cache.
        A pre-parsed :class:`Query` uses it only when ``key`` gives its
        text, parsed under this store's policy (there is no stable key
        otherwise).  The SQL runs on the reader pool when one is
        configured (:meth:`Database.read_query`).
        """
        text = statement if isinstance(statement, str) else key
        query = self.parse(statement) if isinstance(statement, str) else statement
        if query.is_update:
            raise StorageError("use execute() for update statements")
        if query.returns is None:
            raise StorageError("query has no RETURN clause")
        get_registry().counter("store.queries").inc()
        outer_union = self.plan_cache.get(text) if text is not None else None
        if outer_union is None:
            with span("sql.translate", kind="query"):
                selection = self._query_selection(query)
                outer_union = build_outer_union(
                    self.schema,
                    selection.relation,
                    selection.where_sql,
                    selection.params,
                )
            if text is not None:
                self.plan_cache.put(text, outer_union)
        side = self._side_table
        if side is None:
            # Unordered store: safe on a pooled snapshot reader.
            positions = None
            rows = self.db.read_query(outer_union.sql, outer_union.params)
        else:
            # Positions come off the writer connection, so the rows must
            # too (a snapshot could skew against the side table).
            positions = side.positions()
            rows = self.db.query(outer_union.sql, outer_union.params)
        with span("store.reconstruct", rows=len(rows)):
            return reconstruct_elements(
                self.schema,
                outer_union,
                rows,
                positions=positions,
                positions_global=bool(side and side.positions_global),
            )

    def _query_selection(self, query: Query) -> TargetSelection:
        """Resolve a FLWR query's RETURN target to a tuple selection."""
        selections: dict[str, TargetSelection] = {}
        predicate_groups: dict[str, list] = {}
        for predicate in query.where:
            variables: set[str] = set()
            from repro.relational.update_translate import _collect_variables

            _collect_variables(predicate, variables)
            if len(variables) != 1:
                raise TranslationError(
                    f"WHERE predicate {predicate!r} must reference exactly one "
                    "variable"
                )
            predicate_groups.setdefault(variables.pop(), []).append(predicate)
        from repro.relational.query_translate import translate_relative_path
        from repro.updates.binding import LetClause

        resolver = self._side_table.resolver if self._side_table else None
        for clause in query.clauses:
            if isinstance(clause, LetClause):
                raise TranslationError(
                    "LET clauses are not supported by the relational store"
                )
            path = clause.path
            if isinstance(path.start, VariableStart):
                base = selections.get(path.start.name)
                if base is None:
                    raise TranslationError(f"unbound variable ${path.start.name}")
                selection = translate_relative_path(
                    self.schema, base, path, resolver=resolver
                )
            else:
                selection = translate_target_path(
                    self.schema, path, document_name=self.document_name,
                    resolver=resolver,
                )
            for predicate in predicate_groups.pop(clause.variable, []):
                selection = translate_predicate(
                    self.schema, selection, _strip_variable(predicate)
                )
            selections[clause.variable] = selection
        returns = query.returns
        assert returns is not None
        if isinstance(returns.start, VariableStart) and not returns.steps:
            name = returns.start.name
            if name not in selections:
                raise TranslationError(f"RETURN references unbound ${name}")
            result = selections[name]
        elif isinstance(returns.start, VariableStart):
            base = selections.get(returns.start.name)
            if base is None:
                raise TranslationError(
                    f"RETURN references unbound ${returns.start.name}"
                )
            result = translate_relative_path(
                self.schema, base, returns, resolver=resolver
            )
        else:
            result = translate_target_path(
                self.schema, returns, document_name=self.document_name,
                resolver=resolver,
            )
        if result.is_inlined:
            raise TranslationError(
                "RETURN of inlined elements is not supported; return the "
                "enclosing element"
            )
        return result

    # ------------------------------------------------------------------
    # Direct (benchmark-facing) operations
    # ------------------------------------------------------------------
    def delete_subtrees(
        self, relation: str, where_sql: str = "", params: Sequence = ()
    ) -> None:
        """Delete subtrees with the active strategy (used by benchmarks
        and store hosts)."""
        self._delete_method.delete(self.db, self.schema, relation, where_sql, params)
        if self._side_table is not None:
            self._sync_side_table(
                inserted=False, deleted=not self._keeps_side_table(self._delete_method)
            )

    def copy_subtrees(
        self,
        relation: str,
        where_sql: str,
        params: Sequence,
        new_parent_id: int,
    ) -> None:
        """Copy subtrees with the active strategy (used by benchmarks
        and store hosts)."""
        self._insert_method.insert_copy(
            self.db,
            self.schema,
            self.allocator,
            relation,
            where_sql,
            params,
            new_parent_id,
        )
        if self._side_table is not None:
            self._sync_side_table(
                inserted=not self._keeps_side_table(self._insert_method), deleted=False
            )

    def _sync_side_table(self, inserted: bool = True, deleted: bool = True) -> None:
        """Bring the side table in line after a write; drop cached plans
        whose baked-in ordinals it moved."""
        if self._side_table.after_write(inserted=inserted, deleted=deleted):
            self.plan_cache.bump_generation("renumber")

    def _keeps_side_table(self, method) -> bool:
        """Whether a strategy maintains the side table itself (the
        interval strategies on the interval store's own index)."""
        return getattr(method, "index", None) is self._side_table

    def to_document(self) -> Document:
        """Reconstruct the full stored document (Sorted Outer Union over
        the root relation)."""
        outer_union = build_outer_union(self.schema, self.schema.root)
        rows = self.db.query(outer_union.sql, outer_union.params)
        side = self._side_table
        elements = reconstruct_elements(
            self.schema,
            outer_union,
            rows,
            positions=side.positions() if side else None,
            positions_global=bool(side and side.positions_global),
        )
        if len(elements) != 1:
            raise StorageError(
                f"expected exactly one root tuple, found {len(elements)}"
            )
        return Document(elements[0], id_attribute=self.policy.id_attribute)

    def tuple_count(self, relation: Optional[str] = None) -> int:
        if relation is not None:
            return self.db.query_one(f'SELECT COUNT(*) FROM "{relation}"')[0]
        total = 0
        for name in self.schema.relations:
            total += self.db.query_one(f'SELECT COUNT(*) FROM "{name}"')[0]
        return total

    def configure_readers(self, readers: int) -> None:
        """Enable (``readers >= 1``) or disable (0) the snapshot reader
        pool behind :meth:`query`; see :meth:`Database.configure_pool`."""
        self.db.configure_pool(readers)

    def cache_stats(self) -> dict:
        """Read-path snapshot: statement cache, plan cache, reader pool."""
        return {
            "statement": statement_cache_stats(),
            "plan": self.plan_cache.stats(),
            "pool": self.db.pool_stats(),
        }

    def close(self) -> None:
        self.db.close()

    def __enter__(self) -> "XmlStore":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()
