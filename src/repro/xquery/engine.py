"""In-memory execution of FLWU statements over parsed documents.

:class:`XQueryEngine` is the top of the in-memory stack: it parses a
statement, enumerates all variable bindings over the *input* documents
(Section 3.2's bind-before-update rule, including nested Sub-Update
pattern matches), and then either executes the update operations
iteration by iteration or returns the RETURN clause's bindings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from repro.errors import UpdateError, XQueryError
from repro.obs import get_registry, span
from repro.updates.binding import enumerate_bindings
from repro.updates.delta import DeltaOp
from repro.updates.executor import BoundUpdate, UpdateExecutor
from repro.xmlmodel.model import Document, Element
from repro.xmlmodel.policy import RefPolicy
from repro.xpath.evaluator import Binding, XPathContext, evaluate_path
from repro.xquery.ast import Query
from repro.xquery.cache import parse_cached


@dataclass
class UpdateResult:
    """Outcome of an update statement."""

    bindings: int  # number of variable-binding iterations
    operations: int  # primitive operations executed (incl. nested)


@dataclass
class QueryResult:
    """Outcome of a RETURN statement: the bound nodes, in binding order."""

    nodes: list[Binding] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.nodes)

    def __iter__(self):
        return iter(self.nodes)


class XQueryEngine:
    """Executes XQuery statements (with update extensions) in memory.

    ``documents`` maps the names used in ``document("...")`` to parsed
    documents; ``ordered`` selects the execution model; ``policy``
    governs reference typing inside constructed XML content (defaults
    to the policy that is uniform across the registered documents, or
    the plain default policy).
    """

    def __init__(
        self,
        documents: dict[str, Document],
        ordered: bool = True,
        policy: Optional[RefPolicy] = None,
    ) -> None:
        self.documents = documents
        self.ordered = ordered
        self.policy = policy or RefPolicy.default()

    def parse(self, text: str) -> Query:
        """Parse through the process-wide statement cache (repeated
        statement texts skip the lexer and parser entirely)."""
        with span("xquery.parse"):
            return parse_cached(text, policy=self.policy)

    def execute(
        self,
        statement: Union[str, Query],
        *,
        recorder: Optional[list[DeltaOp]] = None,
    ) -> Union[UpdateResult, QueryResult]:
        """Run a statement; returns an UpdateResult or a QueryResult.

        An update appends its effect to ``recorder``, when given, as
        delta operations (see :class:`UpdateExecutor`)."""
        query = self.parse(statement) if isinstance(statement, str) else statement
        registry = get_registry()
        registry.counter("xquery.statements").inc()
        context = XPathContext(documents=self.documents)
        with span("xquery.bind"):
            combos = list(enumerate_bindings(query.clauses, query.where, context))
        registry.counter("xquery.bindings").inc(len(combos))
        if not query.is_update:
            with span("xquery.return"):
                return self._execute_return(query, combos, context)
        executor = UpdateExecutor(context, ordered=self.ordered, recorder=recorder)
        # Phase 1: bind every iteration of every UPDATE clause over the
        # pre-update documents.
        bound: list[BoundUpdate] = []
        with span("xquery.bind_updates"):
            for combo in combos:
                for clause in query.updates:
                    target = combo.get(clause.target_variable)
                    if target is None:
                        raise XQueryError(
                            f"UPDATE target ${clause.target_variable} is not bound by "
                            "the FOR/LET clauses"
                        )
                    if not isinstance(target, Element):
                        raise UpdateError(
                            f"UPDATE target ${clause.target_variable} must bind an "
                            f"element, got {target!r}"
                        )
                    bound.append(executor.bind(target, clause.operations, combo))
        # Phase 2: execute iteration by iteration.
        with span("xquery.execute"):
            for bound_update in bound:
                executor.execute(bound_update)
        operations = sum(_count_operations(item) for item in bound)
        registry.counter("xquery.operations").inc(operations)
        return UpdateResult(bindings=len(combos), operations=operations)

    def _execute_return(
        self,
        query: Query,
        combos: list[dict[str, Binding]],
        context: XPathContext,
    ) -> QueryResult:
        assert query.returns is not None
        result = QueryResult()
        seen: set[int] = set()
        for combo in combos:
            scoped = context.child(variables=combo)
            for node in evaluate_path(query.returns, scoped):
                if node.node_id not in seen:
                    seen.add(node.node_id)
                    result.nodes.append(node)
        return result


def _count_operations(bound: BoundUpdate) -> int:
    total = 0
    for step in bound.steps:
        if isinstance(step, BoundUpdate):
            total += _count_operations(step)
        else:
            total += 1
    return total
