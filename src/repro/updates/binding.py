"""Binding enumeration shared by the XQuery FLWU evaluator and Sub-Updates.

Enumerates every combination of variable bindings produced by a list of
``FOR $var IN path`` clauses (evaluated left to right, later clauses
seeing earlier variables), optionally extended by ``LET`` clauses, and
filtered by WHERE predicates.  This is the paper's "path-expression-
matching operation that binds variables to objects within the input XML
document and returns tuples of references to the selected objects".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence, Union

from repro.updates.operations import ForClause
from repro.xpath.ast import Expr, Path
from repro.xpath.evaluator import Binding, XPathContext

_UNBOUND = object()


@dataclass(frozen=True)
class LetClause:
    """``LET $var := path`` — binds the whole node sequence at once."""

    variable: str
    path: Path


Clause = Union[ForClause, LetClause]


def enumerate_bindings(
    clauses: Sequence[Clause],
    predicates: Sequence[Expr],
    context: XPathContext,
) -> Iterator[dict[str, Binding]]:
    """Yield one variable-binding dict per combination passing the WHERE.

    The yielded dicts are snapshots (safe to store; enumeration is fully
    materialisable before any update executes, per Section 3.2).  Every
    path runs in one scope whose variables the expansion rebinds in
    place.
    """
    scope = context.child()
    names = [clause.variable for clause in clauses]
    tests = [predicate.compiled_test for predicate in predicates]
    for _ in _expand(clauses, 0, scope):
        if all(test(scope.context_node, scope) for test in tests):
            yield {name: scope.variables[name] for name in names}


def _expand(clauses: Sequence[Clause], index: int, scope: XPathContext) -> Iterator[None]:
    if index == len(clauses):
        yield
        return
    clause = clauses[index]
    variables = scope.variables
    nodes = clause.path.compiled(scope.context_node, scope)
    shadowed = variables.get(clause.variable, _UNBOUND)
    if isinstance(clause, LetClause):
        variables[clause.variable] = nodes  # type: ignore[assignment]
        yield from _expand(clauses, index + 1, scope)
    else:
        for node in nodes:
            variables[clause.variable] = node
            yield from _expand(clauses, index + 1, scope)
    if shadowed is _UNBOUND:
        variables.pop(clause.variable, None)
    else:
        variables[clause.variable] = shadowed
