"""AST node classes for the XPath subset used by the paper's examples.

The subset covers everything Sections 4 and 6 use:

* ``document("name")`` starts, ``$var`` starts, and relative paths;
* child (``/`` or ``.``) and descendant-or-self (``//``) steps with name
  tests or ``*``;
* attribute steps ``@name``;
* the paper's ``ref(label, target)`` reference-binding function with
  ``*`` wildcards for either argument;
* the dereference operator ``->`` (follows an IDREF to its element);
* ``text()`` steps selecting PCDATA children;
* predicates ``[...]`` with ``and`` / ``or``, comparisons
  (``= != < <= > >=``), relative paths, literals and numbers, and the
  positional ``index()`` call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union


# ----------------------------------------------------------------------
# Path starts
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DocumentStart:
    """``document("bio.xml")`` — selects the named document's root."""

    name: str


@dataclass(frozen=True)
class VariableStart:
    """``$var`` — continues from an existing binding."""

    name: str


@dataclass(frozen=True)
class ContextStart:
    """Relative path — starts at the evaluation context node."""


Start = Union[DocumentStart, VariableStart, ContextStart]


# ----------------------------------------------------------------------
# Steps
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ChildStep:
    """``/name`` (or ``.name``): child elements with a name test.

    ``name`` may be ``"*"``.  ``descendant=True`` encodes ``//name``.
    """

    name: str
    predicates: tuple["Expr", ...] = ()
    descendant: bool = False


@dataclass(frozen=True)
class AttributeStep:
    """``@name``: binds the attribute object itself (Section 4.2)."""

    name: str


@dataclass(frozen=True)
class RefStep:
    """``ref(label, target)``: binds an individual IDREF entry.

    Either argument may be the wildcard ``"*"``.
    """

    label: str
    target: str


@dataclass(frozen=True)
class DerefStep:
    """``->``: follow IDREF bindings to the elements they reference."""


@dataclass(frozen=True)
class TextStep:
    """``text()``: PCDATA children of the context element."""


Step = Union[ChildStep, AttributeStep, RefStep, DerefStep, TextStep]


@dataclass(frozen=True)
class Path:
    """A full path expression: a start plus a sequence of steps."""

    start: Start
    steps: tuple[Step, ...] = ()


# ----------------------------------------------------------------------
# Predicate / WHERE expressions
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Literal:
    """A quoted string constant."""

    value: str


@dataclass(frozen=True)
class Number:
    """A numeric constant (compared numerically when possible)."""

    value: float


@dataclass(frozen=True)
class PathValue:
    """A path used as a value: evaluates to the node-set's string values."""

    path: Path


@dataclass(frozen=True)
class IndexCall:
    """``<path>.index()``: 0-based position of the bound node among its
    parent's children (Example 5 in the paper)."""

    path: Path


@dataclass(frozen=True)
class Comparison:
    """``left op right`` with existential node-set semantics."""

    op: str  # '=', '!=', '<', '<=', '>', '>='
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class BooleanOp:
    """``and`` / ``or`` over two sub-expressions."""

    op: str  # 'and' | 'or'
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Exists:
    """A bare path in predicate position: true iff it matches anything."""

    path: Path


Expr = Union[Literal, Number, PathValue, IndexCall, Comparison, BooleanOp, Exists]
