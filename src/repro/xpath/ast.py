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

Paths and expressions compile to closures on first use and keep them
(``compiled``, and ``compiled_test`` for an expression in boolean
position): a cached statement is compiled once for all its executions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union


class _CompiledOnce:
    """A compiled form, built on first use by ``repro.xpath.evaluator``'s
    ``compiler`` and stored on the (frozen) node under the same name.

    ``functools.cached_property`` without its lock: Python 3.11 takes one
    lock per property for every instance, and compiling nests (a path
    compiles its predicates, a predicate its paths), so two threads
    compiling in opposite orders would deadlock.  Two threads racing
    here both compile and one equivalent closure is kept.
    """

    def __init__(self, compiler: str) -> None:
        self.compiler = compiler

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, node, owner=None):
        if node is None:
            return self
        from repro.xpath import evaluator  # the compiler imports this module

        compiled = node.__dict__[self.name] = getattr(evaluator, self.compiler)(node)
        return compiled


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

    #: ``run(context_node, context) -> bindings``.
    compiled = _CompiledOnce("compile_path")


# ----------------------------------------------------------------------
# Predicate / WHERE expressions
# ----------------------------------------------------------------------
class _Compiled:
    """The compiled forms every expression keeps once built."""

    #: ``value(context_node, context)``: atoms, an atom list or a bool.
    compiled = _CompiledOnce("compile_value")
    #: ``test(context_node, context) -> bool``.
    compiled_test = _CompiledOnce("compile_test")


@dataclass(frozen=True)
class Literal(_Compiled):
    """A quoted string constant."""

    value: str


@dataclass(frozen=True)
class Number(_Compiled):
    """A numeric constant (compared numerically when possible)."""

    value: float


@dataclass(frozen=True)
class PathValue(_Compiled):
    """A path used as a value: evaluates to the node-set's string values."""

    path: Path


@dataclass(frozen=True)
class IndexCall(_Compiled):
    """``<path>.index()``: 0-based position of the bound node among its
    parent's children (Example 5 in the paper)."""

    path: Path


@dataclass(frozen=True)
class Comparison(_Compiled):
    """``left op right`` with existential node-set semantics."""

    op: str  # '=', '!=', '<', '<=', '>', '>='
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class BooleanOp(_Compiled):
    """``and`` / ``or`` over two sub-expressions."""

    op: str  # 'and' | 'or'
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Exists(_Compiled):
    """A bare path in predicate position: true iff it matches anything."""

    path: Path


Expr = Union[Literal, Number, PathValue, IndexCall, Comparison, BooleanOp, Exists]
