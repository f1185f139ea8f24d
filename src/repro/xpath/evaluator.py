"""Evaluation of the XPath subset over the in-memory data model.

Each :class:`Path` and :class:`Expr` compiles, once, to closures that the
AST node keeps (``Path.compiled``, ``Expr.compiled``, ``Expr.compiled_test``),
so a statement in the statement cache carries its evaluation plan.  The
step kind and name test, whether a step can yield duplicates, the
comparison operator and its numeric-or-string choice, and how to take a
result's string value are all decided when compiling.  One shape gets a
kernel of its own, the predicate the paper's statements and the service
workloads select targets with: ``[@name = "literal"]`` compiles to the
*attribute-equality kernel* (``_compile_equals_literal``), which reads
the context element's attribute or reference list directly instead of
building the ``@name`` node list and its string values.

A compiled path runs as ``run(context_node, context)``: the
:class:`XPathContext` holds documents and variables, and
``context_node`` anchors relative paths, so a predicate tests each
candidate without a derived context.  A path evaluates to a list of
*node bindings* in document order with duplicates removed: elements,
attributes, reference entries, whole reference lists (``@name`` on an
IDREFS attribute), or text nodes.
"""

from __future__ import annotations

import operator
from typing import Callable, Optional, Union

from repro.errors import XPathError
from repro.xmlmodel.model import Attribute, Document, Element, Node, RefEntry, Reference, Text
from repro.xpath.ast import (
    AttributeStep,
    BooleanOp,
    ChildStep,
    Comparison,
    ContextStart,
    DerefStep,
    DocumentStart,
    Exists,
    Expr,
    IndexCall,
    Literal,
    Number,
    Path,
    PathValue,
    RefStep,
    Step,
    TextStep,
    VariableStart,
)

Binding = Union[Element, Attribute, Reference, RefEntry, Text]
Atom = Union[str, float]
Value = Union[list[Atom], Atom, bool]
#: A compiled path or expression: ``fn(context_node, context)``.
PathFn = Callable[[Optional[Binding], "XPathContext"], list[Binding]]
ExprFn = Callable[[Optional[Binding], "XPathContext"], Value]


class XPathContext:
    """Everything a path needs to evaluate: documents, variables, context.

    ``documents`` maps the names used in ``document("...")`` calls to
    parsed documents.  ``variables`` maps variable names to their
    current single-node binding.  ``context_node`` anchors relative
    paths (it is the update target inside nested sub-updates).
    """

    def __init__(
        self,
        documents: Optional[dict[str, Document]] = None,
        variables: Optional[dict[str, Binding]] = None,
        context_node: Optional[Binding] = None,
    ) -> None:
        self.documents = dict(documents or {})
        self.variables = dict(variables or {})
        self.context_node = context_node

    def child(
        self,
        variables: Optional[dict[str, Binding]] = None,
        context_node: Optional[Binding] = None,
    ) -> "XPathContext":
        """A derived context with extra variables and/or a new context node."""
        merged = dict(self.variables)
        if variables:
            merged.update(variables)
        return XPathContext(
            documents=self.documents,
            variables=merged,
            context_node=context_node if context_node is not None else self.context_node,
        )

    def resolve_id(self, node: Node, id_value: str) -> Optional[Element]:
        """Resolve an ID within the registered document that owns ``node``."""
        root = node.root_element()
        for document in self.documents.values():
            if root is not None and document.root is root:
                return document.element_by_id(id_value)
        return None


def string_value(node: Binding) -> str:
    """XPath string value: recursive text for elements, the value for
    attributes/text, the target ID for reference entries."""
    if isinstance(node, Element):
        return _element_text(node)
    if isinstance(node, (Attribute, Text)):
        return node.value
    if isinstance(node, RefEntry):
        return node.target
    if isinstance(node, Reference):
        return " ".join(node.targets)
    raise XPathError(f"cannot take the string value of {node!r}")


def _element_text(element: Element) -> str:
    return "".join(
        child.value if isinstance(child, Text) else _element_text(child)
        for child in element.children
    )


def evaluate_path(path: Path, context: XPathContext) -> list[Binding]:
    """Evaluate a path to its node bindings, in document order, deduplicated."""
    return path.compiled(context.context_node, context)


def evaluate_expr(expr: Expr, context: XPathContext) -> Value:
    """Evaluate an expression to a value: atoms, atom lists, or a boolean."""
    return expr.compiled(context.context_node, context)


def evaluate_predicate(expr: Expr, context: XPathContext) -> bool:
    """Evaluate an expression in boolean position."""
    return expr.compiled_test(context.context_node, context)


def compile_path(path: Path) -> PathFn:
    """Compile ``path``; reached through ``path.compiled``, which keeps it."""
    steps = list(path.steps)
    if isinstance(path.start, DocumentStart) and steps and isinstance(steps[0], ChildStep):
        # Standard XPath: the document node sits above the root element,
        # so the first child step of an absolute path names the ROOT
        # (document("x.xml")/CustDB selects the <CustDB> root itself).
        begin = _compile_root_step(path.start.name, steps.pop(0))
    else:
        begin = _compile_start(path.start)
    rest = tuple(_compile_step(step) for step in steps)

    def run(node: Optional[Binding], context: XPathContext) -> list[Binding]:
        nodes = begin(node, context)
        for step in rest:
            if not nodes:
                break
            nodes = step(nodes, context)
        return nodes

    return run if rest else begin


def _document(name: str, context: XPathContext) -> Document:
    document = context.documents.get(name)
    if document is None:
        known = sorted(context.documents)
        raise XPathError(f"unknown document {name!r}; known: {known}")
    return document


_NO_CONTEXT_NODE = "relative path used without a context node"


def _compile_start(start) -> PathFn:
    if isinstance(start, DocumentStart):
        return lambda node, context: [_document(start.name, context).root]
    if isinstance(start, VariableStart):
        name = start.name

        def variable(node: Optional[Binding], context: XPathContext) -> list[Binding]:
            if name not in context.variables:
                raise XPathError(f"unbound variable ${name}")
            value = context.variables[name]
            # LET clauses bind whole node sequences (deduplicated here, so
            # that no step after them has to be); FOR clauses bind one node.
            return _distinct(value) if isinstance(value, list) else [value]

        return variable

    def relative(node: Optional[Binding], context: XPathContext) -> list[Binding]:
        if node is None:
            raise XPathError(_NO_CONTEXT_NODE)
        return [node]

    return relative


def _distinct(nodes) -> list[Binding]:
    seen: set[int] = set()
    return [node for node in nodes if not (node.node_id in seen or seen.add(node.node_id))]


def _filter(step: ChildStep) -> Optional[Callable[[Binding, XPathContext], bool]]:
    """All of ``step``'s predicates as one test, or None without any."""
    tests = tuple(predicate.compiled_test for predicate in step.predicates)
    if len(tests) <= 1:
        return tests[0] if tests else None
    return lambda node, context: all(test(node, context) for test in tests)


def _compile_root_step(document_name: str, step: ChildStep) -> PathFn:
    if step.descendant:
        descend = _compile_step(step)
        return lambda node, context: descend([_document(document_name, context).root], context)
    name, keep = step.name, _filter(step)

    def root_step(node: Optional[Binding], context: XPathContext) -> list[Binding]:
        root = _document(document_name, context).root
        matched = name in ("*", root.name) and (keep is None or keep(root, context))
        return [root] if matched else []

    return root_step


def _self_and_descendants(element: Element, out: list[Element]) -> None:
    out.append(element)
    for child in element.children:
        if isinstance(child, Element):
            _self_and_descendants(child, out)


def _compile_step(step: Step) -> Callable[[list[Binding], XPathContext], list[Binding]]:
    """Child, ``@`` and ``text()`` steps over distinct nodes yield distinct
    nodes (each has one parent), so only ``//``, ``ref()`` and ``->``,
    whose results can meet, keep a ``node_id`` set."""
    if isinstance(step, ChildStep):
        name, wildcard, keep = step.name, step.name == "*", _filter(step)
        if not step.descendant:
            return lambda nodes, context: [
                child
                for node in nodes
                if isinstance(node, Element)
                for child in node.children
                if isinstance(child, Element)
                and (wildcard or child.name == name)
                and (keep is None or keep(child, context))
            ]

        def descendants(nodes: list[Binding], context: XPathContext) -> list[Binding]:
            pool: list[Element] = []
            for node in nodes:
                if isinstance(node, Element):
                    _self_and_descendants(node, pool)
            found = [element for element in pool if wildcard or element.name == name]
            found = _distinct(found) if len(nodes) > 1 else found
            return [n for n in found if keep(n, context)] if keep else found

        return descendants
    if isinstance(step, AttributeStep):
        name = step.name
        return lambda nodes, context: [
            found
            for node in nodes
            if isinstance(node, Element)
            for found in (node.attributes.get(name), node.references.get(name))
            if found is not None
        ]
    if isinstance(step, TextStep):
        return lambda nodes, context: [
            child
            for node in nodes
            if isinstance(node, Element)
            for child in node.children
            if isinstance(child, Text)
        ]
    if isinstance(step, RefStep):
        label, target = step.label, step.target
        return lambda nodes, context: _distinct(
            entry
            for node in nodes
            if isinstance(node, Element)
            for reference in node.references.values()
            if label in ("*", reference.name)
            for entry in reference.entries
            if target in ("*", entry.target)
        )
    if isinstance(step, DerefStep):
        return lambda nodes, context: _distinct(
            element
            for node in nodes
            for target in _targets(node)
            for element in (context.resolve_id(node, target),)
            if element is not None
        )
    raise XPathError(f"unsupported step {step!r}")


def _targets(node: Binding) -> list[str]:
    if isinstance(node, RefEntry):
        return [node.target]
    if isinstance(node, Reference):
        return node.targets
    if isinstance(node, Attribute):
        return node.value.split()
    return []


def _string_of(path: Path) -> Callable[[Binding], str]:
    """The string value, specialised by the kind ``path``'s last step binds."""
    last = path.steps[-1] if path.steps else None
    if isinstance(last, (ChildStep, DerefStep)):
        return _element_text
    if isinstance(last, TextStep):
        return operator.attrgetter("value")
    if isinstance(last, RefStep):
        return operator.attrgetter("target")
    if isinstance(last, AttributeStep):
        return lambda node: node.value if isinstance(node, Attribute) else " ".join(node.targets)
    return string_value


# ----------------------------------------------------------------------
# Predicate / WHERE expressions
# ----------------------------------------------------------------------
_OPERATORS = {"=": operator.eq, "!=": operator.ne, "<": operator.lt,
              "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def compile_value(expr: Expr) -> ExprFn:
    """Compile ``expr`` to its value; reached through ``expr.compiled``."""
    if isinstance(expr, (Literal, Number)):
        value = expr.value
        return lambda node, context: value
    if isinstance(expr, (PathValue, IndexCall)):
        return _compile_atoms(expr)
    return expr.compiled_test


def compile_test(expr: Expr) -> ExprFn:
    """Compile ``expr`` as a test; reached through ``expr.compiled_test``."""
    if isinstance(expr, (Literal, Number)):
        truth = bool(expr.value)
        return lambda node, context: truth
    if isinstance(expr, (PathValue, Exists)):
        run = expr.path.compiled
        return lambda node, context: bool(run(node, context))
    if isinstance(expr, IndexCall):
        positions = _compile_atoms(expr)
        return lambda node, context: bool(positions(node, context))
    if isinstance(expr, BooleanOp):
        left, right = expr.left.compiled_test, expr.right.compiled_test
        if expr.op == "and":
            return lambda node, context: left(node, context) and right(node, context)
        return lambda node, context: left(node, context) or right(node, context)
    if isinstance(expr, Comparison):
        return _compile_comparison(expr)
    raise XPathError(f"unsupported expression {expr!r}")


def _compile_atoms(expr: Expr) -> ExprFn:
    """``expr`` as the list of atoms a comparison ranges over."""
    if isinstance(expr, (Literal, Number)):
        atoms = [expr.value]
        return lambda node, context: atoms
    if isinstance(expr, PathValue):
        run, string_of = expr.path.compiled, _string_of(expr.path)
        return lambda node, context: [string_of(n) for n in run(node, context)]
    if isinstance(expr, IndexCall):
        run = expr.path.compiled
        return lambda node, context: [
            float(n.parent.child_index(n))
            for n in run(node, context)
            if isinstance(n.parent, Element) and isinstance(n, (Element, Text))
        ]
    test = expr.compiled_test
    return lambda node, context: [1.0 if test(node, context) else 0.0]


def _number(atom: Atom) -> Optional[float]:
    try:
        return float(atom)
    except ValueError:
        return None


def _compile_comparison(expr: Comparison) -> ExprFn:
    """Existential comparison: true iff any pair of atoms satisfies it.

    With a number on either side, or an ordering operator, a pair whose
    atoms both read as numbers compares as numbers and any other pair as
    strings; otherwise every pair compares as strings."""
    if expr.op not in _OPERATORS:
        raise XPathError(f"unknown comparison operator {expr.op!r}")
    compare = _OPERATORS[expr.op]
    left, right = _compile_atoms(expr.left), _compile_atoms(expr.right)
    ordering = expr.op in ("<", "<=", ">", ">=")
    if ordering or isinstance(expr.left, Number) or isinstance(expr.right, Number):

        def numeric(node: Optional[Binding], context: XPathContext) -> bool:
            lefts = left(node, context)
            rights = [(_number(atom), str(atom)) for atom in right(node, context)]
            for atom in lefts:
                number, text = _number(atom), str(atom)
                for other_number, other_text in rights:
                    if number is None or other_number is None:
                        if compare(text, other_text):
                            return True
                    elif compare(number, other_number):
                        return True
            return False

        return numeric
    if expr.op == "=" and isinstance(expr.left, PathValue) and isinstance(expr.right, Literal):
        return _compile_equals_literal(expr.left.path, expr.right.value)

    def strings(node: Optional[Binding], context: XPathContext) -> bool:
        lefts = [str(atom) for atom in left(node, context)]
        rights = [str(atom) for atom in right(node, context)]
        return any(compare(atom, other) for atom in lefts for other in rights)

    return strings


def _compile_equals_literal(path: Path, literal: str) -> ExprFn:
    """``path = "literal"``.  On ``@name`` alone, the attribute-equality
    kernel: the context element's attribute, else its reference list,
    read straight off the element, with no node list built."""
    steps = path.steps
    if not (
        isinstance(path.start, ContextStart)
        and len(steps) == 1
        and isinstance(steps[0], AttributeStep)
    ):
        run, string_of = path.compiled, _string_of(path)
        return lambda node, context: any(
            string_of(found) == literal for found in run(node, context)
        )
    name = steps[0].name

    def attribute_equals(node: Optional[Binding], context: XPathContext) -> bool:
        if not isinstance(node, Element):
            if node is None:
                raise XPathError(_NO_CONTEXT_NODE)
            return False
        attribute = node.attributes.get(name)
        if attribute is not None and attribute.value == literal:
            return True
        reference = node.references.get(name)
        return reference is not None and " ".join(reference.targets) == literal

    return attribute_equals
