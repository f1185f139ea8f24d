"""Parity of the compiled XPath evaluator with the tree-walking
interpreter it replaced.

``parity_corpus.json`` was generated by running every row below through
the interpreter.  Its ``documents`` table holds XML texts with the
reference policy they are parsed under; each of its ``rows`` names:

* ``kind`` — ``statement`` (run by :class:`XQueryEngine`), ``path``
  (:func:`evaluate_path`), ``predicate`` (:func:`evaluate_predicate`) or
  ``expr`` (:func:`evaluate_expr`);
* ``text`` — the statement, path or expression;
* ``documents`` — the ``document("...")`` names and the table entries
  registered under them;
* optionally ``context`` (a path whose first node is the context node),
  ``variables`` (name -> path whose first node the variable binds) and
  ``let`` (variables that bind the whole node sequence instead);
* ``expected`` — the interpreter's outcome as :func:`outcome` renders it:
  the described result nodes in order, the value, the post-state of
  every document for an update, or the error class and message.

Sources: every statement and path literal in ``tests/xpath``,
``tests/xquery``, ``tests/updates`` and ``examples/`` paired with the XML
literals (and shared fixtures) whose root its path names, the four
statement shapes of ``perf/workloads.py``, and a grid of paths and
predicates over every step and expression kind.
"""

import json
import re
from pathlib import Path

import pytest

from repro.errors import ReproError
from repro.xmlmodel import parse, serialize
from repro.xmlmodel.model import Attribute, Element, RefEntry, Reference, Text
from repro.xmlmodel.policy import BIO_POLICY
from repro.xpath import (
    XPathContext,
    evaluate_expr,
    evaluate_path,
    evaluate_predicate,
    parse_expr,
    parse_path,
)
from repro.xquery import QueryResult, XQueryEngine

CORPUS = json.loads(Path(__file__).with_name("parity_corpus.json").read_text("utf-8"))
POLICIES = {"bio": BIO_POLICY, None: None}


def describe(node):
    """A result node as text: elements serialised, other kinds tagged."""
    if isinstance(node, Element):
        return serialize(node)
    if isinstance(node, Attribute):
        return f"attribute {node.name}={node.value}"
    if isinstance(node, Reference):
        return f"reference {node.name}={' '.join(node.targets)}"
    if isinstance(node, RefEntry):
        return f"ref {node.label}->{node.target}"
    if isinstance(node, Text):
        return f"text {node.value}"
    raise TypeError(f"unexpected result {node!r}")


def outcome(row, table):
    """Run ``row`` on freshly parsed documents and render what it did."""
    documents, policy = {}, None
    for name, key in row["documents"].items():
        entry = table[key]
        policy = POLICIES[entry["policy"]]
        documents[name] = parse(entry["xml"], policy=policy)
    try:
        if row["kind"] == "statement":
            result = XQueryEngine(documents, policy=policy).execute(row["text"])
            if isinstance(result, QueryResult):
                return {"nodes": [describe(node) for node in result]}
            return {
                "bindings": result.bindings,
                "operations": result.operations,
                "post": {name: serialize(document) for name, document in documents.items()},
            }
        context = _context(row, documents)
        if row["kind"] == "path":
            return {"nodes": [describe(node) for node in evaluate_path(parse_path(row["text"]), context)]}
        if row["kind"] == "predicate":
            return {"value": evaluate_predicate(parse_expr(row["text"]), context)}
        value = evaluate_expr(parse_expr(row["text"]), context)
        return {"value": value}
    except ReproError as exc:
        # Node identities come from a process-wide counter.
        return {"error": f"{type(exc).__name__}: {re.sub(r'id=[0-9]+', 'id=#', str(exc))}"}


def _context(row, documents):
    base = XPathContext(documents=documents)
    lets = set(row.get("let", ()))
    variables = {}
    for name, text in row.get("variables", {}).items():
        nodes = evaluate_path(parse_path(text), base)
        variables[name] = nodes if name in lets else nodes[0]
    context_node = None
    if "context" in row:
        context_node = evaluate_path(parse_path(row["context"]), base)[0]
    return XPathContext(documents=documents, variables=variables, context_node=context_node)


@pytest.mark.parametrize(
    "row",
    CORPUS["rows"],
    ids=[f"{row['source']}#{index}" for index, row in enumerate(CORPUS["rows"])],
)
def test_row_evaluates_as_before(row):
    assert outcome(row, CORPUS["documents"]) == row["expected"]


def test_corpus_covers_every_step_and_expression_kind():
    texts = [row["text"] for row in CORPUS["rows"]]
    for needle in ("//", "/*", "@", "ref(*", ",*)", "->", "text()", ".index()",
                   " and ", " or ", "!=", "<=", ">=", "LET "):
        assert any(needle in text for text in texts), needle
    assert {row["kind"] for row in CORPUS["rows"]} == {"statement", "path", "predicate", "expr"}


NON_NUMERIC = "<r><i><n>10</n></i><i><n>9</n></i><i><n>abc</n></i></r>"


@pytest.mark.parametrize(
    "predicate, selected",
    [
        ("n > 5", ["10", "9", "abc"]),
        ("n < 5", []),
        ('n > "5"', ["10", "9", "abc"]),
    ],
)
def test_ordering_on_non_numeric_text_falls_back_to_string_order(predicate, selected):
    """Pins the engine's semantics; ROADMAP item 7 records that the
    relational store and XPath 1.0 answer differently."""
    engine = XQueryEngine({"x.xml": parse(NON_NUMERIC)})
    result = engine.execute(f'FOR $i IN document("x.xml")/r/i[{predicate}] RETURN $i/n')
    assert [node.text() for node in result] == selected
