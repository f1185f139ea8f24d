"""Counting, not timing: what one read costs the compiled evaluator.

The tree-walking evaluator built one ``XPathContext`` per predicate
candidate (504 for a read over a 500-entry lane); the compiled one
builds a fixed number per statement, and compiles each path of a
cached statement once for all its executions.
"""

import dataclasses
import threading

import pytest

from repro.xmlmodel import parse
from repro.xpath import Path, XPathContext, evaluator, parse_expr, parse_path
from repro.xquery import XQueryEngine, clear_statement_cache

#: The ``svc_append`` read (``perf/workloads.py``): one keyed entry.
READ = 'FOR $e IN document("log.xml")/log/lane/entry[@key="{key}"] RETURN $e'


def lane_document(entries):
    """``svc_append``'s document shape: two lanes of keyed entries."""
    lanes = "".join(
        f'<lane key="{k}">'
        + "".join(f'<entry key="{k}-{i:08d}">w{i}</entry>' for i in range(entries // 2))
        + "</lane>"
        for k in range(2)
    )
    return parse(f"<log>{lanes}</log>")


@pytest.fixture
def context_count(monkeypatch):
    count = [0]
    original = XPathContext.__init__

    def counting(self, *args, **kwargs):
        count[0] += 1
        original(self, *args, **kwargs)

    monkeypatch.setattr(XPathContext, "__init__", counting)
    return count


def contexts_per_read(count, entries):
    engine = XQueryEngine({"log.xml": lane_document(entries)})
    statement = READ.format(key=f"1-{entries // 4:08d}")
    engine.execute(statement)  # compile outside the count
    count[0] = 0
    result = engine.execute(statement)
    assert len(result) == 1
    return count[0]


def test_contexts_per_read_do_not_grow_with_the_lane(context_count):
    small = contexts_per_read(context_count, 50)
    large = contexts_per_read(context_count, 500)
    assert small == large <= 4


def paths_in(node):
    """Every ``Path`` reachable from a parsed statement."""
    if isinstance(node, Path):
        yield node
    if dataclasses.is_dataclass(node) and not isinstance(node, type):
        for field in dataclasses.fields(node):
            yield from paths_in(getattr(node, field.name))
    elif isinstance(node, (tuple, list)):
        for item in node:
            yield from paths_in(item)


def test_cached_statement_compiles_each_path_once(monkeypatch):
    compiled = []
    original = evaluator.compile_path

    def counting(path):
        compiled.append(path)
        return original(path)

    monkeypatch.setattr(evaluator, "compile_path", counting)
    clear_statement_cache()
    statement = (
        'FOR $l IN document("log.xml")/log/lane[@key="1"], $e IN $l/entry[@key="1-00000002"] '
        'LET $all := $l/entry WHERE $e/text() != "" and $all RETURN $e/@key'
    )
    engine = XQueryEngine({"log.xml": lane_document(10)})
    assert [node.value for node in engine.execute(statement)] == ["1-00000002"]
    assert [node.value for node in engine.execute(statement)] == ["1-00000002"]
    paths = list(paths_in(engine.parse(statement)))
    assert len(paths) == 8
    assert sorted(map(id, compiled)) == sorted(map(id, paths))


def test_threads_compiling_nested_forms_in_opposite_orders_finish(monkeypatch):
    """One thread compiles a path, which compiles its predicate; another
    compiles a predicate, which compiles its path.  A lock per compiled
    form (``functools.cached_property`` on Python 3.11) deadlocks here."""
    path = parse_path('document("x.xml")/a[b = "1"]')
    expr = parse_expr('c[d] = "1"')
    path_started, expr_started = threading.Event(), threading.Event()
    compile_path, compile_test = evaluator.compile_path, evaluator.compile_test

    def path_first(node):
        if node is path:
            path_started.set()
            expr_started.wait(5)
        return compile_path(node)

    def expr_first(node):
        if node is expr:
            expr_started.set()
            path_started.wait(5)
        return compile_test(node)

    monkeypatch.setattr(evaluator, "compile_path", path_first)
    monkeypatch.setattr(evaluator, "compile_test", expr_first)
    threads = [
        threading.Thread(target=lambda: path.compiled, daemon=True),
        threading.Thread(target=lambda: expr.compiled_test, daemon=True),
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(10)
    assert not any(thread.is_alive() for thread in threads)
    assert "compiled" in vars(path) and "compiled_test" in vars(expr)
