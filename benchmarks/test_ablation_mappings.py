"""Ablation: storage mapping choice (§5.1's discussion made measurable).

The paper focuses on Shared Inlining because the Edge and Attribute
mappings "cause excessive fragmentation of XML elements across multiple
tuples and relations".  This ablation deletes the same ten subtrees
from the same document under all three mappings: inlining touches a
tuple per element (data subelements folded in); Edge and Attribute pay
one tuple per *object* and orphan sweeps across the whole edge space.
A read ablation reconstructs every ``n1`` subtree under Edge (Attribute
has no reconstruction path).  The last test races the delete
strategies on one inlining store, where the ``interval`` strategy turns
each subtree into one pre/post range.
"""

import time

import pytest

from conftest import ROUNDS
from repro.bench.experiments import (
    DELETE_STRATEGIES,
    build_fixed_store,
    bulk_delete,
    random_subtree_ids,
)
from repro.relational.attribute_map import AttributeMapping
from repro.relational.edge import EdgeMapping
from repro.workloads.synthetic import SyntheticParams, generate_fixed

PARAMS = SyntheticParams(scaling_factor=100, depth=4, fanout=2)


@pytest.fixture(scope="module")
def synthetic_document():
    return generate_fixed(PARAMS)


def test_ablation_inlining_delete(benchmark, record):
    master = build_fixed_store(PARAMS)
    master.set_delete_method("per_tuple_trigger")
    ids = random_subtree_ids(master, "n1")

    def setup():
        store = master.snapshot()
        return (store,), {}

    def operation(store):
        for subtree_id in ids:
            store.delete_subtrees("n1", '"n1".id = ?', (subtree_id,))

    benchmark.pedantic(operation, setup=setup, rounds=ROUNDS, iterations=1)
    record(
        "Ablation: storage mapping, random delete (sf=100, d=4, f=2)",
        "-", "inlining", 0, benchmark,
    )
    master.close()


def test_ablation_edge_delete(benchmark, record, synthetic_document):
    def setup():
        mapping = EdgeMapping()
        mapping.load(synthetic_document)
        ids = mapping.element_ids("n1")[:10]
        return (mapping, ids), {}

    def operation(mapping, ids):
        mapping.delete_subtrees(ids)

    benchmark.pedantic(operation, setup=setup, rounds=ROUNDS, iterations=1)
    record(
        "Ablation: storage mapping, random delete (sf=100, d=4, f=2)",
        "-", "edge", 0, benchmark,
    )


def test_ablation_attribute_delete(benchmark, record, synthetic_document):
    def setup():
        mapping = AttributeMapping()
        mapping.load(synthetic_document)
        ids = mapping.element_ids("n1")[:10]
        return (mapping, ids), {}

    def operation(mapping, ids):
        mapping.delete_subtrees(ids)

    benchmark.pedantic(operation, setup=setup, rounds=ROUNDS, iterations=1)
    record(
        "Ablation: storage mapping, random delete (sf=100, d=4, f=2)",
        "-", "attribute", 0, benchmark,
    )


def test_ablation_edge_read(benchmark, record, synthetic_document):
    mapping = EdgeMapping()
    mapping.load(synthetic_document)
    ids = mapping.element_ids("n1")

    def operation():
        for element_id in ids:
            mapping.reconstruct(element_id)

    benchmark.pedantic(operation, rounds=ROUNDS, iterations=1)
    record(
        "Ablation: storage mapping, full n1 read (sf=100, d=4, f=2)",
        "-", "edge", 0, benchmark,
    )


def test_interval_strategy_wins_bulk_delete_on_the_store():
    """The fig6/fig8 acceptance case: deleting every ``n1`` subtree of
    the same inlining store must be fastest under the interval range
    strategy."""
    master = build_fixed_store(SyntheticParams(400, 3, 2))
    timings = {}
    try:
        for strategy in DELETE_STRATEGIES:
            runs = []
            for _ in range(3):  # first run discarded (cold caches)
                store = master.snapshot()
                store.set_delete_method(strategy)
                start = time.perf_counter()
                bulk_delete(store)
                runs.append(time.perf_counter() - start)
                store.close()
            timings[strategy] = sum(runs[1:]) / len(runs[1:])
    finally:
        master.close()
    best_other = min(v for k, v in timings.items() if k != "interval")
    assert timings["interval"] < best_other, timings
