"""Mapping ablation: the interval (pre/post) mapping as a fourth column.

Three series over the same fixed synthetic documents:

* **delete** — bulk (the first *half* of the ``n1`` subtrees: one
  contiguous batch, the coalescing case — deleting literally every row
  would let any mapping win by table truncation) and random (ten
  subtrees) deletes under shared inlining (store, per-statement
  triggers), Edge, Attribute, and Interval.  The interval mapping fuses
  the batch into a single ranged ``DELETE`` instead of per-level orphan
  sweeps, which is the acceptance case it must win.
* **insert** — positional inserts at a fixed hot spot *inside* one
  subtree, across growing document sizes.  With gapped ordinals the
  renumber scope is the enclosing subtree, not the document, so
  statements per insert stay flat as the document grows (the
  sub-linearity evidence; ``interval.renumber.*`` counters are
  recorded alongside).
* **read** — reconstruct every ``n1`` subtree (Attribute is skipped:
  it fragments elements across per-attribute tables and offers no
  reconstruction path — the paper's argument against it).

Results land under the ``"mapping"`` key of ``BENCH_service.json`` via
:func:`save_mapping_results` (read-modify-write, so other series in the
same file survive).
"""

from __future__ import annotations

import json
import os
import random
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Sequence

from repro.bench.experiments import build_fixed_store, random_subtree_ids
from repro.bench.harness import Measurement
from repro.obs import counter_delta, get_registry
from repro.relational.attribute_map import AttributeMapping
from repro.relational.edge import EdgeMapping
from repro.relational.interval import IntervalMapping
from repro.workloads.synthetic import SyntheticParams, generate_fixed
from repro.xmlmodel.model import Element, Text

#: Document shape shared by the delete and read series (matches the
#: existing mapping ablation in ``benchmarks/``).
DELETE_PARAMS = SyntheticParams(scaling_factor=100, depth=4, fanout=2)
SMOKE_DELETE_PARAMS = SyntheticParams(scaling_factor=16, depth=3, fanout=2)

#: Scaling factors for the insert series: the document grows 8x end to
#: end while the insert hot spot stays inside the first subtree.
INSERT_SIZES = (50, 100, 200, 400)
SMOKE_INSERT_SIZES = (16, 48)
INSERTS_PER_POINT = 40
SMOKE_INSERTS_PER_POINT = 10

RANDOM_SUBTREES = 10
RUNS = 3  # first discarded, like the paper's protocol


@dataclass
class MappingPoint:
    """One measured point of one mapping in one series."""

    series: str  # delete_bulk | delete_random | insert | read
    mapping: str
    x: float  # subtree count (delete/read) or total objects (insert)
    seconds: float
    statements: int
    extra: dict = field(default_factory=dict)

    def as_measurement(self) -> Measurement:
        return Measurement(
            method=f"{self.series}:{self.mapping}",
            x=self.x,
            seconds=self.seconds,
            client_statements=self.statements,
            trigger_statements=0,
            runs=RUNS,
        )


def _measure(
    setup: Callable[[], tuple],
    operation: Callable,
    runs: int = RUNS,
    close: bool = True,
):
    """Paper protocol at mapping granularity: fresh state per run, first
    run discarded; statements counted on the last run."""
    times: list[float] = []
    statements = 0
    for _ in range(runs):
        args = setup()
        db = args[0].db if hasattr(args[0], "db") else args[0]
        db.counts.reset()
        start = time.perf_counter()
        operation(*args)
        times.append(time.perf_counter() - start)
        statements = db.counts.client + db.counts.trigger_emulation
        if close:
            closer = getattr(args[0], "close", None)
            if closer is not None:
                closer()
    averaged = times[1:] if len(times) > 1 else times
    return sum(averaged) / len(averaged), statements


# ----------------------------------------------------------------------
# Delete series
# ----------------------------------------------------------------------
def _delete_point_store(params, bulk: bool, runs: int) -> MappingPoint:
    master = build_fixed_store(params)
    master.set_delete_method("per_statement_trigger")
    roots = sorted(row[0] for row in master.db.query('SELECT id FROM "n1"'))
    half = roots[: len(roots) // 2]
    random_ids = random_subtree_ids(master, "n1", RANDOM_SUBTREES)
    try:

        def operation(store):
            if bulk:
                # Ids are DFS-allocated, so the first half of the roots
                # is one contiguous id (and document) region.
                store.delete_subtrees("n1", '"n1".id <= ?', (half[-1],))
            else:
                for subtree_id in random_ids:
                    store.delete_subtrees("n1", '"n1".id = ?', (subtree_id,))

        seconds, statements = _measure(
            lambda: (master.snapshot(),), operation, runs
        )
    finally:
        master.close()
    count = len(half) if bulk else min(RANDOM_SUBTREES, params.scaling_factor)
    return MappingPoint(
        "delete_bulk" if bulk else "delete_random",
        "inlining", count, seconds, statements,
    )


def _delete_point_mapping(
    name: str, mapping_class, document, bulk: bool, runs: int
) -> MappingPoint:
    count = 0

    def setup():
        mapping = mapping_class()
        mapping.load(document)
        ids = mapping.element_ids("n1")
        if bulk:
            ids = ids[: len(ids) // 2]  # contiguous first half
        else:
            # Scattered picks (same fixed seed as the store path) so the
            # interval mapping cannot simply coalesce them into one range.
            ids = random.Random(42).sample(ids, min(RANDOM_SUBTREES, len(ids)))
        nonlocal count
        count = len(ids)
        return mapping, ids

    def operation(mapping, ids):
        # One batched call in both workloads (the existing mapping
        # ablation's shape); bulk just passes every subtree.
        mapping.delete_subtrees(ids)

    seconds, statements = _measure(setup, operation, runs)
    return MappingPoint(
        "delete_bulk" if bulk else "delete_random",
        name, count, seconds, statements,
    )


def run_delete_series(params=DELETE_PARAMS, runs: int = RUNS) -> list[MappingPoint]:
    document = generate_fixed(params)
    points = []
    for bulk in (True, False):
        points.append(_delete_point_store(params, bulk, runs))
        for name, mapping_class in (
            ("edge", EdgeMapping),
            ("attribute", AttributeMapping),
            ("interval", IntervalMapping),
        ):
            points.append(
                _delete_point_mapping(name, mapping_class, document, bulk, runs)
            )
    return points


# ----------------------------------------------------------------------
# Insert series (sub-linearity of positional inserts)
# ----------------------------------------------------------------------
def _insert_content() -> Element:
    element = Element("n2")
    child = Element("str")
    child.append_child(Text("x" * 10))
    element.append_child(child)
    return element


def run_insert_series(
    sizes: Sequence[int] = INSERT_SIZES,
    inserts: int = INSERTS_PER_POINT,
    depth: int = 4,
    fanout: int = 2,
) -> list[MappingPoint]:
    """Hot-spot positional inserts on the interval mapping across
    document sizes.  x is the total object count before inserting."""
    registry = get_registry()
    points = []
    for scaling_factor in sizes:
        document = generate_fixed(SyntheticParams(scaling_factor, depth, fanout))
        mapping = IntervalMapping()
        mapping.load(document)
        # The hot spot: always before the first n2 of the first subtree,
        # so every renumber is scoped to that subtree.
        anchor = mapping.element_ids("n2")[0]
        size = mapping.count()
        before = registry.snapshot()
        mapping.db.counts.reset()
        start = time.perf_counter()
        for _ in range(inserts):
            mapping.insert_subtree(_insert_content(), before_id=anchor)
        seconds = time.perf_counter() - start
        statements = mapping.db.counts.client
        after = registry.snapshot()
        points.append(
            MappingPoint(
                "insert",
                "interval",
                size,
                seconds,
                statements,
                extra={
                    "inserts": inserts,
                    "statements_per_insert": statements / inserts,
                    "renumber_events": counter_delta(
                        before, after, "interval.renumber.count"
                    ),
                    "renumbered_nodes": counter_delta(
                        before, after, "interval.renumber.nodes"
                    ),
                },
            )
        )
    return points


# ----------------------------------------------------------------------
# Read series
# ----------------------------------------------------------------------
def run_read_series(params=DELETE_PARAMS, runs: int = RUNS) -> list[MappingPoint]:
    document = generate_fixed(params)
    points = []

    master = build_fixed_store(params)
    try:
        query = 'FOR $s IN document("synthetic.xml")/root/n1 RETURN $s'

        def read_store(store):
            results = store.query(query)
            assert len(results) == params.scaling_factor

        seconds, statements = _measure(
            lambda: (master,), read_store, runs, close=False
        )
    finally:
        master.close()
    points.append(
        MappingPoint("read", "inlining", params.scaling_factor, seconds, statements)
    )

    for name, mapping_class in (("edge", EdgeMapping), ("interval", IntervalMapping)):
        mapping = mapping_class()
        mapping.load(document)
        ids = mapping.element_ids("n1")

        def read_mapping(mapping, ids):
            for element_id in ids:
                mapping.reconstruct(element_id)

        seconds, statements = _measure(lambda: (mapping, ids), read_mapping, runs)
        points.append(MappingPoint("read", name, len(ids), seconds, statements))
    return points


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def run_mapping_benchmark(smoke: bool = False) -> list[MappingPoint]:
    if smoke:
        return (
            run_delete_series(SMOKE_DELETE_PARAMS, runs=2)
            + run_insert_series(SMOKE_INSERT_SIZES, SMOKE_INSERTS_PER_POINT, depth=3)
            + run_read_series(SMOKE_DELETE_PARAMS, runs=2)
        )
    return run_delete_series() + run_insert_series() + run_read_series()


def save_mapping_results(path: str, points: list[MappingPoint]) -> None:
    """Merge the mapping series into ``path`` (``BENCH_service.json``)
    without disturbing any other series already there."""
    payload = {}
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    payload["mapping"] = {
        "experiment": "storage mapping ablation: inlining vs edge vs attribute vs interval",
        "workload": (
            "bulk/random subtree deletes, hot-spot positional inserts "
            "(interval only), full n1 subtree reads"
        ),
        "points": [asdict(point) for point in points],
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
