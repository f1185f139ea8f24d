"""Mapping ablation acceptance: the interval mapping must win the bulk
subtree-delete series, and its positional inserts must stay sub-linear
in document size.

Runs :mod:`repro.bench.mapping_bench` once per session and records the
results under the ``"mapping"`` key of ``BENCH_service.json`` at the
repository root.
"""

import os
import time

import pytest

from repro.bench.experiments import DELETE_STRATEGIES, build_fixed_store, bulk_delete
from repro.bench.mapping_bench import run_mapping_benchmark, save_mapping_results
from repro.workloads.synthetic import SyntheticParams

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_PATH = os.path.join(REPO_ROOT, "BENCH_service.json")


@pytest.fixture(scope="module")
def points():
    points = run_mapping_benchmark()
    save_mapping_results(BENCH_PATH, points)
    return points


def by_series(points, series):
    return {p.mapping: p for p in points if p.series == series}


def test_results_file_written(points):
    assert os.path.exists(BENCH_PATH)


def test_interval_wins_bulk_delete_among_object_mappings(points):
    """Edge, Attribute, and Interval all pay one row per object; the
    interval mapping's ranged delete must beat the others' orphan
    sweeps on the contiguous bulk workload.  (The inlining *store* is a
    different granularity — the store-level race is below.)"""
    bulk = by_series(points, "delete_bulk")
    assert set(bulk) == {"inlining", "edge", "attribute", "interval"}
    best_flat = min(
        p.seconds for name, p in bulk.items() if name in ("edge", "attribute")
    )
    assert bulk["interval"].seconds < best_flat


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


def test_interval_bulk_delete_is_constant_statements(points):
    bulk = by_series(points, "delete_bulk")
    # Range lookup, gap probe, ranged delete — not a statement per
    # subtree or per orphan sweep.
    assert bulk["interval"].statements <= 5


def test_insert_cost_sublinear_in_document_size(points):
    inserts = sorted(
        (p for p in points if p.series == "insert"), key=lambda p: p.x
    )
    assert len(inserts) >= 2
    first, last = inserts[0], inserts[-1]
    growth = last.x / first.x
    assert growth >= 4  # the sweep really spans a size range
    per_insert_first = first.extra["statements_per_insert"]
    per_insert_last = last.extra["statements_per_insert"]
    # Sub-linear: statements per insert must not track document growth
    # (gapped ordinals keep renumbering scoped to the hot subtree).
    assert per_insert_last <= per_insert_first * 2
    for point in inserts:
        assert "renumber_events" in point.extra
        assert "renumbered_nodes" in point.extra


def test_read_series_covers_interval(points):
    read = by_series(points, "read")
    assert "interval" in read and "edge" in read and "inlining" in read
    assert all(p.seconds > 0 for p in read.values())
