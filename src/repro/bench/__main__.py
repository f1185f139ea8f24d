"""Standalone evaluation runner: ``python -m repro.bench``.

Regenerates the paper's figures and tables without pytest, printing the
paper-style series as it goes.  Options::

    python -m repro.bench                 # every experiment, quick sizes
    python -m repro.bench --only fig7 table2
    python -m repro.bench --full          # paper-size sweeps
    python -m repro.bench --runs 3        # measurement runs per point
    python -m repro.bench --json out.json # persist raw numbers
    python -m repro.bench --trace-out spans.json   # per-phase trace spans
"""

from __future__ import annotations

import argparse
import sys

from repro.bench.experiments import (
    ALL_DELETE_STRATEGIES,
    INSERT_STRATEGIES,
    build_dblp_store,
    build_fixed_store,
    build_randomized_store,
    delete_series,
    insert_series,
    path_expression_comparison,
    random_subtree_ids,
)
from repro.bench.harness import ExperimentRunner
from repro.bench.reporting import format_series, save_results
from repro.workloads.dblp import DblpParams
from repro.workloads.synthetic import SyntheticParams


def run_sf_sweep(workload: str, runs: int) -> list:
    measurements = []
    for scaling_factor in (100, 200, 400, 800):
        master = build_fixed_store(SyntheticParams(scaling_factor, 8, 1))
        runner = ExperimentRunner(master, runs=runs)
        measurements += delete_series(
            master, scaling_factor, workload, runner=runner
        )
        master.close()
    return measurements


def run_depth_sweep(workload: str, operation: str, runs: int, full: bool) -> list:
    measurements = []
    for depth in range(1, 7 if full else 6):
        master = build_fixed_store(SyntheticParams(100, depth, 4))
        runner = ExperimentRunner(master, runs=runs)
        if operation == "delete":
            measurements += delete_series(master, depth, workload, runner=runner)
        else:
            measurements += insert_series(master, depth, workload, runner=runner)
        master.close()
    return measurements


def run_sec72(runs: int, full: bool) -> dict[str, list]:
    results: dict[str, list] = {}
    for fanout in (1, 4):
        depth = 6 if full else 5
        master = build_fixed_store(SyntheticParams(100, depth, fanout))
        measurements = []
        for length in (3, 4, 5):
            pair = path_expression_comparison(master, length, runs=runs)
            measurements += [pair["joins"], pair["asr"]]
        results[f"Section 7.2 (fanout={fanout})"] = measurements
        master.close()
    return results


def run_sec73(runs: int) -> dict[str, list]:
    results: dict[str, list] = {}
    master = build_randomized_store(SyntheticParams(100, 5, 4))
    runner = ExperimentRunner(master, runs=runs)
    for workload in ("bulk", "random"):
        results[f"Section 7.3 randomized synthetic ({workload})"] = delete_series(
            master, 0, workload, methods=ALL_DELETE_STRATEGIES, runner=runner
        )
    master.close()
    return results


def run_table2(runs: int, full: bool) -> dict[str, list]:
    master = build_dblp_store(DblpParams(conferences=400 if full else 60))
    runner = ExperimentRunner(master, runs=runs)
    results: dict[str, list] = {}
    deletes = []
    for method in ALL_DELETE_STRATEGIES:
        master.set_delete_method(method)
        deletes.append(
            runner.measure(
                method,
                0,
                lambda store: store.delete_subtrees(
                    "publication", '"publication"."year" = ?', ("2000",)
                ),
            )
        )
    results["Table 2: DBLP delete (year 2000)"] = deletes
    root_id = master.db.query_one('SELECT id FROM "dblp"')[0]
    ids = random_subtree_ids(master, "conference")
    inserts = []
    for method in INSERT_STRATEGIES:
        master.set_insert_method(method)

        def operation(store):
            for conference_id in ids:
                store.copy_subtrees(
                    "conference", '"conference".id = ?', (conference_id,), root_id
                )

        inserts.append(runner.measure(method, 0, operation))
    results["Table 2: DBLP insert (10 conference subtrees)"] = inserts
    master.close()
    return results


EXPERIMENTS = {
    "fig6": ("Figure 6: delete, bulk (f=1, d=8)", "sf"),
    "fig7": ("Figure 7: delete, random (f=1, d=8)", "sf"),
    "fig8": ("Figure 8: delete, bulk (sf=100, f=4)", "depth"),
    "fig9": ("Figure 9: delete, random (sf=100, f=4)", "depth"),
    "fig10": ("Figure 10: insert, bulk (sf=100, f=4)", "depth"),
    "fig11": ("Figure 11: insert, random (sf=100, f=4)", "depth"),
    "sec72": ("Section 7.2: ASR path expressions", "path len"),
    "sec73": ("Section 7.3: randomized synthetic", "-"),
    "table2": ("Table 2: DBLP", "-"),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="repro.bench", description=__doc__)
    parser.add_argument("--only", nargs="*", choices=sorted(EXPERIMENTS),
                        help="run a subset of experiments")
    parser.add_argument("--full", action="store_true", help="paper-size sweeps")
    parser.add_argument("--runs", type=int, default=5,
                        help="runs per point (first discarded; default 5)")
    parser.add_argument("--json", help="write raw measurements to this file")
    parser.add_argument(
        "--trace-out", help="write hierarchical trace spans (JSON) here on exit"
    )
    args = parser.parse_args(argv)
    selected = set(args.only or EXPERIMENTS)
    tracer = None
    if args.trace_out:
        from repro.obs import get_tracer

        tracer = get_tracer()
        tracer.start_capture()

    def emit(title: str, x_label: str, measurements) -> None:
        print(format_series(title, x_label, measurements, show_statements=True))
        print()
        if args.json:
            save_results(args.json, title, measurements)

    if "fig6" in selected:
        emit(*EXPERIMENTS["fig6"], run_sf_sweep("bulk", args.runs))
    if "fig7" in selected:
        emit(*EXPERIMENTS["fig7"], run_sf_sweep("random", args.runs))
    if "fig8" in selected:
        emit(*EXPERIMENTS["fig8"],
             run_depth_sweep("bulk", "delete", args.runs, args.full))
    if "fig9" in selected:
        emit(*EXPERIMENTS["fig9"],
             run_depth_sweep("random", "delete", args.runs, args.full))
    if "fig10" in selected:
        emit(*EXPERIMENTS["fig10"],
             run_depth_sweep("bulk", "insert", args.runs, args.full))
    if "fig11" in selected:
        emit(*EXPERIMENTS["fig11"],
             run_depth_sweep("random", "insert", args.runs, args.full))
    if "sec72" in selected:
        for title, measurements in run_sec72(args.runs, args.full).items():
            emit(title, "path len", measurements)
    if "sec73" in selected:
        for title, measurements in run_sec73(args.runs).items():
            emit(title, "-", measurements)
    if "table2" in selected:
        for title, measurements in run_table2(args.runs, args.full).items():
            emit(title, "-", measurements)
    if tracer is not None:
        tracer.stop_capture()
        written = tracer.write_json(args.trace_out)
        print(f"-- wrote {written} trace span(s) to {args.trace_out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
