"""A/A check: ``python perf/repeat.py --sets 2 --runs 5``.

Runs the benchmark ``sets x runs`` times on the same code, alternating
the sets (A B A B ...) so slow drift of the host lands on both, each run
of a set with another seed.  Prints, per ``workload/metric``, each set's
median and quartiles, the spread (inter-quartile distance as a share of
the median, from ``statistics.quantiles(values, n=4)``) and the relative
gap between the sets' medians, and exits non-zero when a gap or (except
for ``setup_s``) a spread exceeds the metric's bound, or an operation
failed.  ``--runs 10`` is the procedure
the benchmark is accepted by.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

PERF = Path(__file__).resolve().parent
BENCHMARK = json.loads((PERF.parent / "BENCHMARK.json").read_text())


def one_run(seed: int, workload: str | None) -> dict:
    command = [sys.executable, str(PERF / "run.py"), "--seed", str(seed), "--trace", "0"]
    if workload:
        command += ["--workload", workload]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    prefix = f"{workload}/" if workload else ""
    result["metrics"] = {
        prefix + name: entry["value"] for name, entry in result["metrics"].items()
    }
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", help="one workload only (default: all, interleaved)")
    args = parser.parse_args()

    sets: list[list[dict]] = [[] for _ in range(args.sets)]
    for index in range(args.runs):
        for number, runs in enumerate(sets):
            runs.append(one_run(args.seed + index * args.sets + number, args.workload))
            print(f"set {number} run {index}: done", file=sys.stderr)

    specs = {entry["name"]: entry for entry in BENCHMARK["end_to_end"]}
    failed = sum(run["failed"] for runs in sets for run in runs)
    status = 0 if failed == 0 else 1
    print(f"{'workload/metric':34s} " + " ".join(
        f"{'set ' + str(n) + ' q1/median/q3':>34s} {'spread':>7s}" for n in range(args.sets)
    ) + f" {'gap':>7s} {'bound':>6s}")
    for key in sets[0][0]["metrics"]:
        spec = specs[key.split("/")[-1]]
        cells, medians, verdict = [], [], ""
        for runs in sets:
            values = [run["metrics"][key] for run in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            medians.append(median)
            spread = (q3 - q1) / median
            cells.append(f"{q1:11.4f}/{median:10.4f}/{q3:11.4f} {spread:7.2%}")
            if spread > spec["bound"] and spec["name"] != "setup_s":
                verdict = "  SPREAD EXCEEDS BOUND"
        gap = (max(medians) - min(medians)) / min(medians)
        if gap > spec["bound"]:
            verdict = "  GAP EXCEEDS BOUND"
        if verdict:
            status = 1
        print(f"{key:34s} " + " ".join(cells) + f" {gap:7.2%} {spec['bound']:6.0%}{verdict}")
    print(f"failed operations: {failed}")
    return status


if __name__ == "__main__":
    sys.exit(main())
