"""Guards the benchmark harness itself: ``python -m pytest perf -q``.

Not part of the tier-1 suite (``testpaths`` is ``tests``); runs the one
command at smoke size and checks what it promises, in under a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perf import trace

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [entry["name"] for entry in BENCHMARK["workloads"]]


def run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perf" / "run.py"), *args],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=170,
    )


@pytest.fixture(scope="module")
def smoke() -> dict:
    done = run("--smoke")
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_every_workload_verifies_and_reports_every_metric(smoke):
    assert smoke["correct"] is True
    assert smoke["attempted"] > 0 and smoke["failed"] == 0
    for workload in WORKLOADS:
        for spec in BENCHMARK["end_to_end"]:
            entry = smoke["metrics"][f"{workload}/{spec['name']}"]
            assert entry["unit"] == spec["unit"]
            assert entry["value"] > 0, (workload, spec["name"])
        for spec in BENCHMARK["per_layer"]:
            entry = smoke["metrics"][f"{workload}/{spec['name']}"]
            assert entry["unit"] == spec["unit"]
            assert entry["value"] != -1.0, f"{workload}/{spec['name']} is absent"


def test_layer_predictions_hold(smoke):
    def value(workload: str, metric: str) -> float:
        return smoke["metrics"][f"{workload}/{metric}"]["value"]

    layers = [spec["name"] for spec in BENCHMARK["per_layer"]]
    for metric in layers:
        if metric.startswith("relational."):
            assert value("svc_append", metric) == 0.0, metric
        if metric.startswith(("service.wal.", "service.net.core.")):
            assert value("lib_update", metric) == 0.0, metric
    # One update statement per read: per operation the WAL costs half an
    # append and half a commit's fsync.  (5 % at full size; the smoke
    # document is a third of it, so the update itself is cheaper.)
    wal_ms = 0.5 * (
        value("svc_execute", "service.wal.append_ms_per_op")
        + value("svc_execute", "service.wal.fsync_ms_per_commit")
    )
    codec_ms = value("svc_execute", "service.net.core.codec_ms_per_op")
    op_ms = value("svc_execute", "service.net.handlers.dispatch_ms_per_op")
    assert wal_ms < 0.15 * op_ms and codec_ms < 0.05 * op_ms
    for workload in WORKLOADS:
        assert value(workload, "trace.accounted_ratio") >= 0.80, workload


def test_missing_wrap_target_degrades_to_absent():
    missing = [f"{m}.{p}" for name, m, p in trace.WRAP_TABLE if name == "updates.diff"]
    samples = {"read": [0.001], "write": [0.002]}
    layers = trace.layer_metrics({}, missing, {}, samples, 0.0, {})
    assert layers["updates.diff_ms_per_op"] == trace.ABSENT
    assert layers["updates.apply_ms_per_op"] == 0.0
    assert set(layers) | {"trace.overhead_ratio"} == set(trace.LAYER_METRICS)
    script = (
        "import sys; sys.path[:0] = [sys.argv[1] + '/src', sys.argv[1]]\n"
        "from perf import trace\n"
        "trace.WRAP_TABLE.append(('gone', 'repro.updates.delta', 'no_such_function'))\n"
        "trace.install(); print(trace.absent)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script, str(ROOT)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "['repro.updates.delta.no_such_function']"
    assert "warning" in done.stderr


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(PERF, tmp_path / "perf",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    done = run("--workload", "lib_update", "--seed", "1", "--seconds", "1", "--trace", "0",
               cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
