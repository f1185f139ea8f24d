"""The repo benchmark: ``python perf/run.py [--workload W] [--seed N]``.

Runs the workloads in rounds.  A *round* is one fresh child process per
workload: set up (timed), a measured closed-loop segment cut into half-
second slices, a state check against the generator's model, stop.
Rounds of different workloads are interleaved (A B C D A B C D ...).
``setup_s`` and ``rss_mb`` are the median over a workload's rounds.  A
rate or latency metric is the mean of the three best slices of all its
untraced rounds: on the shared 2-CPU hosts this runs on, interference
only ever slows a slice down (a fixed spin loop takes 1.0-2.0x its best
time from one second to the next), so the best slices are the program's
speed when the host leaves it alone, and they repeated about twice as
tightly as the median of the same slices (``perf/README.md`` has the
measurements).  End-to-end metrics come from untraced rounds only;
``--trace 1`` adds rounds with ``perf/trace.py`` installed in the child,
which yield the per-layer table.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--workload`` the
metrics are the end-to-end ones (``--trace 0``) or the per-layer ones
(``--trace 1``); without it every workload runs and metric names are
prefixed ``<workload>/``.  Exit status is non-zero when any state check
fails.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:1] = [str(ROOT / "src"), str(ROOT)]

import repro  # noqa: E402
from repro.service import AsyncServiceClient  # noqa: E402

from perf import harness, trace  # noqa: E402
from perf.harness import OUT, Child, Recorder, drive, registry_delta  # noqa: E402
from perf.workloads import WORKLOADS, Sizes  # noqa: E402

DEFAULT_SEED = 20010521
ROUNDS = 3
SLICE_S = 0.5
BEST_SLICES = 3

#: name -> unit; directions and bounds are in BENCHMARK.json.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "read_p50_ms": "ms",
    "write_p50_ms": "ms",
    "cpu_ms_per_op": "ms",
    "rss_mb": "MiB",
}
PER_ROUND = ("setup_s", "rss_mb")
#: Metrics taken per slice -> whether higher is better.
PER_SLICE = {
    "ops_per_s": True, "read_p50_ms": False, "write_p50_ms": False, "cpu_ms_per_op": False,
}


def best_slices(values: list[float], higher: bool) -> float:
    """Mean of the best few slice values (a slice with no sample of the
    metric's kind reports 0 and is left out)."""
    ranked = sorted((v for v in values if v > 0.0), reverse=higher)
    return statistics.mean(ranked[:BEST_SLICES])


async def service_round(workload, seconds: float, traced: bool) -> dict:
    """One round of a ``svc_*`` workload.

    Setup is everything from spawning the child to "ready for the first
    measured request": generate and write the document, parse and load
    it, start the service, a fixed count of warm-up cycles, one
    checkpoint, more cycles, graceful stop, restart on the same WAL
    directory with ``recover()``, reconnect, a check that the recovered
    state equals the model (acknowledged implies durable), and a fixed
    count of cycles on the restarted child.  ``rss_mb`` is read there:
    the service keeps some memory per request it has served, so its
    peak after a timed segment is a measure of how many requests fitted
    into the segment, not of the program.
    """
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT))
    launch = ["--host", workload.host, "--name", workload.doc,
              "--document", workdir / "document.xml", "--dir", workdir]
    child = None
    clients: list = []

    async def connect(port: int) -> None:
        for _ in range(workload.connections):
            clients.append(await AsyncServiceClient.connect("127.0.0.1", port))

    async def disconnect() -> None:
        while clients:
            await clients.pop().close()

    try:
        started = time.perf_counter()
        (workdir / "document.xml").write_text(workload.document_text())
        child = await Child.spawn("server_main.py", *launch)
        ready = await child.read()
        setup = dict(ready["timings"])
        if workload.host == "store":
            workload.bind_ids(ready["info"])
        await connect(ready["port"])
        warm = await drive(workload, clients, cycles=workload.warmup)
        checkpoint_started = time.perf_counter()
        await clients[0].checkpoint()
        setup["checkpoint_s"] = time.perf_counter() - checkpoint_started
        warm.merge(await drive(workload, clients, cycles=workload.tail))
        await disconnect()
        await child.stop()
        child = await Child.spawn(
            "server_main.py", *launch, "--restart", *(["--trace"] if traced else [])
        )
        ready = await child.read()
        setup.update(ready["timings"])
        await connect(ready["port"])
        problems = [
            f"after recovery: {problem}"
            for problem in await workload.verify(clients[0], child.call)
        ]
        warm.merge(await drive(workload, clients, cycles=workload.rewarm))
        setup_s = time.perf_counter() - started
        rss_mb = child.peak_rss_mib()
        if warm.failed:
            problems.append(f"{warm.failed} setup operation(s) failed")

        before = (await clients[0].stats())["metrics"]
        if traced:
            await child.call("mark")
        own_before = time.process_time()
        total, slices = Recorder(), []
        for _ in range(round(seconds / SLICE_S)):
            cpu_before = child.cpu_s()
            recorder = await drive(workload, clients, seconds=SLICE_S)
            slices.append(recorder.slice_values(child.cpu_s() - cpu_before))
            total.merge(recorder)
        own_cpu_s = time.process_time() - own_before
        dump = None
        if traced:
            dump = await child.call(f"dump {OUT / f'trace-{workload.name}.json'}")
        registry = registry_delta(before, (await clients[0].stats())["metrics"])
        problems += await workload.verify(clients[0], child.call)
        acked = len(total.samples["write"])
        if registry.get("batcher.ops.applied") != acked:
            problems.append(
                f"{acked} acknowledged write(s) but the server applied "
                f"{registry.get('batcher.ops.applied')}"
            )
        await disconnect()
        stopped = await child.stop()
        if stopped.get("undrained"):
            problems.append(f"{stopped['undrained']} connection(s) undrained at stop")
    finally:
        await disconnect()
        if child is not None:
            await child.kill()
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "setup_s": setup_s, "rss_mb": rss_mb, "slices": slices,
        "attempted": total.attempted, "failed": total.failed,
        "samples": total.samples, "problems": problems,
    }
    if dump is not None:
        result["layers"] = trace.layer_metrics(
            dump["totals"], dump["absent"], registry, total.samples, own_cpu_s, setup
        )
    return result


async def library_round(workload, seed: int, seconds: float, traced: bool, smoke: bool) -> dict:
    """The same round for ``lib_update``, whose loop runs in the child."""
    options = ["--seed", seed]
    if smoke:
        options.append("--smoke")
    if traced:
        options += ["--trace", OUT / f"trace-{workload.name}.json"]
    started = time.perf_counter()
    child = await Child.spawn("lib_main.py", *options)
    try:
        ready = await child.read()
        setup_s = time.perf_counter() - started
        rss_mb = child.peak_rss_mib()
        segment = await child.call(
            f"segment {SLICE_S} {round(seconds / SLICE_S)}", seconds + 60.0
        )
        problems = (await child.call("verify"))["problems"]
        await child.stop()
    finally:
        await child.kill()
    result = {
        "setup_s": setup_s, "rss_mb": rss_mb, "slices": segment["slices"],
        "attempted": segment["attempted"], "failed": segment["failed"],
        "samples": segment["samples"], "problems": problems,
    }
    if traced:
        result["layers"] = trace.layer_metrics(
            segment["totals"], segment["absent"], segment["registry"],
            segment["samples"], 0.0, ready["timings"],
        )
    return result


async def run_round(name: str, seed: int, seconds: float, traced: bool, smoke: bool) -> dict:
    workload = WORKLOADS[name](seed, Sizes.smoke() if smoke else Sizes())
    if workload.host == "lib":
        return await library_round(workload, seed, seconds, traced, smoke)
    return await service_round(workload, seconds, traced)


def summarise(rounds: list[dict]) -> dict:
    """Fold one workload's rounds into its reported metrics."""
    untraced = [r for r in rounds if "layers" not in r]
    traced = [r for r in rounds if "layers" in r]
    values = {metric: [r[metric] for r in untraced] for metric in PER_ROUND}
    values.update(
        {metric: [s[metric] for r in untraced for s in r["slices"]] for metric in PER_SLICE}
    )
    summary: dict = {
        "end_to_end": {
            metric: best_slices(values[metric], PER_SLICE[metric])
            if metric in PER_SLICE else statistics.median(values[metric])
            for metric in END_TO_END
        },
        "values": values,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "problems": [problem for r in rounds for problem in r["problems"]],
    }
    if summary["problems"]:
        # A workload whose state diverged from the model has no
        # trustworthy operation: none of them counts as done.
        summary["failed"] = summary["attempted"]
    reads = [s for r in untraced for s in r["samples"]["read"]]
    writes = [s for r in untraced for s in r["samples"]["write"]]
    summary["diagnostics"] = {
        "client.read_p99_ms": harness.p99_ms(reads),
        "client.write_p99_ms": harness.p99_ms(writes),
        "client.samples": len(reads) + len(writes),
    }
    if traced:
        layers = {}
        for metric in trace.LAYER_METRICS:
            if metric == "trace.overhead_ratio":
                slower = best_slices(
                    [s["ops_per_s"] for r in traced for s in r["slices"]], True
                )
                layers[metric] = summary["end_to_end"]["ops_per_s"] / slower - 1.0
                continue
            seen = [r["layers"][metric] for r in traced]
            layers[metric] = trace.ABSENT if trace.ABSENT in seen else statistics.median(seen)
        summary["per_layer"] = layers
    return summary


def report(name: str, summary: dict) -> None:
    for metric, unit in END_TO_END.items():
        seen = summary["values"][metric]
        print(f"{name:14s} {metric:44s} {summary['end_to_end'][metric]:12.4f} {unit:6s}"
              f" (n={len(seen)} min={min(seen):.4g} max={max(seen):.4g})")
    for metric, value in summary["diagnostics"].items():
        shown = "n/a (fewer than 1000 samples)" if value is None else f"{value:12.4f}"
        print(f"{name:14s} {metric:44s} {shown}")
    for metric, value in summary.get("per_layer", {}).items():
        unit = trace.LAYER_METRICS[metric]
        shown = "      absent" if value == trace.ABSENT else f"{value:12.4f}"
        print(f"{name:14s} {metric:44s} {shown} {unit}")
    print(f"{name:14s} attempted={summary['attempted']} failed={summary['failed']}")
    for problem in summary["problems"]:
        print(f"{name:14s} STATE CHECK FAILED: {problem}")


def as_metrics(values: dict, units: dict, prefix: str) -> dict:
    return {
        prefix + metric: {"value": value, "unit": units[metric]}
        for metric, value in values.items()
    }


async def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=18.0,
                        help=f"measured seconds per workload, split over {ROUNDS} rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="1 adds traced rounds (default: 1 without --workload)")
    parser.add_argument("--smoke", action="store_true",
                        help="harness self-test: small documents, one 2 s round "
                             "untraced and one traced, state still verified")
    args = parser.parse_args()
    if ROOT not in Path(repro.__file__).resolve().parents:
        print(f"perf: repro was imported from {repro.__file__}, not this checkout",
              file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(WORKLOADS)
    traced = args.trace if args.trace is not None else int(args.workload is None)
    segment_s = 2.0 if args.smoke else args.seconds / ROUNDS
    if args.smoke:
        plan = [(name, flag) for flag in (False, True)[: traced + 1] for name in names]
    elif args.workload:
        # One workload per invocation (how the driver calls it): the
        # same measured time either way, two of three rounds traced.
        plan = [(args.workload, bool(traced and r)) for r in range(ROUNDS)]
    else:
        plan = [(name, False) for _ in range(ROUNDS) for name in names]
        plan += [(name, True) for name in names if traced]

    OUT.mkdir(exist_ok=True)
    host = harness.fingerprint(OUT)
    host.update(seed=args.seed, segment_s=segment_s, slice_s=SLICE_S,
                rounds=sum(1 for name, flag in plan if name == names[0] and not flag))
    print("host: " + " ".join(f"{key}={value}" for key, value in host.items()))
    if host["loadavg_1m"] > 0.5 * host["nproc"]:
        print(f"perf: warning: 1-min load average {host['loadavg_1m']:.2f} exceeds "
              f"half of {host['nproc']} CPUs; expect noisy numbers", file=sys.stderr)

    rounds: dict[str, list[dict]] = {name: [] for name in names}
    for name, flag in plan:
        rounds[name].append(await run_round(name, args.seed, segment_s, flag, args.smoke))
    summaries = {name: summarise(rounds[name]) for name in names}
    for name in names:
        report(name, summaries[name])
    (OUT / f"result-{args.workload or 'all'}.json").write_text(
        json.dumps({"host": host, "workloads": summaries}, indent=1)
    )

    metrics: dict = {}
    for name in names:
        prefix = "" if args.workload else f"{name}/"
        if not (args.workload and traced):
            metrics.update(as_metrics(summaries[name]["end_to_end"], END_TO_END, prefix))
        if traced:
            metrics.update(
                as_metrics(summaries[name]["per_layer"], trace.LAYER_METRICS, prefix)
            )
    correct = not any(summary["problems"] for summary in summaries.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(summary["attempted"] for summary in summaries.values()),
        "failed": sum(summary["failed"] for summary in summaries.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(asyncio.run(main()))
