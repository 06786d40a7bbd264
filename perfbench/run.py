#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload {design,execute,serve,cotune}
        [--seed N] [--seconds S] [--trace 0|1] [--golden FILE]

Run from the root of a source checkout: the program is imported from
``src/`` next to this directory, never from an installed copy. The
workload's inputs are generated from ``--seed``. Set-up is repeated
``SETUP_REPS`` times and timed; then ops run in a closed loop for
``--seconds`` seconds of wall time, and every op's output is checked.

With ``--trace 0`` the last stdout line carries the end-to-end metrics
of ``BENCHMARK.json``; with ``--trace 1`` it carries the per-layer
metrics instead: the loop runs untraced for the first half of the
window and with the layer wrappers of ``tracing.py`` installed for the
second half (the last set-up repetition is traced too). The line
before it is a detail record: host, sample counts, workload-level
figures, and the output-check notes.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import platform
import resource
import statistics
import sys
import tempfile
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden.json"
SETUP_REPS = 3


def load_program() -> None:
    """Import ``repro`` from this checkout's ``src/`` or fail loudly."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    if pathlib.Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, "
                         f"not from {SRC}")


def percentile(values, q: float) -> float:
    """Linear-interpolated quantile of *values* (``0 <= q <= 1``)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def git_commit() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_record() -> dict:
    import numpy

    return {"cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "commit": git_commit()}


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def closed_loop(workload, schedule, seconds: float, ledger=None):
    """Run ops until *seconds* have passed and a round is complete.

    Returns (results, op wall seconds, queue waits). Queue waits are
    filled only when traced: a request's latency minus the host time of
    the batch that answered it.
    """
    from workloads import OpResult

    results, waits = [], []
    busy = 0.0
    start = time.perf_counter()
    while (time.perf_counter() - start < seconds
           or len(results) % workload.round_size):
        op = next(schedule)
        began = time.perf_counter()
        try:
            if ledger is None:
                result = workload.run(op)
            else:
                result = ledger.op(workload.run, op)
        except Exception as error:  # an op that raises counts as failed
            result = OpResult([time.perf_counter() - began], None,
                              extra={"error": f"op {op!r}: {error!r}"})
        busy += time.perf_counter() - began
        results.append(result)
        ids = result.extra.get("request_ids")
        if ledger is not None and ids:
            waits.extend(latency - ledger.batch_seconds_of.get(rid, 0.0)
                         for latency, rid in zip(result.latencies, ids))
            ledger.batch_seconds_of.clear()
    return results, busy, waits


def count_ops(results) -> int:
    return sum(len(result.latencies) for result in results)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["design", "execute", "serve", "cotune"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--golden", default=str(GOLDEN),
                        help="golden outputs file (default: %(default)s)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    load_program()
    import tracing
    from workloads import WORKLOADS

    with open(args.golden) as handle:
        golden = json.load(handle).get(args.workload, {})

    metrics = {}
    with tempfile.TemporaryDirectory(prefix=".perfbench-",
                                     dir=ROOT) as workdir:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        setup_times = []
        for rep in range(SETUP_REPS):
            began = time.perf_counter()
            if args.trace and rep == SETUP_REPS - 1:
                ledger = tracing.Ledger()
                ledger.install()
                try:
                    ledger.op(workload.setup)
                finally:
                    ledger.uninstall()
                wall = time.perf_counter() - began
                metrics.update(tracing.setup_metrics(ledger, wall))
            else:
                workload.setup()
            setup_times.append(time.perf_counter() - began)

        schedule = workload.schedule()
        window = args.seconds / 2 if args.trace else args.seconds
        plain, plain_busy, _ = closed_loop(workload, schedule, window)
        results = list(plain)
        if args.trace:
            ledger = tracing.Ledger()
            before = tracing.registry_totals()
            ledger.install()
            try:
                traced, traced_busy, waits = closed_loop(
                    workload, schedule, window, ledger)
            finally:
                ledger.uninstall()
            after = tracing.registry_totals()
            results.extend(traced)
            metrics.update(tracing.layer_metrics(
                ledger, count_ops(traced), traced_busy, before, after))

        completed = [r for r in results if r.outcome is not None]
        raised = [r for r in results if r.outcome is None]
        failed, notes = workload.check(completed, golden)
        failed += count_ops(raised)
        notes += [r.extra["error"] for r in raised]

    attempted = count_ops(results)
    latencies = [lat for result in plain for lat in result.latencies]
    refused = sum(result.refused for result in results)
    figures = {
        "latency_p90_ms": (percentile(latencies, 0.90) * 1e3, "ms"),
        "latency_p99_ms": (percentile(latencies, 0.99) * 1e3, "ms"),
        "failed_share": (min(attempted, failed + refused) / attempted,
                         "fraction"),
        "design_gain": (0.0, "fraction"),
        "sim_p99_s": (0.0, "s"),
    }
    if completed:
        for name, value in workload.extras(completed).items():
            figures[name] = (value, figures[name][1])
    plain_rate = count_ops(plain) / plain_busy
    if args.trace:
        metrics.update(figures)
        metrics.update({
            "trace_overhead_share": (
                plain_rate * traced_busy / count_ops(traced) - 1.0,
                "fraction"),
            "serve.daemon.queue_wait_p50_ms": (
                percentile(waits, 0.50) * 1e3, "ms"),
            "serve.daemon.queue_wait_p99_ms": (
                percentile(waits, 0.99) * 1e3, "ms"),
        })
    else:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "ops_per_s": (plain_rate, "ops/s"),
            "latency_p50_ms": (percentile(latencies, 0.50) * 1e3, "ms"),
            "peak_rss_mib": (peak_rss_mib(), "MiB"),
        }

    detail = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "host": host_record(),
        "setup_s": setup_times,
        "ops_untraced": count_ops(plain), "ops_total": attempted,
        "failed": failed, "refused": refused,
        **{name: value for name, (value, _unit) in figures.items()},
        "notes": notes[:20],
    }
    if args.trace:
        detail["top_span_paths_usec"] = ledger.folded()
    for note in notes:
        print(f"perfbench: check failed: {note}", file=sys.stderr)
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": failed == 0 and not notes,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
