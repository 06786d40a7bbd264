#!/usr/bin/env python3
"""Steadiness evidence: run each workload on ten seeds, one at a time.

    python3 perfbench/steadiness.py [--workload NAME ...] [--seeds 1-10]
        [--output perfbench/steadiness.json]

Runs ``BENCHMARK.json``'s command untraced for ``run_seconds`` per
seed, then reports, per workload and end-to-end metric, the median,
the quartiles (``statistics.quantiles(values, n=4)``), and the spread:
the inter-quartile distance as a share of the median. A spread must
stay under a third of the metric's bound; ``setup_s`` is exempt (its
bound limits median drift between two sets of runs instead).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

import golden
import run

BENCHMARK = run.ROOT / "BENCHMARK.json"


def main(argv=None) -> int:
    spec = json.loads(BENCHMARK.read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--seeds", type=golden.parse_seeds,
                        default=range(1, 11))
    parser.add_argument("--output", default=str(run.HERE /
                                                "steadiness.json"))
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    report = {"run_seconds": spec["run_seconds"], "seeds": list(args.seeds),
              "host": None, "workloads": {}}
    steady = True
    for name in args.workload or names:
        values = {metric: [] for metric in bounds}
        walls = []
        for seed in args.seeds:
            command = [sys.executable if part == "python3" else part
                       for part in spec["command"]]
            began = time.perf_counter()
            proc = subprocess.run(
                command + ["--workload", name, "--seed", str(seed),
                           "--seconds", str(spec["run_seconds"]),
                           "--trace", "0"],
                cwd=run.ROOT, capture_output=True, text=True, timeout=900)
            walls.append(time.perf_counter() - began)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                print(proc.stderr, file=sys.stderr)
                raise SystemExit(f"{name} seed {seed}: run failed")
            detail = json.loads(lines[-2])["detail"]
            result = json.loads(lines[-1])
            report["host"] = detail["host"]
            if not result["correct"]:
                steady = False
                print(f"{name} seed {seed}: incorrect: {detail['notes']}")
            for metric in bounds:
                values[metric].append(result["metrics"][metric]["value"])
        entry = {"run_wall_s_max": max(walls), "metrics": {}}
        for metric, series in values.items():
            q1, median, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median
            limit = bounds[metric] / 3
            ok = metric == "setup_s" or spread < limit
            steady = steady and ok
            entry["metrics"][metric] = {
                "median": median, "q1": q1, "q3": q3,
                "spread": spread, "bound": bounds[metric],
                "steady": ok, "values": series,
            }
            print(f"{name:8} {metric:15} median {median:12.4f} "
                  f"spread {spread:7.2%} (limit {limit:6.2%}) "
                  f"{'ok' if ok else 'UNSTEADY'}", flush=True)
        report["workloads"][name] = entry
    with open(args.output, "w") as handle:
        json.dump(report, handle, indent=1)
        handle.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    raise SystemExit(main())
