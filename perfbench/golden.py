#!/usr/bin/env python3
"""Record the golden outputs the benchmark checks bit-exactly.

    python3 perfbench/golden.py [--workload NAME ...] [--seeds 1-10]

For each default seed (1 to 10) this runs the ops a benchmark run on
that seed can reach and writes their outputs to ``golden.json``:

* ``design``: allocation and predicted cost per data seed, for every
  data seed among the first ``DESIGN_OPS`` ops of each seed's schedule;
* ``execute``: simulated seconds and executed work of every
  (query, allocation) pair, and each query's row count;
* ``serve``: the hash of one session's response stream and its
  typed-refusal count;
* ``cotune``: the hash of the uninterrupted journal's records, the
  chosen indexes, allocation, and total cost.

Run it only when a change to the program is meant to change these
outputs; otherwise a mismatch is a failed check, not a stale file.
"""

from __future__ import annotations

import argparse
import itertools
import json
import tempfile

import run

DEFAULT_SEEDS = range(1, 11)
#: Ops of each design schedule covered (a run reaches far fewer).
DESIGN_OPS = 8


def record_design(workload_cls, seed, workdir, table):
    workload = workload_cls(seed, workdir)
    for data_seed in sorted(set(itertools.islice(workload.schedule(),
                                                 DESIGN_OPS))):
        if str(data_seed) not in table:
            out = workload.run(data_seed).outcome
            table[str(data_seed)] = {"allocation": out["allocation"],
                                     "cost": out["cost"]}


def record_execute(workload_cls, seed, workdir, table):
    workload = workload_cls(seed, workdir)
    workload.setup()
    runs = {}
    for query in workload.queries:
        for cpu, mem in workload.allocations():
            out = workload.run((query, cpu, mem)).outcome
            runs[out["key"]] = {"seconds": out["seconds"],
                                "work": out["work"]}
    table[str(seed)] = {"rows": workload.row_counts(workload.queries),
                        "runs": runs}


def record_serve(workload_cls, seed, workdir, table):
    workload = workload_cls(seed, workdir)
    workload.setup()
    out = workload.run(0).outcome
    table[str(seed)] = {"stream_sha256": out["stream_sha256"],
                        "refused": out["refused"],
                        "requests": out["requests"]}


def record_cotune(workload_cls, seed, workdir, table):
    from workloads import _allocation_of, journal_sha256

    workload = workload_cls(seed, workdir)
    workload.setup()
    design = workload.result
    table[str(seed)] = {"journal_sha256": journal_sha256(workload.reference),
                        "indexes": design.index_names(),
                        "allocation": _allocation_of(design),
                        "total_cost": design.total_cost}


RECORDERS = {"design": record_design, "execute": record_execute,
             "serve": record_serve, "cotune": record_cotune}


def parse_seeds(text: str):
    low, _, high = text.partition("-")
    return range(int(low), int(high or low) + 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        choices=sorted(RECORDERS))
    parser.add_argument("--seeds", type=parse_seeds, default=DEFAULT_SEEDS)
    args = parser.parse_args(argv)
    run.load_program()
    from workloads import WORKLOADS

    try:
        with open(run.GOLDEN) as handle:
            golden = json.load(handle)
    except FileNotFoundError:
        golden = {}
    for name in args.workload or sorted(RECORDERS):
        table = golden.setdefault(name, {})
        for seed in args.seeds:
            with tempfile.TemporaryDirectory(prefix=".perfbench-",
                                             dir=run.ROOT) as workdir:
                RECORDERS[name](WORKLOADS[name], seed, workdir, table)
            print(f"golden: {name} seed {seed} recorded", flush=True)
        golden[name] = dict(sorted(table.items(), key=lambda kv: int(kv[0])))
        with open(run.GOLDEN, "w") as handle:
            json.dump(golden, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
