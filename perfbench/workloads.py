"""The four benchmark workloads: inputs, ops, and output checks.

Every workload drives only public ``repro`` APIs. Functions the traced
run wraps are called through their module attribute at call time
(``tpch.build_tpch_database``, ``surrogate.design_continuous``) so the
wrapper installed on that name is the one that runs.

A workload object is built from the run seed and offers:

* ``setup()`` — the untimed preparation (database builds, warm-up);
  the runner repeats it and keeps the state of the last repetition;
* ``schedule()`` — the deterministic, endless op sequence;
* ``run(op)`` — one op, returning an :class:`OpResult`;
* ``check(results, golden)`` — the output check; returns the number of
  failed ops and a list of messages. Seeds with a golden entry are
  compared bit-exactly; other seeds are checked against invariants.
"""

from __future__ import annotations

import asyncio
import hashlib
import itertools
import json
import math
import os
import random
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Tuple

import repro.surrogate as surrogate
import repro.workloads as tpch
from repro.calibration import CalibrationCache, CalibrationRunner
from repro.calibration.synthetic import (
    HUGE_TABLE,
    SMALL_TABLE,
    CalibrationWorkbench,
)
from repro.codesign import CodesignSupervisor
from repro.core import (
    OptimizerCostModel,
    VirtualizationDesigner,
    VirtualizationDesignProblem,
    WorkloadSpec,
)
from repro.core.measure import WorkloadRunner
from repro.faults import RetryPolicy
from repro.recovery.journal import RunJournal
from repro.serve import ServeConfig, ServeScenario
from repro.serve.breaker import CircuitBreaker
from repro.serve.clock import SimulatedClock
from repro.serve.daemon import ServeDaemon
from repro.serve.requests import ANSWERED, DEGRADED, REJECTED
from repro.serve.service import DesignService
from repro.serve.supervisor import SessionStats
from repro.serve.trace import generate_trace
from repro.virt.machine import laboratory_machine
from repro.virt.resources import ResourceKind, ResourceVector
from repro.workloads import Workload, tpch_query

TABLES = ["customer", "orders", "lineitem"]


@dataclass
class OpResult:
    """What one op produced: host latencies (one per request) and the
    outcome the check compares."""

    latencies: List[float]
    outcome: Any
    #: Requests answered with a typed refusal or shed (serve only).
    refused: int = 0
    extra: Dict[str, Any] = field(default_factory=dict)


def _allocation_of(design) -> Dict[str, List[float]]:
    return {name: list(design.allocation.vector_for(name).as_tuple())
            for name in design.allocation.workload_names()}


def _sha256(payload: Any) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _fig5_problem(db_for, order_repeats: int, cust_repeats: int
                  ) -> VirtualizationDesignProblem:
    """The Fig. 5 problem: Q4 (order audit) against Q13 (customer
    report), CPU controlled."""
    specs = [
        WorkloadSpec(Workload.repeat("order-audit", tpch_query("Q4"),
                                     order_repeats),
                     db_for("tpch-order-audit")),
        WorkloadSpec(Workload.repeat("cust-report", tpch_query("Q13"),
                                     cust_repeats),
                     db_for("tpch-cust-report")),
    ]
    return VirtualizationDesignProblem(
        machine=laboratory_machine(), specs=specs,
        controlled_resources=(ResourceKind.CPU,))


# -- design -------------------------------------------------------------------


class DesignWorkload:
    """One ``repro design`` request per op, built from public calls.

    Each op builds TPC-H (scale 0.002) from its data seed, constructs a
    fresh calibration runner (the workbench build) and cache, and runs
    an exhaustive grid-4 search over the Fig. 5 problem (Q4 x3 /
    Q13 x9). About half the ops repeat an earlier op's data seed.
    """

    name = "design"
    round_size = 1
    scale = 0.002
    grid = 4

    def __init__(self, seed: int, workdir: str):
        self.seed = seed

    def setup(self) -> None:
        # Warm-up: one database build on a seed no op uses.
        tpch.build_tpch_database(scale_factor=self.scale, seed=0,
                                 tables=TABLES)

    def schedule(self) -> Iterator[int]:
        rng = random.Random(f"design-{self.seed}")
        seen: List[int] = []
        while True:
            if seen and rng.random() < 0.5:
                data_seed = rng.choice(seen)
            else:
                data_seed = self.seed * 1000 + len(seen) + 1
                seen.append(data_seed)
            yield data_seed

    def run(self, data_seed: int) -> OpResult:
        start = time.perf_counter()
        db = tpch.build_tpch_database(scale_factor=self.scale,
                                      seed=data_seed, tables=TABLES)
        problem = _fig5_problem(lambda _name: db, 3, 9)
        cache = CalibrationCache(CalibrationRunner(problem.machine))
        design = VirtualizationDesigner(
            problem, OptimizerCostModel(cache)).design("exhaustive",
                                                       grid=self.grid)
        wall = time.perf_counter() - start
        return OpResult([wall], {
            "data_seed": data_seed,
            "allocation": _allocation_of(design),
            "cost": design.predicted_total_cost,
            "default_cost": design.default_total_cost,
        }, extra={"gain": design.predicted_improvement})

    def check(self, results: List[OpResult], golden: Dict[str, Any]
              ) -> Tuple[int, List[str]]:
        failed, notes = 0, []
        first: Dict[int, Dict[str, Any]] = {}
        for result in results:
            out = result.outcome
            key = out["data_seed"]
            expected = golden.get(str(key))
            problems = []
            if expected is not None:
                if (out["allocation"] != expected["allocation"]
                        or out["cost"] != expected["cost"]):
                    problems.append("differs from golden")
            else:
                if out["cost"] > out["default_cost"]:
                    problems.append("worse than the equal-share default")
                vectors = list(out["allocation"].values())
                if any(share <= 0 for vector in vectors for share in vector):
                    problems.append("non-positive share")
                if any(sum(column) > 1 + 1e-9 for column in zip(*vectors)):
                    problems.append("oversubscribed resource")
            if key in first and first[key] != out:
                problems.append("repeated data seed, different design")
            first.setdefault(key, out)
            if problems:
                failed += 1
                notes.append(f"design data seed {key}: "
                             + "; ".join(problems))
        return failed, notes

    def extras(self, results: List[OpResult]) -> Dict[str, float]:
        gains = [r.extra["gain"] for r in results]
        return {"design_gain": sum(gains) / len(gains)}


# -- execute ------------------------------------------------------------------


class ExecuteWorkload:
    """``WorkloadRunner.run`` of one TPC-H query, three cold-started
    repetitions, at one allocation, on a scale-0.005 database."""

    name = "execute"
    queries = ("Q1", "Q3", "Q4", "Q6", "Q12", "Q13", "Q18")
    cpu_shares = (0.25, 0.5, 0.75)
    #: 0.25 -> a 384-page pool (smaller than the ~690 heap pages);
    #: 0.9 -> a 1382-page pool that holds the whole database.
    memory_shares = (0.25, 0.9)
    io_share = 0.5
    repetitions = 3
    round_size = len(queries)
    scale = 0.005

    def __init__(self, seed: int, workdir: str):
        self.seed = seed

    def setup(self) -> None:
        self.db = tpch.build_tpch_database(scale_factor=self.scale,
                                           seed=self.seed, tables=TABLES)
        self.runner = WorkloadRunner(laboratory_machine())
        self.workloads = {q: Workload.repeat(q, tpch_query(q),
                                             self.repetitions)
                          for q in self.queries}

    def allocations(self) -> List[Tuple[float, float]]:
        return [(cpu, mem) for cpu in self.cpu_shares
                for mem in self.memory_shares]

    def schedule(self) -> Iterator[Tuple[str, float, float]]:
        """Rounds of all seven queries in a seeded order; allocations
        drawn without replacement from shuffled blocks of the six."""
        rng = random.Random(f"execute-{self.seed}")
        allocations: List[Tuple[float, float]] = []
        while True:
            order = list(self.queries)
            rng.shuffle(order)
            for query in order:
                if not allocations:
                    allocations = self.allocations()
                    rng.shuffle(allocations)
                cpu, mem = allocations.pop()
                yield query, cpu, mem

    def run(self, op: Tuple[str, float, float]) -> OpResult:
        query, cpu, mem = op
        start = time.perf_counter()
        run = self.runner.run(
            self.workloads[query], self.db,
            ResourceVector.of(cpu=cpu, memory=mem, io=self.io_share),
            cold_start=True)
        wall = time.perf_counter() - start
        work = [[t.cpu_units, t.seq_page_reads, t.random_page_reads,
                 t.buffer_hits] for t in run.statement_traces]
        return OpResult([wall], {"key": f"{query}|{cpu}|{mem}",
                                 "seconds": list(run.statement_seconds),
                                 "work": work})

    def row_counts(self, queries) -> Dict[str, int]:
        return {q: len(self.db.run_sql(tpch_query(q)).rows)
                for q in sorted(queries)}

    def check(self, results: List[OpResult], golden: Dict[str, Any]
              ) -> Tuple[int, List[str]]:
        expected = golden.get(str(self.seed))
        failed, notes = 0, []
        first: Dict[str, Dict[str, Any]] = {}
        for result in results:
            out = result.outcome
            key = out["key"]
            problems = []
            if expected is not None:
                want = expected["runs"].get(key)
                if want != {"seconds": out["seconds"], "work": out["work"]}:
                    problems.append("differs from golden")
            elif not all(math.isfinite(s) and s > 0
                         for s in out["seconds"]):
                problems.append("non-positive simulated seconds")
            if key in first and first[key] != out:
                problems.append("repeated op, different result")
            first.setdefault(key, out)
            if problems:
                failed += 1
                notes.append(f"execute {key}: " + "; ".join(problems))
        if expected is not None:
            queries = {r.outcome["key"].split("|")[0] for r in results}
            rows = self.row_counts(queries)
            for query, count in rows.items():
                if count != expected["rows"][query]:
                    bad = sum(1 for r in results
                              if r.outcome["key"].startswith(query + "|"))
                    failed += bad
                    notes.append(f"execute {query}: {count} rows, golden "
                                 f"{expected['rows'][query]}")
        return min(failed, len(results)), notes

    def extras(self, results: List[OpResult]) -> Dict[str, float]:
        return {}


# -- serve --------------------------------------------------------------------


class ServeWorkload:
    """A closed loop of four client coroutines on one asyncio loop.

    Each op is one request. ``run`` plays one serving session: a fresh
    ``DesignService`` over the set-up's surface and incumbent, and four
    clients that each submit the next request of the seeded trace
    through ``ServeDaemon.submit`` while ``serve_batches`` runs. A
    client moves the simulated clock to its request's arrival before
    submitting. Latencies are host time per request; the response
    stream is deterministic per seed.
    """

    name = "serve"
    round_size = 1
    scale = 0.002
    clients = 4
    requests = 4000
    config = ServeConfig(quota_capacity=30.0, quota_refill_rate=20.0)

    def __init__(self, seed: int, workdir: str):
        self.seed = seed

    def setup(self) -> None:
        db = tpch.build_tpch_database(scale_factor=self.scale,
                                      seed=self.seed, tables=TABLES)
        self.problem = _fig5_problem(lambda _name: db, 1, 2)
        self.policy = RetryPolicy.resilient()
        self.runner = CalibrationRunner(self.problem.machine,
                                        retry_policy=self.policy)
        self.boot = surrogate.design_continuous(
            self.problem, CalibrationCache(self.runner), algorithm="greedy",
            grid=3, fine_factor=8, max_calibrations=12)
        self.trace = generate_trace(
            ServeScenario(seed=self.seed, requests=self.requests, rate=20.0,
                          design_every=25),
            self.problem.workload_names())

    def schedule(self) -> Iterator[int]:
        return itertools.count()

    async def _session(self):
        service = DesignService(
            self.problem, self.boot.surface, self.boot.design,
            config=self.config, clock=SimulatedClock(), runner=self.runner,
            breaker=CircuitBreaker(self.config.breaker_trip_after,
                                   self.policy))
        service.configure_search("greedy", 3, 8)
        daemon = ServeDaemon(service)
        batcher = asyncio.ensure_future(daemon.serve_batches())
        pending = iter(self.trace)
        responses, latencies = [], []

        async def client():
            for request in pending:
                service.clock.advance_to(request.arrival)
                start = time.perf_counter()
                response = await daemon.submit(request)
                latencies.append(time.perf_counter() - start)
                responses.append(response)

        try:
            await asyncio.gather(*(client() for _ in range(self.clients)))
        finally:
            daemon.close()
            await batcher
        return responses, latencies

    def run(self, session: int) -> OpResult:
        responses, latencies = asyncio.run(self._session())
        stream = [[r.status, r.tier, r.reason, r.cost, r.completed_at]
                  for r in responses]
        typed = all(r.status in (ANSWERED, DEGRADED)
                    or (r.error is not None and r.reason is not None)
                    for r in responses)
        late = sum(1 for r in responses
                   if r.completed_at > r.request.deadline_at + 1e-12)
        covered = (len(responses) == len(self.trace)
                   and {id(r.request) for r in responses}
                   == {id(q) for q in self.trace})
        refused = sum(1 for r in responses if r.status == REJECTED)
        stats = SessionStats.from_responses(responses)
        return OpResult(latencies, {
            "stream_sha256": _sha256(stream),
            "requests": len(responses),
            "refused": refused,
            "typed": typed,
            "late": late,
            "covered": covered,
        }, refused=refused, extra={
            "sim_p99_s": stats.p99_seconds,
            "request_ids": [id(r.request) for r in responses]})

    def check(self, results: List[OpResult], golden: Dict[str, Any]
              ) -> Tuple[int, List[str]]:
        expected = golden.get(str(self.seed))
        failed, notes = 0, []
        reference = results[0].outcome["stream_sha256"] if results else None
        for index, result in enumerate(results):
            out = result.outcome
            problems = []
            if expected is not None and (
                    out["stream_sha256"] != expected["stream_sha256"]
                    or out["refused"] != expected["refused"]):
                problems.append("stream differs from golden")
            if not (out["typed"] and out["covered"]):
                problems.append("not one typed response per request")
            if out["late"]:
                problems.append(f"{out['late']} deadline violation(s)")
            if out["stream_sha256"] != reference:
                problems.append("stream differs from the first session")
            if problems:
                failed += len(result.latencies)
                notes.append(f"serve session {index}: " + "; ".join(problems))
        return failed, notes

    def extras(self, results: List[OpResult]) -> Dict[str, float]:
        return {"sim_p99_s": max(r.extra["sim_p99_s"] for r in results),
                "design_gain": self.boot.design.predicted_improvement}


# -- cotune -------------------------------------------------------------------


def ssd_workbench() -> CalibrationWorkbench:
    """The small SSD-regime calibration bench of ``bench_codesign``,
    under which an index can beat a larger CPU share."""
    return CalibrationWorkbench(rows={
        SMALL_TABLE: 200, "cal_scan_a": 1000, "cal_scan_b": 2000,
        "cal_scan_c": 3000, HUGE_TABLE: 4000,
    })


def journal_sha256(path: str) -> str:
    journal = RunJournal.open(path)
    return _sha256([[r.kind, r.data] for r in journal.records])


class CotuneWorkload:
    """A journaled co-tuning run, killed after a seeded unit count and
    resumed on a freshly built problem.

    Storage budget 64 pages, exhaustive grid 4, at most 6 rounds, over
    two index-free scale-0.002 databases. Set-up runs the same
    co-tuning uninterrupted; that journal is the reference every
    resumed journal must equal.
    """

    name = "cotune"
    round_size = 1
    scale = 0.002
    options = dict(storage_budget=64, algorithm="exhaustive", grid=4,
                   max_rounds=6)

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.setups = 0
        self.references: List[str] = []

    def problem(self) -> VirtualizationDesignProblem:
        return _fig5_problem(
            lambda name: tpch.build_tpch_database(
                scale_factor=self.scale, seed=self.seed, tables=TABLES,
                with_indexes=False, name=name), 3, 9)

    def supervisor(self, path: str, **kwargs) -> CodesignSupervisor:
        return CodesignSupervisor(self.problem(), path,
                                  workbench=ssd_workbench(),
                                  **self.options, **kwargs)

    def setup(self) -> None:
        self.setups += 1
        path = os.path.join(self.workdir, f"reference-{self.setups}.journal")
        run = self.supervisor(path).run()
        self.units = run.new_units
        self.reference = path
        self.result = run.design

    def schedule(self) -> Iterator[Tuple[int, int]]:
        rng = random.Random(f"cotune-{self.seed}")
        index = 0
        while True:
            index += 1
            yield index, rng.randint(1, self.units - 1)

    def run(self, op: Tuple[int, int]) -> OpResult:
        index, kill_after = op
        path = os.path.join(self.workdir, f"op-{index}.journal")
        start = time.perf_counter()
        killed = self.supervisor(path, max_units=kill_after).run()
        resumed = self.supervisor(path).run(resume=True)
        wall = time.perf_counter() - start
        design = resumed.design
        return OpResult([wall], {
            "journal": path,
            "kill_after": kill_after,
            "killed": not killed.completed,
            "completed": resumed.completed,
            "replayed": resumed.replayed_units,
            "indexes": design.index_names() if design else None,
            "allocation": _allocation_of(design) if design else None,
            "total_cost": design.total_cost if design else None,
        }, extra={"gain": design.predicted_improvement if design else 0.0})

    def check(self, results: List[OpResult], golden: Dict[str, Any]
              ) -> Tuple[int, List[str]]:
        expected = golden.get(str(self.seed))
        reference = journal_sha256(self.reference)
        failed, notes = 0, []
        setup_hashes = {journal_sha256(os.path.join(
            self.workdir, f"reference-{n}.journal"))
            for n in range(1, self.setups + 1)}
        if len(setup_hashes) != 1:
            notes.append("cotune: uninterrupted runs disagree")
        if expected is not None and reference != expected["journal_sha256"]:
            notes.append("cotune: reference journal differs from golden")
        setup_bad = len(notes) > 0
        want = {"indexes": self.result.index_names(),
                "allocation": _allocation_of(self.result),
                "total_cost": self.result.total_cost}
        if expected is not None:
            want = {key: expected[key] for key in want}
        for result in results:
            out = result.outcome
            problems = []
            if not (out["killed"] and out["completed"]
                    and out["replayed"] == out["kill_after"]):
                problems.append("kill/resume did not happen as scheduled")
            if journal_sha256(out["journal"]) != reference:
                problems.append("resumed journal differs from uninterrupted")
            if any(out[key] != value for key, value in want.items()):
                problems.append("design differs")
            if problems or setup_bad:
                failed += 1
                notes.append(f"cotune kill@{out['kill_after']}: "
                             + "; ".join(problems or ["set-up check"]))
        return failed, notes

    def extras(self, results: List[OpResult]) -> Dict[str, float]:
        gains = [r.extra["gain"] for r in results]
        return {"design_gain": sum(gains) / len(gains)}


WORKLOADS = {cls.name: cls for cls in (DesignWorkload, ExecuteWorkload,
                                       ServeWorkload, CotuneWorkload)}
