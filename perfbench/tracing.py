"""The traced-run shim: per-layer self time from wrapped public calls.

Nothing here is imported by the program. :class:`Ledger` installs a
timing wrapper around the public entry point of each layer — patched
on the name its caller looks up (a class attribute for methods, the
importing module's attribute for functions such as
``repro.calibration.runner.solve_parameters``) — and removes every
wrapper again on :meth:`Ledger.uninstall`.

Wrapped calls nest: each one is a span whose *self* time is its
duration minus the spans that ran inside it. Every benchmark op is a
root span (``op``), so an op's wall time splits exactly into the
layers' self times plus the op's own self time, reported as the
unattributed remainder. Span paths (``op;core.search.search;...``) are
aggregated as folded stacks — the per-op span tree summed over ops.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

ROOT = "op"

#: Registry counters read as deltas over the traced window.
REGISTRY_COUNTERS = (
    "optimizer.whatif.estimates", "optimizer.whatif.recosts",
    "optimizer.whatif.cache_hits", "cost_model.evaluations",
    "cost_model.memo_hits", "calibration.trace_cache_hits",
    "calibration.cache.fresh", "calibration.cache.exact_hits",
    "calibration.cache.interpolated",
)

#: Self-time layers, in report order: metric name -> layer key.
TIME_METRICS = {
    "workloads.build_s": "workloads.build",
    "calibration.synthetic.build_s": "calibration.synthetic.build",
    "engine.storage.load_s": "engine.storage.load",
    "engine.index.build_s": "engine.index.build",
    "engine.statistics.analyze_s": "engine.statistics.analyze",
    "engine.executor.run_s": "engine.executor.run",
    "virt.perf.elapsed_s": "virt.perf.elapsed",
    "optimizer.planner.plan_s": "optimizer.planner.plan",
    "optimizer.whatif.estimate_s": "optimizer.whatif.estimate",
    "core.cost_model.cost_s": "core.cost_model.cost",
    "calibration.cache.params_s": "calibration.cache.params",
    "surrogate.surface.params_s": "surrogate.surface.params",
    "calibration.runner.init_s": "calibration.runner.init",
    "calibration.runner.calibrate_s": "calibration.runner.calibrate",
    "calibration.solver.solve_s": "calibration.solver.solve",
    "core.search.self_s": "core.search.search",
    "surrogate.polish.fit_s": "surrogate.polish.fit",
    "surrogate.polish.warm_s": "surrogate.polish.warm",
    "engine.catalog.ddl_s": "engine.catalog.ddl",
    "codesign.designer.self_s": "codesign.designer.design",
    "recovery.journal.append_s": "recovery.journal.append",
    "recovery.journal.open_s": "recovery.journal.open",
    "serve.service.batch_s": "serve.service.batch",
    "serve.daemon.admit_s": "serve.daemon.admit",
}

#: The same layers measured over one traced set-up repetition.
SETUP_PREFIX = "setup."


def _resolve(path: str):
    """``"pkg.mod"`` -> module, ``"pkg.mod:Class"`` -> class."""
    module_name, _, attr = path.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, attr) if attr else owner


def _cost_model_classes() -> List[type]:
    """``CostModel`` and every loaded subclass, transitively."""
    from repro.core.cost_model import CostModel

    found, todo = [], [CostModel]
    while todo:
        cls = todo.pop()
        found.append(cls)
        todo.extend(cls.__subclasses__())
    return found


def _targets() -> List[Tuple[str, object, str]]:
    """(layer, owner, attribute) for every wrapped public call."""
    # Load the co-tuning cost model so its overrides are wrapped too.
    import repro.codesign.supervisor  # noqa: F401

    spec = [
        ("workloads.build", "repro.workloads", "build_tpch_database"),
        ("calibration.synthetic.build",
         "repro.calibration.synthetic:CalibrationWorkbench", "build_database"),
        ("engine.storage.load", "repro.engine.database:Database",
         "load_rows"),
        ("engine.index.build", "repro.engine.database:Database",
         "create_index"),
        ("engine.statistics.analyze", "repro.engine.database:Database",
         "analyze"),
        ("engine.executor.run", "repro.engine.database:Database",
         "run_plan"),
        ("virt.perf.elapsed", "repro.virt.perf:VMPerfModel", "elapsed"),
        ("optimizer.planner.plan", "repro.optimizer.planner:Planner",
         "plan_sql"),
        ("optimizer.whatif.estimate", "repro.optimizer.whatif:WhatIfOptimizer",
         "estimate_query"),
        ("calibration.cache.params",
         "repro.calibration.cache:CalibrationCache", "params_for"),
        ("surrogate.surface.params",
         "repro.surrogate.surface:ParameterSurface", "params_for"),
        ("calibration.runner.init",
         "repro.calibration.runner:CalibrationRunner", "__init__"),
        ("calibration.runner.calibrate",
         "repro.calibration.runner:CalibrationRunner", "calibrate"),
        ("calibration.solver.solve", "repro.calibration.runner",
         "solve_parameters"),
        ("core.search.search", "repro.core.search:SearchAlgorithm", "search"),
        ("surrogate.polish.fit", "repro.surrogate", "design_continuous"),
        ("surrogate.polish.warm", "repro.serve.service", "warm_start"),
        ("engine.catalog.ddl", "repro.engine.catalog:Catalog",
         "create_hypothetical_index"),
        ("engine.catalog.ddl", "repro.engine.catalog:Catalog", "drop_index"),
        ("codesign.designer.design",
         "repro.codesign.designer:CodesignDesigner", "design"),
        ("recovery.journal.append", "repro.recovery.journal:RunJournal",
         "append"),
        ("recovery.journal.open", "repro.recovery.journal:RunJournal",
         "open"),
        ("recovery.journal.open", "repro.recovery.journal:RunJournal",
         "create"),
        ("serve.service.batch", "repro.serve.service:DesignService",
         "process_batch"),
        ("serve.daemon.admit", "repro.serve.daemon:ServeDaemon",
         "try_admit"),
    ]
    targets = [(layer, _resolve(owner), attr) for layer, owner, attr in spec]
    for cls in _cost_model_classes():
        for attr in ("cost", "cost_many"):
            if attr in vars(cls):
                targets.append(("core.cost_model.cost", cls, attr))
    return targets


class Ledger:
    """Span stack, per-layer self seconds, and call counts."""

    def __init__(self):
        self.self_seconds: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        #: Folded span paths -> self seconds (the per-op trees, summed).
        self.paths: Dict[str, float] = defaultdict(float)
        #: Request id -> host seconds of the batch that answered it.
        self.batch_seconds_of: Dict[int, float] = {}
        self._stack: List[list] = []
        self._installed: List[Tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _enter(self, layer: str) -> list:
        parent = self._stack[-1] if self._stack else None
        path = f"{parent[2]};{layer}" if parent else layer
        frame = [layer, 0.0, path, parent[0] if parent else None]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list, elapsed: float) -> None:
        self._stack.pop()
        own = elapsed - frame[1]
        self.self_seconds[frame[0]] += own
        self.paths[frame[2]] += own
        self.calls[frame[0]] += 1
        if self._stack:
            self._stack[-1][1] += elapsed

    def op(self, fn: Callable, *args):
        """Run one benchmark op as a root span."""
        frame = self._enter(ROOT)
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self._exit(frame, time.perf_counter() - start)

    def _wrap(self, layer: str, fn: Callable) -> Callable:
        ledger = self
        after = _AFTER.get(fn.__name__)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = ledger._enter(layer)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                ledger._exit(frame, elapsed)
            if after is not None and frame[3] != layer:
                after(ledger, args, result, elapsed)
            return result
        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for layer, owner, attr in _targets():
            raw = vars(owner)[attr]
            if isinstance(raw, (classmethod, staticmethod)):
                patched = type(raw)(self._wrap(layer, raw.__func__))
            else:
                patched = self._wrap(layer, raw)
            self._installed.append((owner, attr, raw))
            setattr(owner, attr, patched)

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, raw = self._installed.pop()
            setattr(owner, attr, raw)

    # -- reading -----------------------------------------------------------

    def folded(self, top: int = 25) -> List[str]:
        ranked = sorted(self.paths.items(), key=lambda kv: -kv[1])[:top]
        return [f"{path} {seconds * 1e6:.0f}" for path, seconds in ranked]


# -- per-call counters (outermost span of a layer only) ----------------------


def _count_rows(ledger, args, rows, _elapsed):
    ledger.counts["engine.storage.rows"] += rows or 0


def _count_run(ledger, args, result, _elapsed):
    trace = result.trace
    ledger.counts["engine.executor.rows_out"] += len(result.rows)
    ledger.counts["engine.executor.cpu_units"] += trace.cpu_units
    ledger.counts["engine.bufferpool.hits"] += trace.buffer_hits
    ledger.counts["engine.bufferpool.page_reads"] += (
        trace.seq_page_reads + trace.random_page_reads)
    if any(frame[0] == "calibration.runner.calibrate"
           for frame in ledger._stack):
        ledger.counts["calibration.runner.executed_plans"] += 1


def _count_batch(ledger, args, outcome, _elapsed):
    ledger.counts["core.cost_model.batches"] += 1
    ledger.counts["core.cost_model.batch_pairs"] += len(outcome.costs)


def _count_append(ledger, args, record, _elapsed):
    ledger.counts["recovery.journal.bytes"] += len(record.to_line()) + 1


def _count_design(ledger, args, design, _elapsed):
    ledger.counts["codesign.designer.candidates_evaluated"] += (
        design.candidates_evaluated)


def _count_search(ledger, args, result, _elapsed):
    ledger.counts["core.search.evaluations"] += result.evaluations


def _count_process_batch(ledger, args, responses, elapsed):
    for request in args[1]:
        ledger.batch_seconds_of[id(request)] = elapsed
    ledger.counts["serve.service.requests"] += len(args[1])


_AFTER = {
    "load_rows": _count_rows,
    "run_plan": _count_run,
    "cost_many": _count_batch,
    "append": _count_append,
    "design": _count_design,
    "search": _count_search,
    "process_batch": _count_process_batch,
}


def registry_totals() -> Dict[str, float]:
    from repro.obs.metrics import get_registry

    registry = get_registry()
    return {name: registry.total(name) for name in REGISTRY_COUNTERS}


def _share(part: float, whole: float) -> float:
    return part / whole if whole > 0 else 0.0


def layer_metrics(ledger: Ledger, ops: int, wall: float,
                  before: Dict[str, float], after: Dict[str, float],
                  ) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics of one traced window: ``{name: (value, unit)}``.

    Seconds and counts are per op; shares are fractions.
    """
    delta = {name: after[name] - before[name] for name in before}
    per_op = 1.0 / max(1, ops)
    out: Dict[str, Tuple[float, str]] = {}
    for metric, layer in TIME_METRICS.items():
        out[metric] = (ledger.self_seconds.get(layer, 0.0) * per_op, "s/op")
    calls, counts = ledger.calls, ledger.counts
    build_layers = ("workloads.build", "calibration.synthetic.build",
                    "engine.storage.load", "engine.index.build",
                    "engine.statistics.analyze")
    estimates = delta["optimizer.whatif.estimates"]
    recosts = delta["optimizer.whatif.recosts"]
    hits = delta["optimizer.whatif.cache_hits"]
    evaluations = delta["cost_model.evaluations"]
    memo_hits = delta["cost_model.memo_hits"]
    lookups = (delta["calibration.cache.fresh"]
               + delta["calibration.cache.exact_hits"]
               + delta["calibration.cache.interpolated"])
    reuse = delta["calibration.trace_cache_hits"]
    executed = counts["calibration.runner.executed_plans"]
    page_reads = counts["engine.bufferpool.page_reads"]
    buffer_hits = counts["engine.bufferpool.hits"]
    counted = {
        "engine.storage.rows": (counts["engine.storage.rows"], "rows/op"),
        "build.calls": (sum(calls[layer] for layer in build_layers),
                        "calls/op"),
        "engine.executor.plans": (calls["engine.executor.run"], "plans/op"),
        "engine.executor.rows_out": (counts["engine.executor.rows_out"],
                                     "rows/op"),
        "engine.executor.cpu_units": (counts["engine.executor.cpu_units"],
                                      "units/op"),
        "engine.bufferpool.page_reads": (page_reads, "pages/op"),
        "optimizer.planner.plans": (calls["optimizer.planner.plan"],
                                    "plans/op"),
        "optimizer.whatif.estimates": (calls["optimizer.whatif.estimate"],
                                       "calls/op"),
        "core.cost_model.evaluations": (evaluations, "evals/op"),
        "calibration.runner.calibrations": (
            calls["calibration.runner.calibrate"], "calls/op"),
        "core.search.evaluations": (counts["core.search.evaluations"],
                                    "evals/op"),
        "engine.catalog.ddl_calls": (calls["engine.catalog.ddl"],
                                     "calls/op"),
        "codesign.designer.candidates_evaluated": (
            counts["codesign.designer.candidates_evaluated"], "count/op"),
        "recovery.journal.appends": (calls["recovery.journal.append"],
                                     "calls/op"),
        "recovery.journal.bytes": (counts["recovery.journal.bytes"],
                                   "bytes/op"),
        "serve.service.batches": (calls["serve.service.batch"],
                                  "batches/op"),
    }
    for name, (value, unit) in counted.items():
        out[name] = (value * per_op, unit)
    out.update({
        "engine.bufferpool.hit_share": (
            _share(buffer_hits, buffer_hits + page_reads), "fraction"),
        "optimizer.whatif.recost_share": (
            _share(recosts, recosts + estimates), "fraction"),
        "optimizer.whatif.cache_hit_share": (
            _share(hits, hits + recosts + estimates), "fraction"),
        "core.cost_model.memo_hit_share": (
            _share(memo_hits, memo_hits + evaluations), "fraction"),
        "core.cost_model.batch_size_mean": (
            _share(counts["core.cost_model.batch_pairs"],
                   counts["core.cost_model.batches"]), "pairs"),
        "calibration.cache.fresh_share": (
            _share(delta["calibration.cache.fresh"], lookups), "fraction"),
        "calibration.runner.trace_reuse_share": (
            _share(reuse, reuse + executed), "fraction"),
        "serve.service.batch_size_mean": (
            _share(counts["serve.service.requests"],
                   calls["serve.service.batch"]), "requests"),
        "unattributed_share": (
            _share(ledger.self_seconds.get(ROOT, 0.0), wall), "fraction"),
    })
    return out


def setup_metrics(ledger: Ledger, wall: float
                  ) -> Dict[str, Tuple[float, str]]:
    """Self seconds per layer over one traced set-up repetition."""
    out = {SETUP_PREFIX + metric: (ledger.self_seconds.get(layer, 0.0), "s")
           for metric, layer in TIME_METRICS.items()}
    out[SETUP_PREFIX + "unattributed_share"] = (
        _share(ledger.self_seconds.get(ROOT, 0.0), wall), "fraction")
    return out
