"""Span tracer for the end-to-end benchmark's ``--trace 1`` runs.

The tracer measures the repro layers from outside: it wraps a fixed list
of coarse public functions (one call per experiment, trace, replay,
simulator drain, cache entry or node job — never a per-access function)
and records one span per call: name, start, end, and the enclosing span.
Self time is a span's duration minus the time its traced children cover,
computed from a per-process span stack.

Wrapping rebinds every ``repro.*`` module attribute that holds the
original function, because modules import each other's functions by
value (``swap/executor.py`` holds its own ``replay_run``).  Methods are
rebound on their class.

Pool workers forked while the tracer is installed (the fleet sweep's
``ProcessPoolExecutor``) inherit the wrappers; each worker appends its
spans to ``<spill_dir>/spans-<pid>.jsonl`` whenever it returns to its
top level, and :meth:`Tracer.collect` merges those files.

Wall-clock reads are fine here: ``benchmarks/`` is outside the simulated
world and exempt from simlint's DET002.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from pathlib import Path

__all__ = ["EXPERIMENT_IDS", "LAYER_METRICS", "Tracer", "layer_metrics",
           "main_self_seconds", "write_chrome_trace"]

#: The per-layer metrics a traced run reports, with their units.  The
#: benchmark's ``BENCHMARK.json`` declares the same list.
LAYER_METRICS: dict[str, str] = {}

#: Experiment ids of ``run all``, in registry order.
EXPERIMENT_IDS = (
    "fig01b", "fig02b", "fig03", "fig04", "fig05", "fig08", "fig10_11",
    "fig12", "table06", "fig14", "table07", "fig15", "fig16", "fig17",
    "fig18", "fig19", "ablation", "cxl_study", "des_validation",
    "replay_validation", "tenant_scaling", "online_study", "tier_study",
    "failover_study", "phase_tuning", "fleet_study",
)

for _id in EXPERIMENT_IDS:
    LAYER_METRICS[f"experiments.{_id}.s"] = "s"
LAYER_METRICS.update({
    "workloads.synth.self_s": "s",
    "workloads.synth.calls": "count",
    "trace.fuse.self_s": "s",
    "mem.reuse_histogram.s": "s",
    "mem.reuse_histogram.calls": "count",
    "mem.lru.replay.s": "s",
    "mem.lru.replay.calls": "count",
    "mem.lru.replay.accesses": "count",
    "mem.lru.replay.ns_per_access": "ns",
    "swap.classify_trace.s": "s",
    "swap.classify_trace.calls": "count",
    "swap.classify_span.self_s": "s",
    "swap.classify_span.calls": "count",
    "swap.replay_run.self_s": "s",
    "swap.replay_run.calls": "count",
    "swap.replay_run_multi.self_s": "s",
    "swap.replay_run_multi.calls": "count",
    "swap.hybrid_run.self_s": "s",
    "swap.hybrid_run.calls": "count",
    "swap.engine.batch.calls": "count",
    "swap.engine.hybrid.calls": "count",
    "swap.engine.event.calls": "count",
    "simcore.run.event_loop.s": "s",
    "simcore.run.batch_admit.s": "s",
    "simcore.run.hybrid.s": "s",
    "simcore.run.other.s": "s",
    "cache.load.s": "s",
    "cache.load.calls": "count",
    "cache.store.s": "s",
    "cache.store.calls": "count",
    "cache.hits": "count",
    "cache.misses": "count",
    "cache.hit_ratio": "ratio",
    "cache.disk_mib": "MiB",
    "core.console.configure.s": "s",
    "core.console.configure.calls": "count",
    "core.console.max_offload_under_slo.s": "s",
    "core.console.max_offload_under_slo.calls": "count",
    "tune.select_config.s": "s",
    "tune.select_config.calls": "count",
    "tune.slo_bisection.s": "s",
    "tune.slo_bisection.calls": "count",
    "tune.validate_shortlist.s": "s",
    "tune.validate_shortlist.calls": "count",
    "cluster.plan_fleet.s": "s",
    "cluster.simulate_node.calls": "count",
    "cluster.simulate_node.busy_s": "s",
    "cluster.simulate_node.p50_ms": "ms",
    "cluster.simulate_node.p99_ms": "ms",
    "cluster.pool_overhead_s": "s",
    "cluster.worker_busy_imbalance": "ratio",
    "faults.monitor.check.calls": "count",
    "faults.failovers": "count",
    "setup.import_s": "s",
    "bench.tracing_overhead_frac": "ratio",
})

#: Spans whose direct children reveal which engine a dispatch took.
_DISPATCH = ("swap.executor.run", "swap.run_tenants")
_ENGINE_OF_CHILD = {
    "swap.replay_run": "batch",
    "swap.replay_run_multi": "batch",
    "swap.hybrid_run": "hybrid",
}
#: ``Simulator.run`` time is split by its nearest traced parent.
_SIM_PARENT = {
    "swap.executor.run": "event_loop",
    "swap.run_tenants": "event_loop",
    "swap.replay_run": "batch_admit",
    "swap.replay_run_multi": "batch_admit",
    "swap.hybrid_run": "hybrid",
}

#: (module, attribute path, span name) of every wrapped function.
_SPANS = (
    ("repro.trace.fusion", "fuse", "trace.fuse"),
    ("repro.mem.reuse", "reuse_histogram", "mem.reuse_histogram"),
    ("repro.swap.replay", "classify_trace", "swap.classify_trace"),
    ("repro.swap.replay", "classify_span", "swap.classify_span"),
    ("repro.swap.replay", "replay_run", "swap.replay_run"),
    ("repro.swap.replay", "replay_run_multi", "swap.replay_run_multi"),
    ("repro.swap.plan", "hybrid_run", "swap.hybrid_run"),
    ("repro.swap.executor", "run_tenants", "swap.run_tenants"),
    ("repro.swap.executor", "SwapExecutor.run", "swap.executor.run"),
    ("repro.simcore.engine", "Simulator.run", "simcore.run"),
    ("repro.core.console", "SmartConsole.configure", "core.console.configure"),
    ("repro.core.console", "SmartConsole.max_offload_under_slo",
     "core.console.max_offload_under_slo"),
    ("repro.tune.search", "select_config", "tune.select_config"),
    ("repro.tune.search", "slo_bisection", "tune.slo_bisection"),
    ("repro.tune.validate", "validate_shortlist", "tune.validate_shortlist"),
    ("repro.cluster.fleet", "plan_fleet", "cluster.plan_fleet"),
    ("repro.cluster.fleet", "simulate_node", "cluster.simulate_node"),
    ("repro.cluster.fleet", "run_fleet", "cluster.run_fleet"),
    ("repro.mem.lru", "ActiveInactiveLRU.replay", "mem.lru.replay"),
) + tuple(
    ("repro.cache", f"{op}_{kind}", f"cache.{op}")
    for op in ("load", "store")
    for kind in ("trace", "features", "replay", "tune_point", "fleet_node")
)

# span record fields
_NAME, _START, _END, _PARENT, _CHILD_S, _KIDS = range(6)


class Tracer:
    """In-memory span recorder for one benchmark pass process."""

    def __init__(self, spill_dir: str | os.PathLike) -> None:
        self.spill_dir = Path(spill_dir)
        self.main_pid = os.getpid()
        self.pid = self.main_pid
        self.spans: list[list] = []
        self.counters: dict[str, float] = {}
        self._stack: list[list] = []
        self._base = 0  # open spans inherited from a forking parent
        os.register_at_fork(after_in_child=self._after_fork)

    # -- recording -----------------------------------------------------------
    def _after_fork(self) -> None:
        self.pid = os.getpid()
        self.spans = []
        self.counters = {}
        self._base = len(self._stack)

    def count(self, name: str, n: float = 1) -> None:
        """Add ``n`` to the process-local counter ``name``."""
        self.counters[name] = self.counters.get(name, 0) + n

    def _begin(self, name: str) -> list:
        parent = self._stack[-1][_NAME] if self._stack else None
        rec = [name, time.perf_counter(), 0.0, parent, 0.0, set()]
        self._stack.append(rec)
        return rec

    def _end(self, rec: list) -> None:
        rec[_END] = time.perf_counter()
        self._stack.pop()
        duration = rec[_END] - rec[_START]
        name = rec[_NAME]
        if self._stack:
            parent = self._stack[-1]
            parent[_CHILD_S] += duration
            parent[_KIDS].add(name)
        if name in _DISPATCH:
            kids = rec[_KIDS]
            if "swap.executor.run" not in kids:  # a 1-tenant run_tenants delegates
                engine = next((_ENGINE_OF_CHILD[k] for k in kids if k in _ENGINE_OF_CHILD),
                              "event")
                self.count(f"swap.engine.{engine}.calls")
        elif name == "simcore.run" and rec[_PARENT] != "simcore.run":
            self.count(f"simcore.run.{_SIM_PARENT.get(rec[_PARENT], 'other')}.s", duration)
        self.spans.append(rec)
        if self.pid != self.main_pid and len(self._stack) == self._base:
            self._spill()

    def _spill(self) -> None:
        path = self.spill_dir / f"spans-{self.pid}.jsonl"
        with open(path, "a") as fh:
            for rec in self.spans:
                fh.write(json.dumps([self.pid] + rec[:_KIDS]) + "\n")
            fh.write(json.dumps({"pid": self.pid, "counters": self.counters}) + "\n")
        self.spans = []
        self.counters = {}

    def wrap(self, name: str, fn, on_result=None):
        """``fn`` recording one span per call; ``on_result(args, result)``
        runs after the span closes."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = tracer._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._end(rec)
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    # -- installation ----------------------------------------------------------
    def install(self) -> list[str]:
        """Wrap every traced function; returns the targets not found."""
        targets = [(module, attr, lambda fn, name=name: self.wrap(name, fn, self._observer(name)))
                   for module, attr, name in _SPANS]
        targets += [
            ("repro.faults.monitor", "HealthMonitor.check",
             self._counted("faults.monitor.check.calls")),
            ("repro.workloads.base", "Workload.trace", self._synth),
        ]
        missing = [f"{module}.{attr}" for module, attr, make in targets
                   if not _patch(module, attr, make)]
        experiments = importlib.import_module("repro.experiments.runner").EXPERIMENTS
        for exp_id, fn in list(experiments.items()):
            experiments[exp_id] = self.wrap(f"experiments.{exp_id}", fn)
        return missing

    def _observer(self, name: str):
        """Counters read off a traced call's arguments or result."""
        if name == "swap.executor.run":
            return lambda _args, res: self.count("faults.failovers", res.failovers)
        if name == "swap.run_tenants":
            # one tenant delegates to SwapExecutor.run, which counts itself
            return lambda _args, res: self.count(
                "faults.failovers", sum(r.failovers for r in res) if len(res) > 1 else 0)
        if name == "mem.lru.replay":
            return lambda args, _res: self.count("mem.lru.replay.accesses", len(args[1]))
        if name == "cache.load":
            return lambda _args, res: self.count("cache.misses" if res is None else "cache.hits")
        return None

    def _counted(self, name: str):
        def factory(fn):
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                self.count(name)
                return fn(*args, **kwargs)
            return counted
        return factory

    def _synth(self, fn):
        """``Workload.trace`` spans, skipping in-process memo hits."""
        traced = self.wrap("workloads.synth", fn)

        @functools.wraps(fn)
        def trace(workload, scale=1.0, seed=None):
            if (scale, seed) in getattr(workload, "_trace_cache", {}):
                return fn(workload, scale, seed)
            return traced(workload, scale, seed)

        return trace

    # -- merging -----------------------------------------------------------------
    def collect(self) -> tuple[list[list], dict[str, float]]:
        """Every span and counter of this process and its spilled workers.

        Span rows are ``[pid, name, start, end, parent, child_s]``.
        """
        rows = [[self.pid] + rec[:_KIDS] for rec in self.spans]
        counters = dict(self.counters)
        for path in sorted(self.spill_dir.glob("spans-*.jsonl")):
            with open(path) as fh:
                for line in fh:
                    item = json.loads(line)
                    if isinstance(item, dict):
                        for k, v in item["counters"].items():
                            counters[k] = counters.get(k, 0) + v
                    else:
                        rows.append(item)
        return rows, counters


def _patch(module: str, attr: str, make) -> bool:
    """Replace ``module.attr`` (``Class.method`` allowed) by ``make(orig)``
    everywhere a loaded ``repro`` module holds the original."""
    try:
        mod = importlib.import_module(module)
    except ImportError:
        return False
    owner_name, _, name = attr.rpartition(".")
    owner = getattr(mod, owner_name, None) if owner_name else mod
    orig = getattr(owner, name, None) if owner is not None else None
    if orig is None:
        return False
    wrapped = make(orig)
    if owner_name:
        setattr(owner, name, wrapped)
        return True
    for loaded in list(sys.modules.values()):
        if getattr(loaded, "__name__", "").startswith("repro"):
            for key, value in list(vars(loaded).items()):
                if value is orig:
                    setattr(loaded, key, wrapped)
    return True


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (0 when empty)."""
    if not sorted_values:
        return 0.0
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def layer_metrics(rows: list[list], counters: dict[str, float]) -> dict[str, float]:
    """Reduce spans and counters to :data:`LAYER_METRICS` (zero where a
    layer did not run).  ``setup.import_s``, ``cache.disk_mib`` and
    ``bench.tracing_overhead_frac`` are measured by the caller."""
    out = {name: 0.0 for name in LAYER_METRICS}
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    node_busy: dict[int, float] = {}
    node_ms: list[float] = []
    for pid, name, start, end, _parent, child_s in rows:
        duration = end - start
        total[name] = total.get(name, 0.0) + duration
        self_s[name] = self_s.get(name, 0.0) + duration - child_s
        calls[name] = calls.get(name, 0) + 1
        if name == "cluster.simulate_node":
            node_busy[pid] = node_busy.get(pid, 0.0) + duration
            node_ms.append(duration * 1e3)
    for key in out:
        head, _, stat = key.rpartition(".")
        if stat == "s" and head in total:
            out[key] = total[head]
        elif stat == "self_s" and head in self_s:
            out[key] = self_s[head]
        elif stat == "calls" and head in calls:
            out[key] = calls[head]
        if key in counters:
            out[key] = counters[key]
    accesses = out["mem.lru.replay.accesses"]
    if accesses:
        out["mem.lru.replay.ns_per_access"] = out["mem.lru.replay.s"] / accesses * 1e9
    lookups = out["cache.hits"] + out["cache.misses"]
    if lookups:
        out["cache.hit_ratio"] = out["cache.hits"] / lookups
    node_ms.sort()
    busy = sum(node_busy.values())
    out["cluster.simulate_node.busy_s"] = busy
    out["cluster.simulate_node.p50_ms"] = _percentile(node_ms, 50)
    out["cluster.simulate_node.p99_ms"] = _percentile(node_ms, 99)
    if "cluster.run_fleet" in total:
        workers = max(1, len(node_busy))
        out["cluster.pool_overhead_s"] = (
            total["cluster.run_fleet"] - total.get("cluster.plan_fleet", 0.0) - busy / workers
        )
        if len(node_busy) > 1:
            out["cluster.worker_busy_imbalance"] = (
                max(node_busy.values()) / (busy / len(node_busy)) - 1.0
            )
    return out


def main_self_seconds(rows: list[list], main_pid: int) -> float:
    """Summed self time of the spans recorded by ``main_pid``."""
    return sum(end - start - child_s
               for pid, _n, start, end, _p, child_s in rows if pid == main_pid)


def write_chrome_trace(rows: list[list], path: str | os.PathLike) -> None:
    """Write spans as Chrome trace-event JSON (opens in Perfetto)."""
    origin = min((r[2] for r in rows), default=0.0)
    events = [
        {"name": name, "cat": name.split(".", 1)[0], "ph": "X",
         "ts": (start - origin) * 1e6, "dur": (end - start) * 1e6,
         "pid": pid, "tid": pid, "args": {"parent": parent}}
        for pid, name, start, end, parent, _child_s in rows
    ]
    with open(path, "w") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
