"""Perf-smoke: reuse-kernel, batched-replay, tuner, lint and fleet suites.

Suites, selected with ``--suite``:

``reuse`` (default)
    Reuse-distance kernel throughput, vector vs Fenwick reference.  Whole
    ``run all`` timings live in the end-to-end benchmark
    (``benchmarks/e2e``).  Writes ``BENCH_reuse.json``.

``replay``
    Batched fault-replay engine vs the per-access event executor, end to
    end through the swap stack (LRU + frontend + backend + device) at
    1 M accesses.  The headline is the fault-heavy uniform workload —
    the regime the event loop chokes on and batching exists for — with a
    skewed zipf line alongside, plus the ``injected`` row (see below).
    Writes ``BENCH_replay.json`` and verifies the engines agree on every
    counter while timing them.  ``--check`` re-runs the suite and fails
    (exit 1) if batch/hybrid throughput regressed more than 25 % against
    the checked-in baseline instead of overwriting it — the CI guard for
    the replay fast path.

``injected``
    The segmented hybrid planner vs the per-access event executor on the
    uniform workload under a sparse fault plan (three absolute-time
    windows — latency, transient, bandwidth — covering a few percent of
    the simulated span).  Eligibility routes the ``batch``-mode run
    through :func:`repro.swap.plan.hybrid_run`; counters (fault trio
    included) and ``stall_time`` must match the event reference exactly.
    Rows land in ``BENCH_replay.json`` next to the clean rows so the
    ``replay`` suite of the ``perf-gates`` CI job guards them too;
    ``--suite replay`` also regenerates them.  ``--suite injected``
    alone refreshes just the injected rows, merging into the existing
    report.

``replay-mt``
    Contended multi-tenant replay: ``--tenants`` cold tenants (default 4)
    share one NVMe device and replay 1 M total accesses, fluid fair-share
    batch engine vs the concurrent per-access event loops.  Per-tenant
    counters must match bit for bit; the report records the max per-tenant
    ``sim_time`` relative error alongside the throughput numbers.  Writes
    ``BENCH_replay_mt.json``; ``--check`` guards it like ``replay``.

``lint``
    Wall time of a full-tree simlint run (``src`` + ``tests`` +
    ``benchmarks`` + ``examples``) with every pass enabled, including the
    project-wide dataflow passes (dims / coro / parity).  Writes
    ``BENCH_lint.json``.  ``--check`` fails (exit 1) if the run exceeds
    :data:`LINT_BUDGET_SECONDS` — the lint must stay cheap enough to sit
    in every CI pipeline and pre-commit hook.

``cluster``
    The fleet-scale sweep: a 1000-node fleet (two utilization epochs)
    whose MBE lease match drives per-node replay jobs through a process
    pool, cold then warm against the artifact cache, which holds the
    whole sweep as one entry.  Writes ``BENCH_cluster.json`` with
    node-job throughput, the warm sweep's cache lookups (one per sweep)
    and hit rate, and the sweep's deterministic counter totals.
    ``--check`` fails (exit 1) if cold throughput regressed more than
    25 % against the checked-in baseline, the warm hit rate falls below
    :data:`CLUSTER_WARM_HIT_FLOOR`, warm results drift from cold ones,
    or the seeded counter totals differ from the baseline's.

``tune``
    The cost-model-driven tuner vs the exhaustive grid reference on the
    decision layer: every (workload, backend) console configuration and
    (workload, backend, SLO) offload search runs under both
    ``REPRO_TUNE`` modes, plus the Fig 19 MBE threshold search on an
    Alibaba-like trace.  The two modes must choose identical
    configurations (verified while timing — a divergence aborts the
    bench); the report records both ledgers and wall times.  Writes
    ``BENCH_tune.json``.  ``--check`` fails (exit 1) unless the tuner's
    simulated-run reduction clears :data:`TUNE_REDUCTION_FLOOR`, its wall
    time beats the grid's (same-machine relative numbers), and the
    deterministic run counts match the checked-in baseline exactly.

Every ``BENCH_*.json`` report shares one header convention: ``schema``
(:data:`BENCH_SCHEMA`, bumped when a report layout changes), ``suite``,
and ``generated`` (date).  ``--check`` refuses to compare against a
baseline whose ``schema``/``suite`` don't match — a stale baseline fails
loudly (exit 2) instead of silently gating CI on numbers from an old
layout.

The checked-in copies record the reference container's numbers so the
bench trajectory is visible in review; CI regenerates them on every push
as job artifacts.

Run from the repo root::

    PYTHONPATH=src python benchmarks/perf_smoke.py --out BENCH_reuse.json
    PYTHONPATH=src python benchmarks/perf_smoke.py --suite replay
    PYTHONPATH=src python benchmarks/perf_smoke.py --suite replay --check
    PYTHONPATH=src python benchmarks/perf_smoke.py --suite replay-mt --check

Wall-clock reads are fine here: ``benchmarks/`` is outside the simulated
world and exempt from simlint's DET002.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from repro.mem.reuse import _reuse_distances_fenwick, _warm_distances_vector

#: --check fails when batch accesses/s drops below (1 - this) x baseline.
REGRESSION_TOLERANCE = 0.25

#: Hard wall-clock ceiling for one full-tree lint run (``--suite lint``).
LINT_BUDGET_SECONDS = 10.0

#: --check fails when the tuner's simulated-run reduction over the grid
#: reference drops below this on the decision suite (the PR's ≥10× claim).
TUNE_REDUCTION_FLOOR = 10.0

#: --check fails when the cluster suite's warm sweep serves fewer than
#: this fraction of its cache lookups from the cache.  A sweep is one
#: entry, so this is one lookup per sweep, not one per node job: any
#: miss fails.
CLUSTER_WARM_HIT_FLOOR = 0.9

#: Report-layout version shared by every BENCH_*.json file.  Bump whenever
#: any suite's report shape changes; ``--check`` then rejects the old
#: baselines until they are regenerated, instead of comparing silently.
BENCH_SCHEMA = 2

#: Counters both engines must agree on, bit for bit.
_COUNTERS = ("accesses", "hits", "faults", "cold_allocations", "swap_ins",
             "swap_outs", "clean_drops", "file_skips")

#: The replay suite's workloads.  ``uniform`` is the headline: ~50 % miss
#: ratio keeps the event loop saturated with per-fault DES work.
_REPLAY_CASES = {
    "uniform": {"distribution": "uniform", "distinct_pages": 100_000,
                "local_pages": 50_000, "store_ratio": 0.3, "seed": 42},
    "zipf": {"distribution": "zipf", "alpha": 1.1, "distinct_pages": 100_000,
             "local_pages": 25_000, "store_ratio": 0.3, "seed": 42},
}

#: The injected row: the uniform headline workload re-run under a sparse
#: fault plan.  ``fault_seed`` seeds the plan's transient-draw RNG.
_INJECTED_CASES = {
    "injected": {"distribution": "uniform", "distinct_pages": 100_000,
                 "local_pages": 50_000, "store_ratio": 0.3, "seed": 42,
                 "fault_seed": 7},
}

#: Injected runs must also agree on the fault-path counters.
_INJECTED_COUNTERS = _COUNTERS + ("transient_retries", "failovers")

#: The replay-mt suite's workloads: per-tenant trace parameters; each of
#: the N tenants gets its own seed so co-tenants don't walk in lockstep.
#: Footprints are per tenant (tenants contend for the device, not pages).
_REPLAY_MT_CASES = {
    "uniform": {"distribution": "uniform", "distinct_pages": 50_000,
                "local_pages": 25_000, "store_ratio": 0.3, "seed": 42},
    "zipf": {"distribution": "zipf", "alpha": 1.1, "distinct_pages": 50_000,
             "local_pages": 12_500, "store_ratio": 0.3, "seed": 42},
}


def _report_meta(suite: str) -> dict:
    """The shared BENCH_*.json header: schema version, suite, date."""
    return {"schema": BENCH_SCHEMA, "suite": suite,
            "generated": time.strftime("%Y-%m-%d")}


def load_baseline(path: str, suite: str) -> dict | None:
    """Load a checked-in baseline, refusing stale or mismatched files."""
    try:
        with open(path) as fh:
            baseline = json.load(fh)
    except FileNotFoundError:
        print(f"no baseline at {path}; run without --check first",
              file=sys.stderr)
        return None
    got_schema, got_suite = baseline.get("schema"), baseline.get("suite")
    if got_schema != BENCH_SCHEMA or got_suite != suite:
        print(
            f"stale baseline {path}: schema={got_schema!r} suite={got_suite!r} "
            f"(expected schema={BENCH_SCHEMA} suite={suite!r}); regenerate "
            f"with 'PYTHONPATH=src python benchmarks/perf_smoke.py "
            f"--suite {suite}'",
            file=sys.stderr,
        )
        return None
    return baseline


def bench_kernel(kernel, pages: np.ndarray, repeats: int) -> dict:
    best = min(_timed(kernel, pages) for _ in range(repeats))
    return {
        "n_accesses": int(pages.size),
        "seconds": round(best, 4),
        "accesses_per_s": int(pages.size / best),
    }


def _timed(kernel, pages: np.ndarray) -> float:
    t0 = time.perf_counter()
    kernel(pages)
    return time.perf_counter() - t0


# -- replay suite ------------------------------------------------------------

def _replay_trace(case: dict, n: int):
    from repro.mem.page import PageOp
    from repro.trace.schema import make_trace

    rng = np.random.default_rng(case["seed"])
    if case["distribution"] == "uniform":
        pages = rng.integers(0, case["distinct_pages"], size=n)
    else:
        pages = (rng.zipf(case["alpha"], size=n) - 1) % case["distinct_pages"]
    ops = np.where(rng.random(n) < case["store_ratio"],
                   int(PageOp.STORE), int(PageOp.LOAD))
    return make_trace(pages, ops=ops)


def _run_swap_stack(trace, local_pages: int, mode: str):
    from repro.devices import BackendKind, NVMeSSD
    from repro.simcore import Simulator
    from repro.swap.executor import SwapExecutor

    os.environ["REPRO_REPLAY"] = mode
    sim = Simulator()
    executor = SwapExecutor(sim, NVMeSSD(sim), BackendKind.SSD,
                            local_pages=local_pages)
    t0 = time.perf_counter()
    result = executor.run(trace)
    return time.perf_counter() - t0, result


def bench_replay(accesses: int, repeats: int) -> dict:
    """Batch vs event throughput per workload, with counter verification."""
    # the classification cache would let warm repeats skip the engine
    # under measurement; disable it for the duration
    os.environ["REPRO_CACHE"] = "0"
    workloads = {}
    for name, case in _REPLAY_CASES.items():
        trace = _replay_trace(case, accesses)
        batch_best = None
        batch_res = None
        for _ in range(repeats):
            seconds, result = _run_swap_stack(trace, case["local_pages"], "batch")
            if batch_best is None or seconds < batch_best:
                batch_best = seconds
            batch_res = result
        # best-of-1 for the slow event reference; it has no warm-up effects
        event_seconds, event_res = _run_swap_stack(trace, case["local_pages"], "event")
        mismatched = [c for c in _COUNTERS
                      if getattr(batch_res, c) != getattr(event_res, c)]
        if mismatched:
            raise AssertionError(
                f"{name}: batch/event counter mismatch on {', '.join(mismatched)}"
            )
        workloads[name] = {
            **case,
            "accesses": accesses,
            "batch": {"seconds": round(batch_best, 4),
                      "accesses_per_s": int(accesses / batch_best)},
            "event": {"seconds": round(event_seconds, 4),
                      "accesses_per_s": int(accesses / event_seconds)},
            "speedup": round(event_seconds / batch_best, 1),
            "counters_identical": True,
            "faults": event_res.faults,
            "swap_outs": event_res.swap_outs,
        }
    return {
        **_report_meta("replay"),
        "headline": "uniform",
        "workloads": workloads,
    }


def _injected_windows(trace, local_pages: int):
    """Sparse fault windows derived from a clean batch run's span.

    Window times are absolute simulated seconds and module start-up
    costs advance the clock before the first access, so the windows are
    placed at fractions of the measured clean span ``[t0, t0 + T]``.
    Total in-window time is ~1.8 % of the span — the sparse-fault regime
    the hybrid planner exists for.
    """
    from repro.devices import BackendKind, NVMeSSD
    from repro.faults import BandwidthFault, LatencyFault, TransientFault
    from repro.simcore import Simulator
    from repro.swap.executor import SwapExecutor

    os.environ["REPRO_REPLAY"] = "batch"
    sim = Simulator()
    executor = SwapExecutor(sim, NVMeSSD(sim), BackendKind.SSD,
                            local_pages=local_pages)
    t0 = sim.now
    span = executor.run(trace).sim_time
    windows = [
        LatencyFault(start=t0 + 0.25 * span, duration=0.006 * span,
                     factor=8.0),
        TransientFault(start=t0 + 0.50 * span, duration=0.006 * span,
                       error_rate=0.2),
        BandwidthFault(start=t0 + 0.75 * span, duration=0.006 * span,
                       fraction=0.5),
    ]
    return windows, round(3 * 0.006, 4)


def _run_injected_stack(trace, local_pages: int, mode: str, windows,
                        fault_seed: int):
    from repro.devices import BackendKind, NVMeSSD
    from repro.faults import FaultPlan, FaultyDevice
    from repro.simcore import Simulator
    from repro.swap.executor import SwapExecutor

    os.environ["REPRO_REPLAY"] = mode
    sim = Simulator()
    # fresh FaultPlan per run: its seeded transient-draw RNG is stateful,
    # and a shared instance would hand later runs a depleted stream
    device = FaultyDevice(NVMeSSD(sim), FaultPlan(list(windows),
                                                  seed=fault_seed))
    executor = SwapExecutor(sim, device, BackendKind.SSD,
                            local_pages=local_pages)
    t0 = time.perf_counter()
    result = executor.run(trace)
    return time.perf_counter() - t0, result, executor.execution_plan


def bench_injected(accesses: int, repeats: int) -> dict:
    """Hybrid-planner vs event rows for the faulted uniform workload."""
    os.environ["REPRO_CACHE"] = "0"
    rows = {}
    for name, case in _INJECTED_CASES.items():
        trace = _replay_trace(case, accesses)
        windows, window_fraction = _injected_windows(trace,
                                                     case["local_pages"])
        hybrid_best = None
        hybrid_res = None
        plan = None
        for _ in range(repeats):
            seconds, result, ep = _run_injected_stack(
                trace, case["local_pages"], "batch", windows,
                case["fault_seed"])
            if hybrid_best is None or seconds < hybrid_best:
                hybrid_best = seconds
            hybrid_res, plan = result, ep
        if plan is None:
            raise AssertionError(
                f"{name}: injected run fell back to the event engine "
                "(no execution plan recorded)")
        # best-of-1 for the slow event reference; it has no warm-up effects
        event_seconds, event_res, _ = _run_injected_stack(
            trace, case["local_pages"], "event", windows, case["fault_seed"])
        mismatched = [c for c in _INJECTED_COUNTERS
                      if getattr(hybrid_res, c) != getattr(event_res, c)]
        # stall_time is a simulated-time quantity, not an integer counter:
        # graceful-degradation waits are `recovery - sim.now`, so it drifts
        # with the clock at the sim_time tolerance, not bit-exactly
        if event_res.stall_time > 0 and abs(
                hybrid_res.stall_time - event_res.stall_time
        ) > 1e-9 * event_res.stall_time:
            mismatched.append("stall_time")
        if mismatched:
            raise AssertionError(
                f"{name}: hybrid/event counter mismatch on "
                f"{', '.join(mismatched)}"
            )
        rows[name] = {
            **case,
            "accesses": accesses,
            "fault_windows": len(windows),
            "window_time_fraction": window_fraction,
            "segments": plan.n_segments,
            "event_time_fraction": round(plan.event_time_fraction, 4),
            "hybrid": {"seconds": round(hybrid_best, 4),
                       "accesses_per_s": int(accesses / hybrid_best)},
            "event": {"seconds": round(event_seconds, 4),
                      "accesses_per_s": int(accesses / event_seconds)},
            "speedup": round(event_seconds / hybrid_best, 1),
            "counters_identical": True,
            "faults": event_res.faults,
            "transient_retries": event_res.transient_retries,
        }
    return rows


def _run_mt_stack(traces, local_pages: int, mode: str):
    from repro.devices import BackendKind, NVMeSSD
    from repro.simcore import Simulator
    from repro.swap.executor import make_contended_executors, run_tenants

    os.environ["REPRO_REPLAY"] = mode
    sim = Simulator()
    device = NVMeSSD(sim)
    executors = make_contended_executors(sim, device, BackendKind.SSD,
                                         len(traces), local_pages=local_pages)
    t0 = time.perf_counter()
    results = run_tenants(executors, traces)
    return time.perf_counter() - t0, results


def bench_replay_mt(total_accesses: int, tenants: int, repeats: int) -> dict:
    """Contended fluid replay vs concurrent event loops, N tenants on one
    shared device, with per-tenant counter verification."""
    os.environ["REPRO_CACHE"] = "0"
    per_tenant = total_accesses // tenants
    workloads = {}
    for name, case in _REPLAY_MT_CASES.items():
        traces = [_replay_trace({**case, "seed": case["seed"] + i}, per_tenant)
                  for i in range(tenants)]
        batch_best = None
        batch_res = None
        for _ in range(repeats):
            seconds, results = _run_mt_stack(traces, case["local_pages"], "batch")
            if batch_best is None or seconds < batch_best:
                batch_best = seconds
            batch_res = results
        # best-of-1 for the slow event reference; it has no warm-up effects
        event_seconds, event_res = _run_mt_stack(traces, case["local_pages"],
                                                 "event")
        max_rel = 0.0
        for i in range(tenants):
            mismatched = [c for c in _COUNTERS
                          if getattr(batch_res[i], c) != getattr(event_res[i], c)]
            if mismatched:
                raise AssertionError(
                    f"{name}: tenant {i} batch/event counter mismatch on "
                    f"{', '.join(mismatched)}"
                )
            if event_res[i].sim_time > 0:
                max_rel = max(max_rel, abs(batch_res[i].sim_time
                                           - event_res[i].sim_time)
                              / event_res[i].sim_time)
        total = per_tenant * tenants
        workloads[name] = {
            **case,
            "tenants": tenants,
            "accesses_per_tenant": per_tenant,
            "accesses_total": total,
            "batch": {"seconds": round(batch_best, 4),
                      "accesses_per_s": int(total / batch_best)},
            "event": {"seconds": round(event_seconds, 4),
                      "accesses_per_s": int(total / event_seconds)},
            "speedup": round(event_seconds / batch_best, 1),
            "counters_identical": True,
            "max_sim_time_rel_err": float(f"{max_rel:.3e}"),
            "faults": sum(r.faults for r in event_res),
            "swap_outs": sum(r.swap_outs for r in event_res),
        }
    return {
        **_report_meta("replay-mt"),
        "headline": "uniform",
        "workloads": workloads,
    }


# -- tune suite --------------------------------------------------------------

#: Decision-layer cases: a swap-friendly / swap-sensitive mix spanning
#: serial and parallel fault paths, on the two main backends.
_TUNE_WORKLOADS = ("lg-bfs", "bert", "sort", "kmeans")
_TUNE_BACKENDS = ("rdma", "ssd")
_TUNE_SLOS = (1.2, 1.8)
_TUNE_SCALE = 0.25


def _tune_decisions(mode: str, scale: float):
    """Every console decision of the suite under one REPRO_TUNE mode.

    Returns (decisions, ledger snapshot, wall seconds).  Features and
    compute times are resolved before the timer starts so the comparison
    times only the decision layer.
    """
    from repro.core.console import SmartConsole
    from repro.devices.registry import BackendKind, make_device
    from repro.simcore import Simulator
    from repro.tune.search import TUNE_ENV
    from repro.workloads import TABLE_V

    inputs = []
    for wname in _TUNE_WORKLOADS:
        w = TABLE_V[wname]
        f = w.features(scale)
        compute = w.compute_time(scale)
        par = w.spec.fault_parallelism
        for bname in _TUNE_BACKENDS:
            device = make_device(Simulator(), BackendKind(bname))
            inputs.append((wname, bname, f, compute, par, device))

    os.environ[TUNE_ENV] = mode
    console = SmartConsole()
    decisions = []
    t0 = time.perf_counter()
    for wname, bname, f, compute, par, device in inputs:
        decisions.append((wname, bname, "configure",
                          console.configure(f, device, fault_parallelism=par)))
        for slo in _TUNE_SLOS:
            decisions.append((wname, bname, slo,
                              console.max_offload_under_slo(
                                  f, device, compute, slo,
                                  fault_parallelism=par)))
    seconds = time.perf_counter() - t0
    return decisions, console.stats.snapshot(), seconds


def _tune_mbe(mode: str):
    """The Fig 19 MBE threshold search under one REPRO_TUNE mode."""
    from repro.cluster import alibaba_like_trace, mbe_improvement_grid
    from repro.cluster.mbe import best_thresholds, mbe_cell, tuned_thresholds

    thresholds = np.round(np.linspace(0.1, 0.9, 17), 3)
    trace = alibaba_like_trace(2018, n_machines=800, n_snapshots=8, seed=0)
    u = trace.utilization
    n_cells = sum(1 for a in thresholds for b in thresholds if b >= a)
    t0 = time.perf_counter()
    if mode == "grid":
        # the exhaustive reference prices the upper triangle twice: once
        # for the contour surface, once inside best_thresholds
        mbe_improvement_grid(u, thresholds, thresholds)
        a, b, peak = best_thresholds(u, thresholds, thresholds)
        evals = 2 * n_cells
    else:
        diag = [mbe_cell(u, float(t), float(t)) for t in thresholds]
        a, b, peak, climb = tuned_thresholds(u, thresholds, thresholds,
                                             diagonal=diag)
        evals = len(diag) + climb
    seconds = time.perf_counter() - t0
    return (a, b, peak), evals, seconds


def bench_tune(repeats: int) -> dict:
    """Tuner vs grid on the decision layer, identical-choice verified."""
    grid_dec = tuner_dec = None
    grid_stats = tuner_stats = None
    grid_best = tuner_best = None
    for _ in range(repeats):
        dec, stats, seconds = _tune_decisions("grid", _TUNE_SCALE)
        if grid_best is None or seconds < grid_best:
            grid_best = seconds
        grid_dec, grid_stats = dec, stats
        dec, stats, seconds = _tune_decisions("model", _TUNE_SCALE)
        if tuner_best is None or seconds < tuner_best:
            tuner_best = seconds
        tuner_dec, tuner_stats = dec, stats
    diverged = [
        (w, b, tag) for (w, b, tag, got), (_, _, _, want)
        in zip(tuner_dec, grid_dec) if got != want
    ]
    if diverged:
        raise AssertionError(f"tuner/grid decision divergence on: {diverged}")

    grid_peak, grid_cells, grid_mbe_s = _tune_mbe("grid")
    tuner_peak, tuner_cells, tuner_mbe_s = _tune_mbe("model")
    if tuner_peak != grid_peak:
        raise AssertionError(
            f"tuner/grid MBE peak divergence: {tuner_peak} != {grid_peak}"
        )

    return {
        **_report_meta("tune"),
        "reduction_floor": TUNE_REDUCTION_FLOOR,
        "decisions": {
            "workloads": list(_TUNE_WORKLOADS),
            "backends": list(_TUNE_BACKENDS),
            "slos": list(_TUNE_SLOS),
            "scale": _TUNE_SCALE,
            "n_decisions": len(tuner_dec),
            "configs_identical": True,
            "grid": {"runs": grid_stats["runs"],
                     "scalar_runs": grid_stats["scalar_runs"],
                     "seconds": round(grid_best, 4)},
            "tuner": {"runs": tuner_stats["runs"],
                      "batches": tuner_stats["batches"],
                      "model_points": tuner_stats["model_points"],
                      "seconds": round(tuner_best, 4)},
            "grid_runs": tuner_stats["grid_runs"],
            "reduction": round(tuner_stats["grid_runs"]
                               / max(1, tuner_stats["runs"]), 1),
        },
        "mbe": {
            "peaks_identical": True,
            "grid": {"cells": grid_cells, "seconds": round(grid_mbe_s, 4)},
            "tuner": {"cells": tuner_cells, "seconds": round(tuner_mbe_s, 4)},
            "reduction": round(grid_cells / max(1, tuner_cells), 1),
        },
    }


def check_tune(report: dict, baseline_path: str) -> int:
    """Gate the tuner's reduction, wall win, and deterministic counts."""
    baseline = load_baseline(baseline_path, "tune")
    if baseline is None:
        return 2
    failures = []
    dec, mbe = report["decisions"], report["mbe"]
    print(f"decisions: {dec['n_decisions']} decisions, tuner {dec['tuner']['runs']} "
          f"runs vs grid reference {dec['grid_runs']} "
          f"({dec['reduction']}x), wall {dec['tuner']['seconds']}s vs "
          f"{dec['grid']['seconds']}s")
    print(f"mbe: tuner {mbe['tuner']['cells']} cells vs grid "
          f"{mbe['grid']['cells']} ({mbe['reduction']}x), wall "
          f"{mbe['tuner']['seconds']}s vs {mbe['grid']['seconds']}s")
    if dec["reduction"] < TUNE_REDUCTION_FLOOR:
        failures.append(
            f"decision reduction {dec['reduction']}x below the "
            f"{TUNE_REDUCTION_FLOOR}x floor"
        )
    if dec["tuner"]["seconds"] > dec["grid"]["seconds"]:
        failures.append(
            f"tuner wall {dec['tuner']['seconds']}s exceeds grid "
            f"{dec['grid']['seconds']}s"
        )
    # run counts are deterministic: any drift vs the checked-in baseline
    # means the search visited different points and needs review
    base_dec = baseline["decisions"]
    for side, key in (("tuner", "runs"), ("tuner", "batches"),
                      ("grid", "runs")):
        got, want = dec[side][key], base_dec[side][key]
        if got != want:
            failures.append(f"decisions.{side}.{key} {got} != baseline {want}")
    if dec["grid_runs"] != base_dec["grid_runs"]:
        failures.append(f"decisions.grid_runs {dec['grid_runs']} != "
                        f"baseline {base_dec['grid_runs']}")
    for side in ("tuner", "grid"):
        got = mbe[side]["cells"]
        want = baseline["mbe"][side]["cells"]
        if got != want:
            failures.append(f"mbe.{side}.cells {got} != baseline {want}")
    if failures:
        for f in failures:
            print(f"FAIL: {f}", file=sys.stderr)
        return 1
    print("tune gates ok")
    return 0


# -- cluster suite -------------------------------------------------------------

#: the acceptance-scale sweep: 1000 nodes, two lease epochs
_CLUSTER_NODES = 1000
_CLUSTER_EPOCHS = 2
_CLUSTER_SEED = 11


def bench_cluster(jobs: int) -> dict:
    """Cold/warm fleet sweep at 1k nodes: throughput, hit rate, totals."""
    import tempfile

    from repro import cache
    from repro.cluster.fleet import FleetConfig, run_fleet

    cfg = FleetConfig(n_nodes=_CLUSTER_NODES, n_snapshots=_CLUSTER_EPOCHS,
                      seed=_CLUSTER_SEED)
    with tempfile.TemporaryDirectory() as cache_dir:
        os.environ["REPRO_CACHE"] = "1"
        os.environ["REPRO_CACHE_DIR"] = cache_dir
        t0 = time.perf_counter()
        cold = run_fleet(cfg, jobs=jobs)
        cold_seconds = time.perf_counter() - t0
        # the sweep entry is looked up in this process at any ``jobs``,
        # so this process's cache counters see the warm pass's lookup
        h0, m0 = cache.cache_stats()
        t0 = time.perf_counter()
        warm = run_fleet(cfg, jobs=jobs)
        warm_seconds = time.perf_counter() - t0
        h1, m1 = cache.cache_stats()
    lookups = (h1 - h0) + (m1 - m0)
    n_jobs = len(cold.jobs)
    return {
        **_report_meta("cluster"),
        "config": {"n_nodes": cfg.n_nodes, "n_snapshots": cfg.n_snapshots,
                   "seed": cfg.seed},
        "node_jobs": n_jobs,
        # seeded, machine-independent totals: any drift vs the baseline
        # means the simulation changed, not the machine
        "totals": {
            "faults": sum(j.faults for j in cold.jobs),
            "swap_ins": sum(j.swap_ins for j in cold.jobs),
            "swap_outs": sum(j.swap_outs for j in cold.jobs),
            "failovers": sum(j.failovers for j in cold.jobs),
        },
        "cold": {"jobs": jobs, "seconds": round(cold_seconds, 3),
                 "node_jobs_per_s": int(n_jobs / cold_seconds),
                 "nodes_per_s": int(cfg.n_nodes / cold_seconds)},
        "warm": {"seconds": round(warm_seconds, 3),
                 "lookups": lookups,
                 "hit_rate": round((h1 - h0) / max(1, lookups), 4)},
        "warm_identical": warm.jobs == cold.jobs,
    }


def check_cluster(report: dict, baseline_path: str) -> int:
    """Gate cold throughput, warm hit rate, and the seeded totals."""
    baseline = load_baseline(baseline_path, "cluster")
    if baseline is None:
        return 2
    failures = []
    got = report["cold"]["node_jobs_per_s"]
    base = baseline["cold"]["node_jobs_per_s"]
    floor = (1.0 - REGRESSION_TOLERANCE) * base
    status = "ok" if got >= floor else "REGRESSED"
    print(f"cluster: cold {got} node-jobs/s vs baseline {base} "
          f"(floor {floor:.0f}) {status}")
    if got < floor:
        failures.append(f"cold throughput {got} below floor {floor:.0f}")
    hit_rate = report["warm"]["hit_rate"]
    print(f"cluster: warm hit rate {hit_rate} "
          f"(floor {CLUSTER_WARM_HIT_FLOOR}), "
          f"warm identical: {report['warm_identical']}")
    if hit_rate < CLUSTER_WARM_HIT_FLOOR:
        failures.append(f"warm hit rate {hit_rate} below "
                        f"{CLUSTER_WARM_HIT_FLOOR}")
    if not report["warm_identical"]:
        failures.append("warm sweep results drifted from the cold sweep")
    if report["totals"] != baseline["totals"]:
        failures.append(f"seeded counter totals {report['totals']} != "
                        f"baseline {baseline['totals']}")
    if failures:
        for f in failures:
            print(f"FAIL: {f}", file=sys.stderr)
        return 1
    print("cluster gates ok")
    return 0


# -- lint suite --------------------------------------------------------------

def bench_lint(repeats: int) -> dict:
    """Time a full-tree simlint run, all passes enabled."""
    from pathlib import Path

    from repro.analysis import LintConfig, lint_paths

    repo_root = Path(__file__).resolve().parent.parent
    targets = [repo_root / d for d in ("src", "tests", "benchmarks", "examples")
               if (repo_root / d).is_dir()]
    config = LintConfig()
    best = None
    findings = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        findings = lint_paths(targets, config)
        seconds = time.perf_counter() - t0
        if best is None or seconds < best:
            best = seconds
    n_files = sum(1 for t in targets for _ in t.rglob("*.py"))
    return {
        **_report_meta("lint"),
        "targets": [t.name for t in targets],
        "files": n_files,
        "findings": len(findings),
        "seconds": round(best, 3),
        "files_per_s": int(n_files / best),
        "budget_seconds": LINT_BUDGET_SECONDS,
    }


def check_lint_budget(report: dict) -> int:
    """Fail when the full-tree lint run blows its wall-clock budget."""
    got, budget = report["seconds"], LINT_BUDGET_SECONDS
    status = "ok" if got <= budget else "OVER BUDGET"
    print(f"lint: {report['files']} files in {got}s "
          f"(budget {budget}s) {status}")
    if got > budget:
        print(f"full-tree lint exceeded its {budget}s budget: {got}s",
              file=sys.stderr)
        return 1
    return 0


def check_replay_regression(report: dict, baseline_path: str, suite: str) -> int:
    """Compare a fresh replay report against the checked-in baseline."""
    baseline = load_baseline(baseline_path, suite)
    if baseline is None:
        return 2
    failures = []
    for name, fresh in report["workloads"].items():
        base = baseline["workloads"].get(name)
        if base is None:
            continue
        # injected rows record the fast engine under "hybrid"
        key = "hybrid" if "hybrid" in fresh else "batch"
        base_engine = base.get(key)
        if base_engine is None:
            continue
        floor = (1.0 - REGRESSION_TOLERANCE) * base_engine["accesses_per_s"]
        got = fresh[key]["accesses_per_s"]
        status = "ok" if got >= floor else "REGRESSED"
        print(f"{name}: {key} {got} acc/s vs baseline "
              f"{base_engine['accesses_per_s']} (floor {floor:.0f}) {status}")
        if got < floor:
            failures.append(name)
    if failures:
        print(f"replay throughput regression >25% on: {', '.join(failures)}",
              file=sys.stderr)
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--suite",
                        choices=("reuse", "replay", "injected", "replay-mt",
                                 "lint", "tune", "cluster"),
                        default="reuse")
    parser.add_argument("--out", default=None,
                        help="report path (default BENCH_<suite>.json)")
    parser.add_argument("--accesses", type=int, default=1_000_000,
                        help="trace length for the kernel/replay benchmarks "
                             "(replay-mt: total across all tenants)")
    parser.add_argument("--tenants", type=int, default=4,
                        help="co-tenants on the shared device (replay-mt)")
    parser.add_argument("--jobs", type=int,
                        default=max(1, min(8, os.cpu_count() or 1)),
                        help="process-pool workers for the cluster sweep")
    parser.add_argument("--distinct", type=int, default=65_536,
                        help="distinct pages in the reuse-suite random trace")
    parser.add_argument("--repeats", type=int, default=3,
                        help="best-of-N timing per kernel/engine")
    parser.add_argument("--check", action="store_true",
                        help="replay suite: compare against the checked-in "
                             "baseline instead of overwriting it")
    args = parser.parse_args(argv)
    # injected rows live inside the replay report so one CI gate covers both
    default_out = ("BENCH_replay.json" if args.suite == "injected"
                   else f"BENCH_{args.suite.replace('-', '_')}.json")
    out = args.out or default_out

    if args.suite == "replay":
        report = bench_replay(args.accesses, args.repeats)
        report["workloads"].update(bench_injected(args.accesses, args.repeats))
        if args.check:
            return check_replay_regression(report, out, args.suite)
    elif args.suite == "injected":
        rows = bench_injected(args.accesses, args.repeats)
        report = {**_report_meta("replay"), "headline": "uniform",
                  "workloads": rows}
        if args.check:
            return check_replay_regression(report, out, "replay")
        # merge into the existing replay report rather than dropping its
        # clean rows; fall back to an injected-only report when absent
        try:
            with open(out) as fh:
                existing = json.load(fh)
        except (FileNotFoundError, json.JSONDecodeError):
            existing = None
        if existing and existing.get("schema") == BENCH_SCHEMA \
                and existing.get("suite") == "replay":
            existing["workloads"].update(rows)
            existing["generated"] = report["generated"]
            report = existing
    elif args.suite == "replay-mt":
        report = bench_replay_mt(args.accesses, args.tenants, args.repeats)
        if args.check:
            return check_replay_regression(report, out, args.suite)
    elif args.suite == "lint":
        report = bench_lint(args.repeats)
        if args.check:
            rc = check_lint_budget(report)
            if rc:
                return rc
    elif args.suite == "tune":
        report = bench_tune(args.repeats)
        if args.check:
            return check_tune(report, out)
    elif args.suite == "cluster":
        report = bench_cluster(args.jobs)
        if args.check:
            return check_cluster(report, out)
    else:
        pages = np.random.default_rng(1).integers(0, args.distinct, size=args.accesses)
        vector = bench_kernel(_warm_distances_vector, pages, args.repeats)
        # best-of-1 for the slow reference loop; it has no warm-up effects
        fenwick = bench_kernel(_reuse_distances_fenwick, pages, 1)
        report = {
            **_report_meta("reuse"),
            "trace": {"distribution": "uniform", "distinct_pages": args.distinct, "seed": 1},
            "kernels": {"vector": vector, "fenwick": fenwick},
            "vector_speedup": round(fenwick["seconds"] / vector["seconds"], 1),
        }

    with open(out, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    json.dump(report, sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
