"""Fig 16: data-center task throughput under SLOs.

A node receives a batch of tasks whose working sets exceed what local DRAM
can co-host.  Without far memory, concurrency is capped by DRAM; with xDM,
each task offloads up to its SLO-constrained ratio (from the Fig 15
machinery), freeing local DRAM for more concurrent tasks at a bounded
runtime inflation.  We sweep the proportion of swap-friendly tasks (0..1)
and the SLO (1.2..1.8) and report throughput normalized to the no-FM run.
"""

from __future__ import annotations

from repro.cluster import ClusterNode, ClusterScheduler, Task
from repro.devices import BackendKind
from repro.experiments.context import ExperimentContext
from repro.experiments.tables import ExperimentResult
from repro.units import gib, tib
from repro.workloads import swap_friendly_names, swap_sensitive_names

__all__ = ["run", "SLOS", "FRIENDLY_FRACTIONS"]

SLOS = (1.2, 1.4, 1.6, 1.8)
FRIENDLY_FRACTIONS = (0.0, 0.25, 0.5, 0.75, 1.0)
_N_TASKS = 24
_TASK_WS = gib(20)  # paper-scale working sets force queueing on a 64 GiB node


def _task_mix(fraction: float) -> list[str]:
    friendly = list(swap_friendly_names())
    sensitive = list(swap_sensitive_names())
    n_friendly = round(_N_TASKS * fraction)
    names = [friendly[i % len(friendly)] for i in range(n_friendly)]
    names += [sensitive[i % len(sensitive)] for i in range(_N_TASKS - n_friendly)]
    return names


def _offload_for(
    ctx: ExperimentContext, name: str, slo: float | None,
    _memo: dict[tuple, tuple[float, float]] = {},  # simlint: ignore[PY001] -- deliberate per-process memo
) -> tuple[float, float]:
    """(offload ratio, runtime factor) for one task under one SLO.

    Deterministic in its key, and the task mixes repeat the same dozen
    workloads 24 times per cell — so the SLO search runs once per distinct
    pair.  The key covers **every** input the result depends on: workload
    name, the SLO (``None`` — the no-FM baseline with no offload at all —
    is a distinct value, not a missing one), the context's scale and seed
    (they select the trace), and the console fingerprint (tunable limits,
    THP policy and SLO hit ratio all steer the search).  A memo hit is
    byte-for-byte the cold result — regression test in
    ``tests/test_tune_experiments.py``.
    """
    key = (name, slo, ctx.scale, ctx.seed, ctx.console.fingerprint())
    if key in _memo:
        return _memo[key]
    if slo is None:
        result = 0.0, 1.0
    else:
        w = ctx.workload(name)
        f = ctx.features(name)
        compute = ctx.compute_time(name)
        ratio, decision = ctx.console.max_offload_under_slo(
            f, ctx.device(BackendKind.RDMA), compute, slo,
            fault_parallelism=w.spec.fault_parallelism,
        )
        if decision is None:
            result = 0.0, 1.0
        else:
            runtime_factor = 1.0 + decision.predicted.stall_time / compute
            result = ratio, min(runtime_factor, slo)
    _memo[key] = result
    return result


def _throughput(ctx: ExperimentContext, fraction: float, slo: float | None) -> float:
    names = _task_mix(fraction)
    node = ClusterNode("n0", fm_bytes=int(1.3 * tib(1)) if slo is not None else 0)
    tasks = []
    for i, name in enumerate(names):
        compute = 10.0
        if slo is None:
            tasks.append(Task(f"{name}#{i}", _TASK_WS, compute))
        else:
            ratio, factor = _offload_for(ctx, name, slo)
            tasks.append(Task(f"{name}#{i}", _TASK_WS, compute,
                              offload_ratio=ratio, runtime_factor=factor))
    sched = ClusterScheduler([node])
    sched.run(tasks)
    return sched.throughput()


def run(ctx: ExperimentContext) -> ExperimentResult:
    """Throughput grid over (friendly fraction, SLO), normalized to no-FM."""
    rows = []
    best = 0.0
    slo_best: dict[float, float] = {s: 0.0 for s in SLOS}
    for fraction in FRIENDLY_FRACTIONS:
        base = _throughput(ctx, fraction, None)
        row = [fraction]
        for slo in SLOS:
            gain = _throughput(ctx, fraction, slo) / base if base > 0 else 0.0
            row.append(gain)
            best = max(best, gain)
            slo_best[slo] = max(slo_best[slo], gain)
        rows.append(row)
    return ExperimentResult(
        name="fig16",
        title="Task throughput vs swap-friendly share and SLO (normalized to no-FM)",
        headers=["friendly_fraction", *[f"slo={s}" for s in SLOS]],
        rows=rows,
        metrics={
            "max_gain": best,
            **{f"best_at_slo_{s}": v for s, v in slo_best.items()},
        },
        notes="paper: up to 5.6x vs no-FM; SLO 1.6 can beat 1.8; more friendly tasks -> more gain",
    )
