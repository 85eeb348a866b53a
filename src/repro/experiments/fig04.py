"""Fig 4: single shared hierarchical FM path vs multiple flat isolated paths.

The motivating comparison: a naive VM-based far-memory setup funnels two
co-located tenants through one *hierarchical, shared* swap path (VM swap ->
host swap -> device); the alternative gives each tenant a *flat, isolated*
guest-direct path on its own device.  We run the same workload pair both
ways and report normalized data-transfer latency.

Alongside the closed-form comparison, a *measured* column replays two
co-tenant copies of each workload through the event-level swap stack via
the contended batched replay engine — once contending for one shared
RDMA device, once each on its own — and reports the device-contention
slowdown the analytic ``co_tenants`` term approximates.
"""

from __future__ import annotations

from repro.devices import BackendKind
from repro.experiments.context import ExperimentContext
from repro.experiments.contention import anon_local_pages, cotenant_run, tenant_slice
from repro.experiments.tables import ExperimentResult
from repro.swap import ChannelMode, PathType, SwapConfig, SwapPathModel
from repro.swap.replay import ClassificationMemo

__all__ = ["run"]

_WORKLOADS = ("lg-bfs", "tf-infer")
_MEAS_ACCESSES = 20_000
_MEAS_FM_RATIO = 0.5


def _measured_contention(ctx: ExperimentContext, name: str) -> float:
    """Replayed slowdown of a shared device vs per-tenant devices."""
    base = ctx.workload(name).trace(ctx.scale, ctx.seed)
    trace = tenant_slice(base, 0, _MEAS_ACCESSES)
    local = anon_local_pages(trace, _MEAS_FM_RATIO)
    traces, locals_ = [trace, trace], [local, local]
    # all four tenant runs replay the same slice: classify it once
    classify = ClassificationMemo()
    shared, _ = cotenant_run(BackendKind.RDMA, traces, locals_, shared=True,
                             classify=classify)
    isolated, _ = cotenant_run(BackendKind.RDMA, traces, locals_, shared=False,
                               classify=classify)
    t_shared = sum(r.sim_time for r in shared) / len(shared)
    t_isolated = sum(r.sim_time for r in isolated) / len(isolated)
    return t_shared / t_isolated if t_isolated > 0 else 1.0


def run(ctx: ExperimentContext) -> ExperimentResult:
    """Two co-located tenants: hierarchical/shared vs flat/isolated paths."""
    rows = []
    speedups = []
    contentions = []
    for name in _WORKLOADS:
        w = ctx.workload(name)
        features = ctx.features(name)
        local = max(1, int(features.mrc.n_pages * 0.5))

        # (a) traditional: both tenants funnel through one shared,
        # hierarchical path on the single RDMA device
        shared_cfg = SwapConfig(
            path=PathType.HIERARCHICAL,
            channel=ChannelMode.SHARED,
            co_tenants=1,  # the other tenant
            synchronous_faults=True,
        )
        single = SwapPathModel(
            ctx.device(BackendKind.RDMA), features,
            fault_parallelism=w.spec.fault_parallelism,
        )
        t_single = single.cost(local, shared_cfg).sys_time

        # (b) xDM-style: each tenant gets its own flat, guest-direct path
        # (this tenant on the RDMA device; the neighbour's traffic rides a
        # different device entirely, so co_tenants=0 here)
        flat_cfg = SwapConfig(
            path=PathType.FLAT,
            channel=ChannelMode.VM_ISOLATED,
            synchronous_faults=False,
            io_width=4,
        )
        t_multi = single.cost(local, flat_cfg).sys_time

        speedup = t_single / t_multi if t_multi > 0 else float("inf")
        speedups.append(speedup)
        contention = _measured_contention(ctx, name)
        contentions.append(contention)
        rows.append([name, 1.0, t_multi / t_single, speedup, contention])
    return ExperimentResult(
        name="fig04",
        title="Single shared hierarchical path vs multiple flat isolated paths",
        headers=["workload", "single-path (norm)", "multi-path (norm)",
                 "speedup(x)", "measured contention(x)"],
        rows=rows,
        metrics={
            "mean_speedup": sum(speedups) / len(speedups),
            "mean_measured_contention": sum(contentions) / len(contentions),
        },
        notes="hierarchical hops + channel sharing vs guest-direct isolated "
              "paths; measured column replays 2 co-tenants shared vs isolated",
    )
