"""Tenant scaling: per-tenant slowdown and link saturation to 64 co-tenants.

The paper's isolation story (Figs 4, 16, 17) stops at a handful of
co-located tenants; the ROADMAP's north star — "heavy traffic from
millions of users, as fast as the hardware allows" — asks what the shared
backends do at fleet scale.  This experiment puts 1→64 tenants on one
shared device (every tenant its own frontend/module/LRU, all contending
for the same channel pool, media pipes, and slot) and measures, through
the contended batched replay engine (:mod:`repro.swap.replay`):

* **per-tenant slowdown** — each tenant's swap time relative to running
  its own trace alone on an otherwise-idle device (fair-share pipes
  mean everyone degrades together);
* **link utilization** — busy fraction of the device's read media pipe
  over the contended span, the saturation curve that explains *where*
  the slowdown comes from (channel-bound vs bandwidth-bound backends
  saturate differently).

Event-accurate per-access replays of 64 concurrent tenants would cost
millions of DES events per point; batched replay admits one aggregate
step per tenant window through the event engine, which makes the whole
sweep a few seconds.
"""

from __future__ import annotations

from repro.devices import BackendKind
from repro.experiments.context import ExperimentContext
from repro.experiments.contention import (
    anon_local_pages,
    cotenant_run,
    tenant_slice,
)
from repro.experiments.tables import ExperimentResult
from repro.swap.replay import ClassificationMemo

__all__ = ["run", "TENANTS"]

#: co-tenant counts per backend (1 = the uncontended baseline)
TENANTS = (1, 2, 4, 8, 16, 32, 64)
_BACKENDS = (BackendKind.SSD, BackendKind.RDMA)
_WORKLOAD = "lg-bfs"       # random-parallel graph walk: swap-heavy
_PER_TENANT = 12_000       # accesses per tenant slice
_FM_RATIO = 0.5


def _run_group(kind: BackendKind, traces, locals_,
               classify) -> tuple[list, float, float, float]:
    """Run ``traces`` as co-tenants on one shared device of ``kind``."""
    results, devices = cotenant_run(kind, traces, locals_, shared=True,
                                    classify=classify)
    device = devices[0]
    span = max((r.sim_time for r in results), default=0.0)
    if span > 0:
        util_read = min(1.0, device._media_read.busy_time / span)
        util_write = min(1.0, device._media_write.busy_time / span)
    else:
        util_read = util_write = 0.0
    return results, span, util_read, util_write


def run(ctx: ExperimentContext) -> ExperimentResult:
    """Slowdown and saturation curves, 1→64 co-tenants per backend."""
    base = ctx.workload(_WORKLOAD).trace(ctx.scale, ctx.seed)
    slices = [tenant_slice(base, i, _PER_TENANT) for i in range(max(TENANTS))]
    locals_ = [anon_local_pages(t, _FM_RATIO) for t in slices]
    # classification ignores the backend: one memo serves both sweeps
    classify = ClassificationMemo()
    rows = []
    metrics: dict[str, float] = {}
    max_util = 0.0
    for kind in _BACKENDS:
        solo: list[float] = []
        for trace, local in zip(slices, locals_):
            results, _, _, _ = _run_group(kind, [trace], [local], classify)
            solo.append(results[0].sim_time)
        mean_curve = []
        for n in TENANTS:
            results, span, util_read, util_write = _run_group(
                kind, slices[:n], locals_[:n], classify
            )
            slowdowns = [
                r.sim_time / s if s > 0 else 1.0
                for r, s in zip(results, solo[:n])
            ]
            mean_sd = sum(slowdowns) / len(slowdowns)
            mean_curve.append(mean_sd)
            max_util = max(max_util, util_read)
            rows.append([
                str(kind), n, mean_sd, max(slowdowns),
                util_read, util_write, span,
            ])
        metrics[f"{kind}_slowdown_{max(TENANTS)}"] = mean_curve[-1]
        steps = sum(
            1 for a, b in zip(mean_curve, mean_curve[1:]) if b >= a - 1e-9
        )
        metrics[f"{kind}_monotone_fraction"] = (
            steps / (len(mean_curve) - 1) if len(mean_curve) > 1 else 1.0
        )
    metrics["max_read_utilization"] = max_util
    return ExperimentResult(
        name="tenant_scaling",
        title="Per-tenant slowdown and link saturation, 1-64 co-tenants",
        headers=["backend", "tenants", "mean_slowdown", "max_slowdown",
                 "util_read", "util_write", "span_s"],
        rows=rows,
        metrics=metrics,
        notes="fair-share fluid replay; slowdown is vs each tenant's solo run",
    )
