"""Shared helpers for measured co-tenant (contended-backend) experiments.

``fig04``, ``fig17``, and ``tenant_scaling`` all need the same setup: N
cold tenants on a fresh simulator, either all contending for one shared
device or each on its own isolated device, executed through
:func:`repro.swap.executor.run_tenants` (which routes eligible stacks to
the contended batched replay engine).  Every call builds its own
:class:`~repro.simcore.Simulator` — never the context-memoized one — so
results are independent of experiment execution order, which the
parallel-determinism test locks in.
"""

from __future__ import annotations

import numpy as np

from repro.devices.registry import BackendKind, make_device
from repro.simcore import Simulator
from repro.swap.executor import SwapExecutionResult, SwapExecutor, run_tenants
from repro.trace.schema import PageTrace

__all__ = ["anon_local_pages", "cotenant_run", "per_op_latency", "tenant_slice"]


def tenant_slice(trace: PageTrace, i: int, per: int) -> PageTrace:
    """Tenant ``i``'s window into a workload trace (cyclic offsets)."""
    n = len(trace)
    if n <= per:
        return trace
    start = (i * per) % (n - per)
    return trace.slice(start, start + per)


def anon_local_pages(trace: PageTrace, fm_ratio: float) -> int:
    """Local-DRAM page budget leaving ``fm_ratio`` of the anonymous
    footprint in far memory."""
    distinct = int(np.unique(trace.pages[trace.anon_mask]).shape[0])
    return max(8, int(distinct * (1.0 - fm_ratio)))


def cotenant_run(
    kind: BackendKind,
    traces: list[PageTrace],
    local_pages: list[int],
    shared: bool = True,
    classify=None,
) -> tuple[list[SwapExecutionResult], list]:
    """Run one trace per tenant on a fresh simulator; return (results, devices).

    ``shared=True`` puts every tenant on one device (channel pool, media
    pipes, and slot all contended); ``shared=False`` gives each tenant
    its own device of the same kind — the isolated baseline.  A sweep
    passes one :class:`~repro.swap.replay.ClassificationMemo` as
    ``classify`` to every call, so each distinct tenant slice is
    classified once.
    """
    sim = Simulator()
    if shared:
        device = make_device(sim, kind)
        devices = [device] * len(traces)
    else:
        devices = [
            make_device(sim, kind, name=f"{kind}:{i}")
            for i in range(len(traces))
        ]
    executors = [
        SwapExecutor(sim, dev, kind, local_pages=lp)
        for dev, lp in zip(devices, local_pages)
    ]
    results = run_tenants(executors, traces, classify)
    return results, devices


def per_op_latency(result: SwapExecutionResult) -> float:
    """Measured seconds per swap operation for one tenant."""
    ops = result.swap_ins + result.swap_outs
    return result.sim_time / ops if ops > 0 else 0.0
