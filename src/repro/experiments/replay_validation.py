"""Batched fault-replay vs event-level executor (methodology experiment).

The batched replay engine (:mod:`repro.swap.replay`) promises *exact*
equivalence with the per-access event loop, not statistical agreement —
every counter bit-identical and simulated time equal to float round-off.
This experiment demonstrates that promise on real workload traces (the
equivalence tests lock it in on synthetic ones) and cross-checks the
one-pass Mattson sweep against an exact-LRU replay:

* **counters** — hits, faults, cold allocations, swap-ins/outs, clean
  drops, and file skips from ``REPRO_REPLAY=batch`` must equal
  ``REPRO_REPLAY=event`` exactly, per workload and backend;
* **time** — the batched aggregate flows must reproduce the event loop's
  simulated seconds to relative round-off;
* **MRC** — :func:`~repro.swap.replay.trace_mrc` miss counts at sampled
  capacities must equal an exact-LRU replay of the trace at that capacity
  (:func:`~repro.mem.lru.lru_replay`, which the tests hold to the
  per-access ``tests.oracles.LRUCache``).
"""

from __future__ import annotations

import os

import numpy as np

from repro.devices import BackendKind
from repro.devices.registry import make_device
from repro.experiments.context import ExperimentContext
from repro.experiments.tables import ExperimentResult
from repro.mem.lru import lru_replay
from repro.simcore import Simulator
from repro.swap import SwapExecutor
from repro.swap.replay import REPLAY_ENV, trace_mrc

__all__ = ["run", "SAMPLE"]

#: representative sample: sequential, random-parallel, AI, compute
SAMPLE = ("stream", "lg-bfs", "bert", "kmeans")
FM_RATIO = 0.5
_BACKENDS = (BackendKind.SSD, BackendKind.RDMA)
_MAX_TRACE = 60_000  # keep the event-level reference replays quick

_COUNTERS = ("accesses", "hits", "faults", "cold_allocations", "swap_ins",
             "swap_outs", "clean_drops", "file_skips")


def _execute(mode: str, trace, kind: BackendKind, local: int):
    saved = os.environ.get(REPLAY_ENV)
    os.environ[REPLAY_ENV] = mode
    try:
        sim = Simulator()
        executor = SwapExecutor(sim, make_device(sim, kind), kind, local_pages=local)
        return executor.run(trace)
    finally:
        if saved is None:
            os.environ.pop(REPLAY_ENV, None)
        else:
            os.environ[REPLAY_ENV] = saved


def run(ctx: ExperimentContext) -> ExperimentResult:
    """Per (workload, backend): batch vs event counters, time, and MRC."""
    rows = []
    identical = 0
    pairs = 0
    time_err = []
    mrc_mismatches = 0
    for name in SAMPLE:
        w = ctx.workload(name)
        trace = w.trace(ctx.scale, ctx.seed)
        if len(trace) > _MAX_TRACE:
            trace = trace.slice(0, _MAX_TRACE)
        features = ctx.features(name)
        local = max(2, int(features.mrc.n_pages * (1.0 - FM_RATIO)))
        # one-pass Mattson sweep vs exact-LRU replay at sampled capacities
        anon_pages = trace.pages[trace.anon_mask]
        mrc = trace_mrc(trace)
        for cap in (max(1, local // 2), local, 2 * local):
            exact_misses = int((~lru_replay(anon_pages, cap).hits).sum())
            if mrc.misses(cap) != exact_misses:
                mrc_mismatches += 1
        for kind in _BACKENDS:
            batch = _execute("batch", trace, kind, local)
            event = _execute("event", trace, kind, local)
            pairs += 1
            same = all(getattr(batch, c) == getattr(event, c) for c in _COUNTERS)
            identical += same
            rel = (
                abs(batch.sim_time - event.sim_time) / event.sim_time
                if event.sim_time else 0.0
            )
            time_err.append(rel)
            rows.append([
                name, str(kind), event.accesses, event.faults,
                "yes" if same else "NO", f"{rel:.2e}",
                event.clean_drops, event.swap_outs,
            ])
    return ExperimentResult(
        name="replay_validation",
        title="Batched fault replay vs event-level executor",
        headers=["workload", "backend", "accesses", "faults",
                 "counters_identical", "time_rel_err", "clean_drops", "swap_outs"],
        rows=rows,
        metrics={
            "counter_identical_fraction": identical / pairs if pairs else 0.0,
            "max_time_rel_err": max(time_err) if time_err else 0.0,
            "mrc_crosscheck_mismatches": float(mrc_mismatches),
        },
        notes="batch replay must be exact, not approximate; any NO row is a bug",
    )
