"""Batched fault-replay vs event-level executor (methodology experiment).

The batched replay engine (:mod:`repro.swap.replay`) promises *exact*
equivalence with the per-access event loop, not statistical agreement —
every counter bit-identical and simulated time equal to float round-off.
This experiment demonstrates that promise on real workload traces (the
equivalence tests lock it in on synthetic ones) and cross-checks the
one-pass Mattson sweep against an exact-LRU replay:

* **counters** — every :data:`~repro.swap.executor.COUNTERS` entry of
  :meth:`~repro.swap.executor.SwapExecutor.run` must equal the reference
  :func:`~repro.swap.executor.run_event` exactly, per workload and
  backend;
* **time** — the batched aggregate flows must reproduce the event loop's
  simulated seconds to relative round-off;
* **MRC** — :func:`~repro.swap.replay.trace_mrc` miss counts at sampled
  capacities must equal an exact-LRU replay of the trace at that capacity
  (:func:`~repro.mem.lru.lru_replay`, which the tests hold to the
  per-access ``tests.oracles.LRUCache``).
"""

from __future__ import annotations

import numpy as np

from repro.devices import BackendKind
from repro.devices.registry import make_device
from repro.experiments.context import ExperimentContext
from repro.experiments.tables import ExperimentResult
from repro.mem.lru import lru_replay
from repro.simcore import Simulator
from repro.swap.executor import COUNTERS, SwapExecutor, run_event
from repro.swap.replay import trace_mrc

__all__ = ["run", "SAMPLE"]

#: representative sample: sequential, random-parallel, AI, compute
SAMPLE = ("stream", "lg-bfs", "bert", "kmeans")
FM_RATIO = 0.5
_BACKENDS = (BackendKind.SSD, BackendKind.RDMA)
_MAX_TRACE = 60_000  # keep the event-level reference replays quick


def _executor(kind: BackendKind, local: int) -> SwapExecutor:
    sim = Simulator()
    return SwapExecutor(sim, make_device(sim, kind), kind, local_pages=local)


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
            batch = _executor(kind, local).run(trace)
            event = run_event([_executor(kind, local)], [trace])[0]
            pairs += 1
            same = all(getattr(batch, c) == getattr(event, c) for c in COUNTERS)
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
