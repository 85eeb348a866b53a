"""Model-guided configuration search replacing exhaustive grid sweeps.

The tuner prices whole candidate lattices through the vectorized cost
model (:mod:`repro.tune.costmodel`) instead of one scalar model call per
point, searches large joint spaces with local search seeded at the
analytic optimum plus successive halving over ratio rungs, and leaves
expensive replay simulation to a shortlist (:mod:`repro.tune.validate`).

Run accounting (``TuneStats``) uses one currency everywhere, documented
in DESIGN.md §3.6: a *simulated run* is one scalar cost-model evaluation
or one replay validation; a vectorized batch — however many points it
prices — amortizes to roughly one scalar evaluation of numpy work, so it
counts as one run.  ``grid_runs`` tracks what the exhaustive reference
would have burned on the same decisions, so ``reduction()`` is the
≥10× headline the `perf-gates` CI job's ``tune`` suite gates.

``REPRO_TUNE=grid`` restores the exhaustive reference everywhere (the
scalar double loops and full-grid argmax); the default ``model`` mode
must choose *identical* configurations — asserted per experiment in
``tests/test_tune_experiments.py``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError
from repro.swap.pathmodel import SwapConfig, SwapCost, SwapPathModel
from repro.tune.costmodel import CostBatch, OBJECTIVES, VectorCostModel

__all__ = [
    "TUNE_ENV",
    "tune_mode",
    "TuneStats",
    "Candidate",
    "select_config",
    "slo_bisection",
    "climb_lattice",
]

TUNE_ENV = "REPRO_TUNE"
_MODES = ("model", "grid")


def tune_mode() -> str:
    """Active search mode: ``model`` (tuner, default) or ``grid``."""
    mode = os.environ.get(TUNE_ENV, "model") or "model"
    if mode not in _MODES:
        raise ConfigurationError(
            f"unknown {TUNE_ENV}={mode!r}; expected one of {_MODES}"
        )
    return mode


@dataclass
class TuneStats:
    """Simulated-run ledger for one console / one search.

    ``scalar_runs`` — scalar cost-model calls (the grid reference's unit);
    ``batches``/``model_points`` — vectorized evaluations and the points
    they priced; ``replay_runs``/``replay_cache_hits`` — replay
    validations executed / served from the artifact cache; ``grid_runs`` —
    what the exhaustive reference burns for the same decisions.
    """

    scalar_runs: int = 0
    batches: int = 0
    model_points: int = 0
    replay_runs: int = 0
    replay_cache_hits: int = 0
    grid_runs: int = 0

    @property
    def runs(self) -> int:
        """Simulated runs actually spent (batch ≈ one scalar run)."""
        return self.scalar_runs + self.batches + self.replay_runs

    def reduction(self) -> float:
        """Grid-reference runs per run actually spent (the ≥10× gate)."""
        return self.grid_runs / max(1, self.runs)

    def add(self, other: "TuneStats") -> None:
        """Accumulate another ledger into this one."""
        for f in (
            "scalar_runs", "batches", "model_points",
            "replay_runs", "replay_cache_hits", "grid_runs",
        ):
            setattr(self, f, getattr(self, f) + getattr(other, f))

    def snapshot(self) -> dict[str, int]:
        """Plain-dict view for experiment metrics / BENCH rows."""
        return {
            "scalar_runs": self.scalar_runs,
            "batches": self.batches,
            "model_points": self.model_points,
            "replay_runs": self.replay_runs,
            "replay_cache_hits": self.replay_cache_hits,
            "grid_runs": self.grid_runs,
            "runs": self.runs,
        }


@dataclass(frozen=True)
class Candidate:
    """One point of a search trace (``repro tune``'s candidate table)."""

    granularity: int
    io_width: int
    local_pages: int
    objective: float
    stage: str          #: "batch", "climb", "rung:<n>", "validate"
    chosen: bool = False


def select_config(
    model: SwapPathModel,
    local_pages: int,
    g_cands: list[int],
    w_cands: list[int],
    template: SwapConfig,
    objective: str = "sys_time",
    stats: TuneStats | None = None,
    trace: list[Candidate] | None = None,
) -> tuple[SwapConfig, SwapCost]:
    """Argmin over the (granularity × io_width) lattice, one batch.

    Candidate order matches the exhaustive reference loop (granularity
    outer ascending, width inner ascending) and ties resolve to the first
    candidate, so the choice is identical to the scalar grid sweep —
    including the predicted :class:`SwapCost`, bit for bit.
    """
    if objective not in OBJECTIVES:
        raise ConfigurationError(f"unknown objective {objective!r}")
    lattice = [(g, w) for g in g_cands for w in w_cands]
    g_arr = np.array([g for g, _ in lattice], dtype=np.int64)
    w_arr = np.array([w for _, w in lattice], dtype=np.int64)
    vcm = VectorCostModel(model, template)
    batch = vcm.evaluate(np.int64(local_pages), g_arr, w_arr)
    if stats is not None:
        stats.batches += 1
        stats.model_points += len(batch)
        stats.grid_runs += len(batch)
    idx = batch.argmin(objective)
    if trace is not None:
        obj = batch.objective(objective)
        for i, (g, w) in enumerate(lattice):
            trace.append(Candidate(g, w, local_pages, float(obj[i]),
                                   "batch", chosen=i == idx))
    g, w = lattice[idx]
    config = SwapConfig(
        granularity=g,
        io_width=w,
        readahead_pages=template.readahead_pages,
        max_readahead_pages=template.max_readahead_pages,
        merge_pages=template.merge_pages,
        path=template.path,
        channel=template.channel,
        co_tenants=template.co_tenants,
        synchronous_faults=template.synchronous_faults,
    )
    return config, batch.cost(idx)


def slo_bisection(
    model: SwapPathModel,
    template: SwapConfig,
    g_cands: list[int],
    w_cands: list[int],
    compute_time: float,  # simlint: dim[compute_time=seconds, budget=seconds]
    budget: float,
    max_ratio: float,
    objective: str = "sys_time",
    steps: int = 12,
    chunk: int = 6,
    stats: TuneStats | None = None,
    trace: list[Candidate] | None = None,
) -> tuple[float, int, SwapConfig, SwapCost] | None:
    """Batched twin of the console's SLO binary search on the ratio axis.

    The exhaustive reference runs ``steps`` bisection iterations, each a
    full scalar lattice sweep at the step's midpoint ratio.  The visited
    midpoints form a root-to-leaf path in a binary tree over ``(lo, hi)``
    intervals, so the tuner prices the lattice at **every node of the next
    ``chunk`` levels in one vectorized batch**, then walks the path
    through precomputed values — two batches replace ``steps × |lattice|``
    scalar runs while reproducing the identical midpoint sequence
    (midpoints are derived by the same ``(lo+hi)/2`` float arithmetic),
    the identical per-step argmin, and the identical feasibility booleans.

    Returns ``(ratio, local_pages, config, predicted)`` of the last
    feasible step, or ``None`` when every step violates the budget.
    """
    lattice = [(g, w) for g in g_cands for w in w_cands]
    n = len(lattice)
    g_arr = np.array([g for g, _ in lattice], dtype=np.int64)
    w_arr = np.array([w for _, w in lattice], dtype=np.int64)
    vcm = VectorCostModel(model, template)

    def make_config(i: int) -> SwapConfig:
        g, w = lattice[i]
        return SwapConfig(
            granularity=g,
            io_width=w,
            readahead_pages=template.readahead_pages,
            max_readahead_pages=template.max_readahead_pages,
            merge_pages=template.merge_pages,
            path=template.path,
            channel=template.channel,
            co_tenants=template.co_tenants,
            synchronous_faults=template.synchronous_faults,
        )

    lo, hi = 0.0, max_ratio
    best: tuple[float, int, int, int, CostBatch] | None = None
    remaining = steps
    while remaining > 0:
        depth = min(chunk, remaining)
        # full binary subtree of the next `depth` bisection levels; node i
        # has children 2i+1 (feasible: lo=mid) and 2i+2 (infeasible: hi=mid)
        nodes: list[tuple[float, float]] = [(lo, hi)] + [None] * (2 ** depth - 2)
        for i in range(len(nodes)):
            node_lo, node_hi = nodes[i]
            mid = (node_lo + node_hi) / 2.0
            if 2 * i + 1 < len(nodes):
                nodes[2 * i + 1] = (mid, node_hi)
                nodes[2 * i + 2] = (node_lo, mid)
        mids = [(node_lo + node_hi) / 2.0 for node_lo, node_hi in nodes]
        locals_ = np.array([model.local_pages_for(m) for m in mids], dtype=np.int64)
        batch = vcm.evaluate(
            np.repeat(locals_, n), np.tile(g_arr, len(nodes)), np.tile(w_arr, len(nodes))
        )
        if stats is not None:
            stats.batches += 1
            stats.model_points += len(batch)
            stats.grid_runs += depth * n
        obj = batch.objective(objective)
        stall = batch.stall_time
        i = 0
        for _ in range(depth):
            offset = i * n
            pick = offset + int(np.argmin(obj[offset:offset + n]))
            runtime = compute_time + float(stall[pick])
            mid = mids[i]
            feasible = runtime <= budget
            if trace is not None:
                trace.append(Candidate(
                    int(batch.granularity[pick]), int(batch.io_width[pick]),
                    int(locals_[i]), float(obj[pick]), "bisect", chosen=feasible,
                ))
            if feasible:
                best = (mid, int(locals_[i]), pick - offset, pick, batch)
                lo, i = mid, 2 * i + 1
            else:
                hi, i = mid, 2 * i + 2
        remaining -= depth
    if best is None:
        return None
    mid, local_pages, lattice_idx, row, batch = best
    return mid, local_pages, make_config(lattice_idx), batch.cost(row)


def climb_lattice(
    value_at,
    shape: tuple[int, int],
    seed: tuple[int, int],
    valid=None,
    memo: dict | None = None,
    max_steps: int = 256,
) -> tuple[tuple[int, int], float, int]:
    """Steepest-ascent hill climb on a 2-D index lattice.

    ``value_at(i, j)`` scores a cell (higher is better); ``valid(i, j)``
    masks cells outside the feasible region.  Pre-seeding ``memo`` with
    already-computed cells makes those free — the MBE search seeds it with
    the diagonal the experiment prints anyway.  Returns the best cell, its
    value, and the number of *new* evaluations spent.

    Neighbors are scanned in row-major order and moves require strict
    improvement, so on the surfaces this project climbs (quasi-concave
    MBE thresholds) the result matches the full-grid argmax — asserted on
    the real cluster traces in the tests.
    """
    memo = memo if memo is not None else {}
    evals = 0

    def score(cell):
        nonlocal evals
        if cell in memo:
            return memo[cell]
        i, j = cell
        if not (0 <= i < shape[0] and 0 <= j < shape[1]):
            return None
        if valid is not None and not valid(i, j):
            return None
        v = value_at(i, j)
        memo[cell] = v
        evals += 1
        return v

    here = tuple(seed)
    best = score(here)
    if best is None:
        raise ConfigurationError(f"seed cell {seed} is invalid")
    for _ in range(max_steps):
        step = None
        for di in (-1, 0, 1):
            for dj in (-1, 0, 1):
                if di == 0 and dj == 0:
                    continue
                cell = (here[0] + di, here[1] + dj)
                v = score(cell)
                if v is not None and v > best:
                    best, step = v, cell
        if step is None:
            break
        here = step
    return here, best, evals
