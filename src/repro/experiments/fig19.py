"""Fig 19: memory balance effectiveness on Alibaba-like cluster traces.

Synthesizes 2017-like (low pressure, 48.95% mean) and 2018-like (high
pressure, 87.05% mean) utilization traces and evaluates the MBE metric
over an (alpha, beta) threshold grid; reports the contour peaks the paper
quotes (up to 13.8% and 19.7%).

The peak search routes through the tuner: the experiment's output rows
need only the alpha==beta diagonal, so the tuner computes the diagonal,
seeds a hill climb at its best cell, and finds the same peak as the
exhaustive grid (``mbe_improvement_grid`` + ``best_thresholds``, which
``tests/test_tune_experiments.py`` compares against) at a fraction of
the cell evaluations (``tune_*`` metrics).
"""

from __future__ import annotations

import numpy as np

from repro.cluster import alibaba_like_trace
from repro.cluster.mbe import mbe_cell, tuned_thresholds
from repro.experiments.context import ExperimentContext
from repro.experiments.tables import ExperimentResult

__all__ = ["run", "THRESHOLDS"]

THRESHOLDS = np.round(np.linspace(0.1, 0.9, 17), 3)
_N_MACHINES = 2000
_N_SNAPSHOTS = 12


def run(ctx: ExperimentContext) -> ExperimentResult:
    """Grid peaks plus diagonal (alpha == beta) contour samples per trace."""
    rows = []
    metrics = {}
    runs_grid = runs_tuner = 0
    for year, paper_peak in ((2017, 0.138), (2018, 0.197)):
        trace = alibaba_like_trace(
            year, n_machines=_N_MACHINES, n_snapshots=_N_SNAPSHOTS, seed=ctx.seed
        )
        u = trace.utilization
        n_cells = sum(1 for a in THRESHOLDS for b in THRESHOLDS if b >= a)
        # the exhaustive reference prices the upper triangle twice: once
        # for the contour surface, once inside best_thresholds
        runs_grid += 2 * n_cells
        # rows need only the diagonal; the peak climb reuses it as seed
        diagonal = [mbe_cell(u, float(t), float(t)) for t in THRESHOLDS]
        a, b, peak, climb_evals = tuned_thresholds(
            u, THRESHOLDS, THRESHOLDS, diagonal=diagonal
        )
        runs_tuner += len(diagonal) + climb_evals
        metrics[f"mean_util_{year}"] = trace.mean_utilization
        metrics[f"peak_mbe_{year}"] = peak
        metrics[f"paper_peak_{year}"] = paper_peak
        for i, t in enumerate(THRESHOLDS):
            rows.append([year, float(t), diagonal[i]])
        rows.append([year, f"peak(a={a:.2f},b={b:.2f})", peak])
    metrics["tune_grid_runs"] = float(runs_grid)
    metrics["tune_runs"] = float(runs_tuner)
    return ExperimentResult(
        name="fig19",
        title="MBE over (alpha, beta) thresholds, Alibaba-like 2017/2018 traces",
        headers=["trace_year", "alpha=beta", "mbe"],
        rows=rows,
        metrics=metrics,
        notes="paper: up to 13.8% (2017, low pressure) and 19.7% (2018, high pressure)",
    )
