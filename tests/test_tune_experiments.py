"""Experiment-level tuner guarantees: identical output, ≥10× fewer runs.

Every experiment that routes configuration decisions through the tuner
must produce **identical rows and metrics** (excluding the ``tune_*`` run
ledger) to a run whose console decisions go through the exhaustive grid
oracles (``tests/oracles.py``), and fig19's threshold climb must report
the full grid's diagonal and peak, while the ledger shows the ≥10×
simulated-run reduction on the decision-heavy experiments.  Also pins the
fig16 SLO-search memo: a hit must be byte-for-byte the cold result and
spend zero additional console runs.
"""

import pytest

from repro.cluster import alibaba_like_trace, mbe_improvement_grid
from repro.cluster.mbe import best_thresholds
from repro.core.console import SmartConsole
from repro.experiments import EXPERIMENTS, ExperimentContext
from tests.oracles import grid_configure, grid_max_offload_under_slo

__all__: list[str] = []

SCALE = 0.15
SEED = 3

#: experiments whose configuration decisions flow through the tuner
TUNED = ["fig08", "fig16", "fig19", "ablation", "tier_study", "cxl_study",
         "phase_tuning"]

#: experiments reporting the run ledger in their metrics, with the floor
#: their reduction must clear (fig19's tuner burns a diagonal the grid
#: also prints, so its floor is the surface-to-climb ratio rather than
#: the batching ratio)
REDUCTION_FLOOR = {"phase_tuning": 10.0, "fig19": 5.0}


def _use_grid(monkeypatch):
    """Route every console decision through the exhaustive grid oracles."""
    monkeypatch.setattr(SmartConsole, "configure", grid_configure)
    monkeypatch.setattr(SmartConsole, "max_offload_under_slo", grid_max_offload_under_slo)
    # fig16 memoizes decisions per console fingerprint: keep the grid's
    # entries apart so the tuner run cannot be served the grid's results
    fingerprint = SmartConsole.fingerprint
    monkeypatch.setattr(SmartConsole, "fingerprint", lambda self: (*fingerprint(self), "grid"))


def _run(name):
    ctx = ExperimentContext(scale=SCALE, seed=SEED)
    return EXPERIMENTS[name](ctx), ctx


def _run_grid(name):
    with pytest.MonkeyPatch.context() as mp:
        _use_grid(mp)
        return _run(name)


def _fig19_grid_rows():
    """fig19's rows from the full (alpha, beta) grid instead of the climb."""
    from repro.experiments.fig19 import _N_MACHINES, _N_SNAPSHOTS, THRESHOLDS

    rows = []
    for year in (2017, 2018):
        u = alibaba_like_trace(
            year, n_machines=_N_MACHINES, n_snapshots=_N_SNAPSHOTS, seed=SEED
        ).utilization
        grid = mbe_improvement_grid(u, THRESHOLDS, THRESHOLDS)
        a, b, peak = best_thresholds(u, THRESHOLDS, THRESHOLDS)
        rows += [[year, float(t), float(grid[i, i])] for i, t in enumerate(THRESHOLDS)]
        rows.append([year, f"peak(a={a:.2f},b={b:.2f})", peak])
    return rows


@pytest.mark.parametrize("name", TUNED)
def test_tuner_reproduces_grid_outputs(name):
    model, model_ctx = _run(name)
    if name == "fig19":
        assert model.rows == _fig19_grid_rows()
    else:
        grid, _ = _run_grid(name)
        assert model.rows == grid.rows
        strip = lambda m: {k: v for k, v in m.items() if not k.startswith("tune_")}
        assert strip(model.metrics) == strip(grid.metrics)
    floor = REDUCTION_FLOOR.get(name)
    if floor is not None:
        assert model.metrics["tune_runs"] > 0
        reduction = model.metrics["tune_grid_runs"] / model.metrics["tune_runs"]
        assert reduction >= floor, (name, model.metrics)
    # console-mediated experiments: the shared ledger shows the same story
    stats = model_ctx.console.stats
    if stats.grid_runs:
        assert stats.reduction() >= 10.0, stats.snapshot()
        assert stats.scalar_runs == 0  # tuner never falls back to scalar


def test_console_ledger_counts_grid_reference():
    # on the grid the ledger's spent == reference: reduction is exactly 1
    _, ctx = _run_grid("fig08")
    stats = ctx.console.stats
    assert stats.grid_runs == stats.scalar_runs > 0
    assert stats.batches == 0


def test_fig16_memo_hit_is_byte_for_byte():
    from repro.experiments.fig16 import _offload_for

    ctx = ExperimentContext(scale=SCALE, seed=SEED)
    # an SLO no other test or experiment uses: the process-wide memo must
    # be cold here so the hit/no-spend assertions actually bite
    cold = _offload_for(ctx, "lg-bfs", 1.43)
    runs_after_cold = ctx.console.stats.runs
    assert runs_after_cold > 0
    warm = _offload_for(ctx, "lg-bfs", 1.43)
    assert warm == cold
    assert ctx.console.stats.runs == runs_after_cold  # hit spends nothing
    # slo=None is a distinct memoized key, not a missing argument
    none_slo = _offload_for(ctx, "lg-bfs", None)
    assert none_slo == (0.0, 1.0)
    assert ctx.console.stats.runs == runs_after_cold
    assert _offload_for(ctx, "lg-bfs", None) == none_slo


def test_fig16_memo_keys_on_console_fingerprint():
    from repro.experiments.fig16 import _offload_for

    ctx = ExperimentContext(scale=SCALE, seed=SEED)
    before = ctx.console.stats.runs
    _offload_for(ctx, "lg-bc", 1.37)  # unique SLO: memo is cold (see above)
    assert ctx.console.stats.runs - before > 0
    # same args on a console with a different tunable must NOT alias the memo
    ctx2 = ExperimentContext(scale=SCALE, seed=SEED)
    ctx2.console = SmartConsole(slo_hit_ratio=0.8)
    _offload_for(ctx2, "lg-bc", 1.37)
    assert ctx2.console.stats.runs > 0  # re-ran the search
    # the same tunables alias: a fresh default console is served the memo
    ctx3 = ExperimentContext(scale=SCALE, seed=SEED)
    _offload_for(ctx3, "lg-bc", 1.37)
    assert ctx3.console.stats.runs == 0


def test_phase_tuning_reports_gain_and_validation():
    ctx = ExperimentContext(scale=SCALE, seed=SEED)
    res = EXPERIMENTS["phase_tuning"](ctx)
    # per-phase consoles never offload less on average than whole-trace
    assert res.metrics["mean_phase_offload_gain"] >= 0.0
    assert res.metrics["tune_replay_runs"] + res.metrics["tune_replay_cache_hits"] > 0
    # the experiment isolates its ledger from the shared console
    assert ctx.console.stats.runs == 0
    # one "all" row per tenant plus one row per phase
    tenants = {r[0] for r in res.rows}
    for t in tenants:
        phases = [r[1] for r in res.rows if r[0] == t]
        assert phases.count("all") == 1
        assert len(phases) == 5
