"""Per-tenant × per-phase configuration tuning (tuner-unlocked sweep).

A whole-trace SLO search picks **one** far-memory configuration per
tenant, sized for the worst phase.  Real applications move through phases
(load, build, iterate, serve) whose working sets and access patterns
differ, so a per-phase console can offload more during light phases while
still meeting the SLO in heavy ones.  Exhaustively grid-sweeping every
(tenant, phase) cell is what made this unaffordable: each SLO search
burns ``12 × |lattice|`` scalar model runs, and the phase axis multiplies
it.  The tuner's batched bisection (DESIGN.md §3.4) makes each cell cost
two vectorized batches, and replay validation of the chosen configs is
shortlisted and content-addressed in the artifact cache — re-runs pay
zero replays.

Reported per (tenant, phase): the chosen ratio/granularity/width, the
predicted stall, and — per tenant — the offload gained over the
whole-trace decision.  ``tune_*`` metrics carry the simulated-run ledger
(grid-equivalent vs spent) plus the replay validation counts.
"""

from __future__ import annotations

from repro.devices import BackendKind
from repro.experiments.context import ExperimentContext
from repro.experiments.tables import ExperimentResult
from repro.trace.fusion import fuse
from repro.tune.search import TuneStats
from repro.tune.validate import validate_shortlist
from repro.units import PAGE_SIZE
from repro.workloads import swap_friendly_names

__all__ = ["run", "N_PHASES", "SLO"]

N_PHASES = 4
#: tight runtime budget — loose SLOs saturate every phase at the 0.9
#: ratio cap and hide the phase structure this experiment is about
SLO = 1.05
_N_TENANTS = 4
_BACKEND = BackendKind.RDMA
#: replay-validation window per validated candidate (keeps full-scale
#: traces affordable; ranking is stable over prefixes, DESIGN.md §3.4)
_VALIDATE_ACCESSES = 60_000


def run(ctx: ExperimentContext) -> ExperimentResult:
    """Tune each (tenant, phase) cell and validate the picks by replay."""
    tenants = list(swap_friendly_names())[:_N_TENANTS]
    device = ctx.device(_BACKEND)
    stats = TuneStats()
    saved = ctx.console.stats
    ctx.console.stats = stats  # isolate this experiment's ledger
    rows = []
    mean_phase_gain = 0.0
    try:
        for name in tenants:
            w = ctx.workload(name)
            par = w.spec.fault_parallelism
            compute = ctx.compute_time(name)
            trace = w.trace(ctx.scale, ctx.seed)
            whole_ratio, whole_dec = ctx.console.max_offload_under_slo(
                ctx.features(name), device, compute, SLO, fault_parallelism=par
            )
            phase_len = max(1, len(trace) // N_PHASES)
            ratios = []
            shortlist = []
            for p in range(N_PHASES):
                lo = p * phase_len
                hi = len(trace) if p == N_PHASES - 1 else (p + 1) * phase_len
                phase_trace = trace.slice(lo, hi)
                feats = fuse(phase_trace)
                ratio, dec = ctx.console.max_offload_under_slo(
                    feats, device, compute / N_PHASES, SLO, fault_parallelism=par
                )
                ratios.append(ratio)
                if dec is not None:
                    rows.append([
                        name, p, round(ratio, 4),
                        dec.config.granularity // PAGE_SIZE,
                        dec.config.io_width,
                        dec.predicted.stall_time,
                    ])
                    shortlist.append(
                        (phase_trace, dec.config, dec.local_pages, ratio)
                    )
                else:
                    rows.append([name, p, 0.0, 1, 1, 0.0])
            mean_ratio = sum(ratios) / len(ratios)
            mean_phase_gain += mean_ratio - whole_ratio
            rows.append([
                name, "all", round(whole_ratio, 4),
                whole_dec.config.granularity // PAGE_SIZE if whole_dec else 1,
                whole_dec.config.io_width if whole_dec else 1,
                whole_dec.predicted.stall_time if whole_dec else 0.0,
            ])
            # replay-validate the heaviest phase's pick (the SLO-critical
            # one); successive halving + the artifact cache keep this to a
            # couple of short replays, free on re-runs
            if shortlist:
                heaviest = max(shortlist, key=lambda s: s[2])
                phase_trace, config, local, ratio = heaviest
                validate_shortlist(
                    phase_trace, _BACKEND, [(config, local, ratio)],
                    stats=stats, max_accesses=_VALIDATE_ACCESSES,
                )
    finally:
        ctx.console.stats = saved
    mean_phase_gain /= len(tenants)
    metrics = {
        "mean_phase_offload_gain": mean_phase_gain,
        "tune_grid_runs": float(stats.grid_runs),
        "tune_runs": float(stats.runs),
        "tune_reduction": stats.reduction(),
        "tune_replay_runs": float(stats.replay_runs),
        "tune_replay_cache_hits": float(stats.replay_cache_hits),
    }
    return ExperimentResult(
        name="phase_tuning",
        title=f"Per-tenant x per-phase SLO tuning ({N_PHASES} phases, SLO {SLO})",
        headers=["tenant", "phase", "fm_ratio", "granularity_pages", "io_width",
                 "stall_time"],
        rows=rows,
        metrics=metrics,
        notes="phase-local consoles offload more than one whole-trace config; "
              "tuner makes the (tenant x phase) sweep affordable",
    )
