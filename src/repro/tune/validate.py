"""Replay validation of shortlisted tuner candidates.

The analytic model prunes the candidate lattice; only a shortlist is ever
simulated, via **successive halving over trace-prefix rungs**: every
survivor replays a short prefix first, the weaker half is dropped, and
the survivors graduate to longer prefixes — so the full-length replay is
spent on a couple of finalists instead of the whole lattice.  Prefix
ranking is sound here for the same reason the model's own ratio-sweep
reuse works: swap cost is near-proportional to miss volume at fixed
configuration (DESIGN.md §3.4's homogeneity argument), so relative
ordering stabilizes long before the full trace finishes.

Every executed (trace-prefix, backend, configuration) measurement is
content-addressed in the artifact cache under the full config tuple
(:func:`repro.cache.tune_key`), so repeated tuning runs — and other
experiments validating the same point — pay zero replays.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import cache
from repro.errors import ConfigurationError
from repro.swap.pathmodel import SwapConfig
from repro.trace.schema import PageTrace
from repro.tune.search import TuneStats

__all__ = ["VALIDATE_VERSION", "ValidatedPoint", "validate_shortlist"]

#: Bump when the validation protocol changes measurements (cache guard).
VALIDATE_VERSION = 1

#: Trace-prefix rungs (fractions of the validation window) for halving.
DEFAULT_RUNGS = (0.125, 0.5, 1.0)


@dataclass(frozen=True)
class ValidatedPoint:
    """One replay-measured candidate at the rung it last survived."""

    config: SwapConfig
    local_pages: int
    far_ratio: float
    prefix: int          #: accesses replayed at the final rung reached
    sim_time: float      # simlint: dim[sim_time=seconds]
    faults: int
    swap_ins: int
    cached: bool         #: True when served from the artifact cache


def _replay_point(trace: PageTrace, backend, local_pages: int,
                  far_ratio: float, config: SwapConfig,
                  stats: TuneStats) -> ValidatedPoint:
    digest = trace.content_digest()
    kind_name = str(backend)
    hit = cache.load_tune_point(digest, kind_name, local_pages, far_ratio, config)
    if hit is not None:
        stats.replay_cache_hits += 1
        return ValidatedPoint(config, local_pages, far_ratio, len(trace),
                              hit["sim_time"], hit["faults"], hit["swap_ins"],
                              cached=True)
    from repro.devices.registry import make_device
    from repro.simcore import Simulator
    from repro.swap.executor import SwapExecutor

    sim = Simulator()
    device = make_device(sim, backend)
    executor = SwapExecutor(sim, device, backend, local_pages=local_pages,
                            config=config)
    result = executor.run(trace)
    stats.replay_runs += 1
    if cache.cache_enabled():
        cache.store_tune_point(digest, kind_name, local_pages, far_ratio,
                               config, result)
    return ValidatedPoint(config, local_pages, far_ratio, len(trace),
                          result.sim_time, result.faults, result.swap_ins,
                          cached=False)


def validate_shortlist(
    trace: PageTrace,
    backend,
    candidates: list[tuple[SwapConfig, int, float]],
    stats: TuneStats | None = None,
    rungs: tuple[float, ...] = DEFAULT_RUNGS,
    max_accesses: int = 100_000,
) -> list[ValidatedPoint]:
    """Successive-halving replay of ``(config, local_pages, far_ratio)``.

    Returns the measured points of the final rung's survivors, best
    (lowest measured ``sim_time``) first.  ``max_accesses`` caps the
    validation window so tuning stays cheap on full-scale traces.
    """
    if not candidates:
        raise ConfigurationError("validate_shortlist needs at least one candidate")
    if any(not 0.0 < r <= 1.0 for r in rungs) or list(rungs) != sorted(rungs):
        raise ConfigurationError(f"rungs must be ascending fractions in (0,1], got {rungs}")
    stats = stats if stats is not None else TuneStats()
    window = trace if len(trace) <= max_accesses else trace.slice(0, max_accesses)
    survivors = list(candidates)
    measured: list[ValidatedPoint] = []
    for depth, frac in enumerate(rungs):
        prefix = window if frac >= 1.0 else window.slice(0, max(1, int(len(window) * frac)))
        measured = [
            _replay_point(prefix, backend, local, ratio, config, stats)
            for config, local, ratio in survivors
        ]
        order = sorted(range(len(measured)), key=lambda i: measured[i].sim_time)
        if depth < len(rungs) - 1 and len(survivors) > 1:
            keep = max(1, (len(survivors) + 1) // 2)
            survivors = [survivors[i] for i in order[:keep]]
        else:
            measured = [measured[i] for i in order]
    return measured
