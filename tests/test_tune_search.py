"""Tuner search engine: identical choices to the grid at far fewer runs.

The console's tuner must pick *identical* configurations — config,
predicted cost, SLO ratio, bit for bit — to the exhaustive grid
reference (``tests/oracles.py``), while the ``TuneStats`` ledger shows
the ≥10× run reduction.  The hill climb and threshold tuner are pinned
against the full-grid argmax on real cluster traces.
"""

import numpy as np
import pytest

from repro.cluster import alibaba_like_trace
from repro.cluster.mbe import best_thresholds, tuned_thresholds
from repro.core.console import SmartConsole
from repro.devices import NVMeSSD, RDMANic
from repro.errors import ConfigurationError
from repro.rng import derive
from repro.simcore import Simulator
from repro.swap import SwapPathModel
from repro.trace import fuse
from repro.tune import climb_lattice
from repro.workloads.generators import assemble, sequential_scan, zipf_accesses
from tests.oracles import grid_configure, grid_max_offload_under_slo

__all__: list[str] = []


def _features(n_pages=1024, alpha=1.05, seed=11, store=0.2):
    rng = derive(seed, "tests/tune-search")
    pages = zipf_accesses(rng, n_pages, n_pages * 4, alpha=alpha)
    return fuse(assemble(rng, pages, anon_ratio=1.0, store_ratio=store))


def _decide(mode, device_cls, features, par, fm_ratio=None):
    console = SmartConsole()
    configure = grid_configure if mode == "grid" else SmartConsole.configure
    decision = configure(
        console, features, device_cls(Simulator()), fault_parallelism=par, fm_ratio=fm_ratio
    )
    return decision, console.stats


def _slo_search(mode, device_cls, features, par, slo, compute=0.05):
    console = SmartConsole()
    search = (grid_max_offload_under_slo if mode == "grid"
              else SmartConsole.max_offload_under_slo)
    found = search(
        console, features, device_cls(Simulator()), compute, slo, fault_parallelism=par
    )
    return found, console.stats


@pytest.mark.parametrize("device_cls", [RDMANic, NVMeSSD])
@pytest.mark.parametrize("par", [1.0, 8.0])
def test_configure_identical_to_grid(device_cls, par):
    f = _features()
    for fm_ratio in (None, 0.3, 0.8):
        grid, _ = _decide("grid", device_cls, f, par, fm_ratio)
        model, stats = _decide("model", device_cls, f, par, fm_ratio)
        assert model == grid  # config, ratio, local_pages, predicted cost
        assert stats.batches >= 1 and stats.scalar_runs == 0


@pytest.mark.parametrize("device_cls", [RDMANic, NVMeSSD])
@pytest.mark.parametrize("slo", [1.1, 1.5])
def test_slo_search_identical_to_grid(device_cls, slo):
    f = _features(store=0.4)
    for par in (1.0, 8.0):
        grid, _ = _slo_search("grid", device_cls, f, par, slo)
        model, stats = _slo_search("model", device_cls, f, par, slo)
        assert model == grid  # (ratio, full ConfigDecision) pair
        # the 12-step search always collapses to 2 batches; the ≥10×
        # reduction then follows whenever the lattice has ≥2 points
        # (real Table V lattices do — asserted in test_tune_experiments)
        assert stats.runs == 2
        if par > 1.0:
            assert stats.reduction() >= 10.0, stats.snapshot()


def test_slo_search_infeasible_matches_grid():
    # a hopeless budget on a scan whose reuse distance spans the whole
    # footprint: any offload at all misses, so both modes return (0.0, None)
    rng = derive(5, "tests/tune-search-infeasible")
    f = fuse(assemble(rng, sequential_scan(512, passes=4),
                      anon_ratio=1.0, store_ratio=0.8))
    grid, _ = _slo_search("grid", RDMANic, f, 1.0, 1.0 + 1e-12, compute=1e-9)
    model, _ = _slo_search("model", RDMANic, f, 1.0, 1.0 + 1e-12, compute=1e-9)
    assert grid == (0.0, None)
    assert model == (0.0, None)


def test_slo_search_run_accounting():
    f = _features()
    _, stats = _slo_search("model", RDMANic, f, 8.0, 1.3)
    s = stats.snapshot()
    # 12 bisection steps in chunks of 6 -> exactly 2 batches, and the grid
    # reference burns 12 x |lattice| scalar runs
    assert s["batches"] == 2
    assert s["grid_runs"] % 12 == 0
    assert s["runs"] == 2
    _, gstats = _slo_search("grid", RDMANic, f, 8.0, 1.3)
    assert gstats.scalar_runs == s["grid_runs"]


def test_stats_add_and_reduction():
    from repro.tune import TuneStats

    a = TuneStats(scalar_runs=1, batches=2, model_points=50, replay_runs=3,
                  replay_cache_hits=1, grid_runs=120)
    b = TuneStats(batches=1, grid_runs=30)
    a.add(b)
    assert a.batches == 3 and a.grid_runs == 150
    assert a.runs == 1 + 3 + 3
    assert a.reduction() == pytest.approx(150 / 7)
    assert TuneStats().reduction() == 0.0


def test_climb_lattice_finds_quadratic_peak():
    peak = (7, 11)
    value = lambda i, j: -((i - peak[0]) ** 2 + (j - peak[1]) ** 2)
    cell, best, evals = climb_lattice(value, shape=(16, 16), seed=(0, 0))
    assert cell == peak and best == 0.0
    assert evals < 16 * 16  # strictly cheaper than the full grid


def test_climb_lattice_memo_makes_cells_free():
    calls = []

    def value(i, j):
        calls.append((i, j))
        return -(i ** 2) - (j ** 2)

    memo = {(i, j): -(i ** 2) - (j ** 2) for i in range(3) for j in range(3)}
    cell, best, evals = climb_lattice(value, shape=(3, 3), seed=(2, 2), memo=memo)
    assert cell == (0, 0) and evals == 0 and not calls


def test_climb_lattice_respects_validity_mask():
    # peak of the unconstrained surface lies outside the feasible triangle
    value = lambda i, j: i - j
    cell, best, _ = climb_lattice(
        value, shape=(8, 8), seed=(0, 0), valid=lambda i, j: j >= i
    )
    assert cell[1] >= cell[0]
    assert best == 0.0  # best feasible cells sit on the diagonal
    with pytest.raises(ConfigurationError):
        climb_lattice(value, shape=(8, 8), seed=(5, 0), valid=lambda i, j: j >= i)


@pytest.mark.parametrize("year", [2017, 2018])
@pytest.mark.parametrize("seed", [None, 7])
def test_tuned_thresholds_match_grid_argmax(year, seed):
    thresholds = np.round(np.linspace(0.1, 0.9, 17), 3)
    trace = alibaba_like_trace(year, n_machines=300, n_snapshots=6, seed=seed)
    a_g, b_g, peak_g = best_thresholds(trace.utilization, thresholds, thresholds)
    a_t, b_t, peak_t, evals = tuned_thresholds(
        trace.utilization, thresholds, thresholds
    )
    assert (a_t, b_t, peak_t) == (a_g, b_g, peak_g)
    n_cells = sum(1 for a in thresholds for b in thresholds if b >= a)
    assert evals < n_cells / 2  # far cheaper than one full grid pass


def test_tuned_thresholds_needs_square_axes():
    trace = alibaba_like_trace(2017, n_machines=50, n_snapshots=2, seed=0)
    with pytest.raises(ConfigurationError):
        tuned_thresholds(trace.utilization, np.array([0.1, 0.5]),
                         np.array([0.2, 0.6]))
