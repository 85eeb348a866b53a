"""Fleet-scale sweep: lease-driven replay, determinism, and the fabric.

Locks in the fleet layer's contract:

* ``fleet_study`` output is byte-identical across process-pool worker
  counts and across cold/warm artifact caches (same seed);
* per-node counters from the sweep are bit-identical to a standalone
  :func:`~repro.cluster.fleet.simulate_node` call with the same lease
  schedule;
* a sweep is one artifact-cache entry: a warm sweep runs no node job, a
  failing sweep stores nothing, and corrupt, mis-shaped or stale-plan
  entries are misses;
* realized MBE of every epoch's match stays within the documented bound
  of the analytic metric;
* donor failures cascade into actual failover switches on the borrowers
  they backed;
* the rack fabric's fair-share arithmetic (spine discount, weights).
"""

import multiprocessing
import os
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace

import pytest

from repro import cache
from repro.cluster import fleet
from repro.cluster.fleet import (
    FLEET_VERSION,
    FleetConfig,
    fleet_jobs_from_env,
    plan_fleet,
    run_fleet,
    simulate_node,
)
from repro.cluster.mbe import mbe
from repro.errors import ConfigurationError
from repro.experiments.context import ExperimentContext
from repro.experiments.runner import run_experiment
from repro.topology.rack import RackFabric

__all__: list[str] = []


def _render(scale, seed, jobs, monkeypatch, cache_dir=None):
    if cache_dir is None:
        monkeypatch.setenv("REPRO_CACHE", "0")
    else:
        monkeypatch.setenv("REPRO_CACHE", "1")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(cache_dir))
    monkeypatch.setenv("REPRO_FLEET_JOBS", str(jobs))
    return run_experiment("fleet_study", ExperimentContext(scale=scale, seed=seed)).render()


def test_fleet_study_deterministic_across_jobs(monkeypatch):
    serial = _render(0.02, 23, 1, monkeypatch)
    fanned = _render(0.02, 23, 2, monkeypatch)
    assert serial == fanned


def test_fleet_study_deterministic_cold_vs_warm_cache(tmp_path, monkeypatch):
    cold = _render(0.02, 23, 1, monkeypatch, cache_dir=tmp_path)
    h0, m0 = cache.cache_stats()
    warm = _render(0.02, 23, 1, monkeypatch, cache_dir=tmp_path)
    h1, m1 = cache.cache_stats()
    assert cold == warm
    assert h1 - h0 > 0, "warm run never hit the fleet cache"
    assert m1 - m0 == 0, "warm run missed despite a populated cache"
    # and the cached output equals the uncached one bit for bit
    assert cold == _render(0.02, 23, 1, monkeypatch)


def test_fleet_jobs_from_env(monkeypatch):
    monkeypatch.delenv("REPRO_FLEET_JOBS", raising=False)
    assert fleet_jobs_from_env() == 1
    monkeypatch.setenv("REPRO_FLEET_JOBS", "3")
    assert fleet_jobs_from_env() == 3
    for bad in ("two", "", "1.5", "0", "-2"):
        monkeypatch.setenv("REPRO_FLEET_JOBS", bad)
        with pytest.raises(ConfigurationError, match="REPRO_FLEET_JOBS"):
            fleet_jobs_from_env()


def test_sweep_counters_bit_identical_to_standalone(monkeypatch):
    """The acceptance anchor: fleet-run counters == standalone replay."""
    monkeypatch.setenv("REPRO_CACHE", "0")
    cfg = FleetConfig(n_nodes=40, n_snapshots=2, seed=5)
    result = run_fleet(cfg, jobs=2)
    assert len(result.jobs) == len(result.assignments) > 0
    for a, j in zip(result.assignments[:12], result.jobs[:12]):
        assert simulate_node(cfg, a) == j


def test_realized_mbe_within_documented_bound():
    cfg = FleetConfig(n_nodes=120, n_snapshots=3, seed=9)
    _, epochs, _, _ = plan_fleet(cfg)
    assert len(epochs) == 3
    for e in epochs:
        assert e.realized_mbe == pytest.approx(e.analytic_mbe, abs=1e-9)
        assert e.analytic_mbe == pytest.approx(
            e.realized_mbe, abs=1e-9
        )  # symmetric, vs mbe(..., fabric_limit) by construction
        assert 0.0 <= e.stranding_pct <= 100.0


def test_donor_failure_cascades_to_failover(monkeypatch):
    monkeypatch.setenv("REPRO_CACHE", "0")
    cfg = FleetConfig(n_nodes=60, n_snapshots=2, seed=7, failure_rate=0.05)
    _, _, assignments, _ = plan_fleet(cfg)
    down = [a for a in assignments if a.donor_down]
    assert down, "seeded failure rate produced no cascades; bump the rate"
    result = simulate_node(cfg, down[0])
    assert result.failovers >= 1
    # a healthy borrower never switches
    healthy = next(a for a in assignments if not a.donor_down)
    assert simulate_node(cfg, healthy).failovers == 0


def _use_cache(monkeypatch, cache_dir):
    monkeypatch.setenv("REPRO_CACHE", "1")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(cache_dir))


def _count_node_jobs(monkeypatch) -> list:
    """Record every node job ``run_fleet`` starts in this process."""
    calls = []
    real = fleet.simulate_node

    def counted(cfg, a):
        calls.append(a)
        return real(cfg, a)

    monkeypatch.setattr(fleet, "simulate_node", counted)
    return calls


def _sweep_key(cfg):
    _, _, assignments, _ = plan_fleet(cfg)
    return cfg.fingerprint(), fleet._plan_digest(assignments), len(assignments)


def test_fleet_cache_round_trip(tmp_path, monkeypatch):
    """A warm sweep is one whole-entry load and no node job."""
    _use_cache(monkeypatch, tmp_path)
    cfg = FleetConfig(n_nodes=40, n_snapshots=2, seed=5)
    cold = run_fleet(cfg)
    assert len(list(tmp_path.rglob("fleet-*.npz"))) == 1
    calls = _count_node_jobs(monkeypatch)
    h0, m0 = cache.cache_stats()
    warm = run_fleet(cfg)
    h1, m1 = cache.cache_stats()
    assert (h1 - h0, m1 - m0) == (1, 0)
    assert calls == []
    assert warm == cold


def test_standalone_simulate_node_writes_no_cache(tmp_path, monkeypatch):
    _use_cache(monkeypatch, tmp_path)
    cfg = FleetConfig(n_nodes=40, n_snapshots=1, seed=5)
    _, _, assignments, _ = plan_fleet(cfg)
    simulate_node(cfg, assignments[0])
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("jobs, death", [(1, "raise"), (2, "raise"), (2, "exit")])
def test_failing_node_job_leaves_no_sweep_entry(tmp_path, monkeypatch, jobs, death):
    """A job that raises, or a worker that dies, fails the sweep loudly and
    stores nothing — not even the jobs that finished."""
    if jobs > 1 and multiprocessing.get_start_method() != "fork":
        pytest.skip("pool workers see the patched job only when forked")
    _use_cache(monkeypatch, tmp_path)
    cfg = FleetConfig(n_nodes=40, n_snapshots=2, seed=5)
    _, _, assignments, _ = plan_fleet(cfg)
    victim = assignments[len(assignments) // 2]
    real = fleet.simulate_node

    def dying(cfg, a):
        if a == victim:
            if death == "exit":
                os._exit(1)
            raise RuntimeError(f"node job {a.epoch}/{a.node} died")
        return real(cfg, a)

    monkeypatch.setattr(fleet, "simulate_node", dying)
    error = BrokenProcessPool if death == "exit" else RuntimeError
    with pytest.raises(error):
        run_fleet(cfg, jobs=jobs)
    assert list(tmp_path.rglob("fleet-*")) == []


def test_truncated_sweep_entry_is_dropped_and_regenerated(tmp_path, monkeypatch):
    _use_cache(monkeypatch, tmp_path)
    cfg = FleetConfig(n_nodes=40, n_snapshots=2, seed=5)
    cold = run_fleet(cfg)
    (entry,) = tmp_path.rglob("fleet-*.npz")
    entry.write_bytes(entry.read_bytes()[: entry.stat().st_size // 2])
    _, m0 = cache.cache_stats()
    assert cache.load_fleet_sweep(*_sweep_key(cfg)) is None
    assert cache.cache_stats()[1] == m0 + 1
    assert not entry.exists() and not entry.with_suffix(".json").exists()
    calls = _count_node_jobs(monkeypatch)
    assert run_fleet(cfg) == cold
    assert len(calls) == len(cold.jobs)
    assert entry.exists()


def test_sweep_entry_with_wrong_row_count_is_a_miss(tmp_path, monkeypatch):
    _use_cache(monkeypatch, tmp_path)
    cfg = FleetConfig(n_nodes=40, n_snapshots=2, seed=5)
    cold = run_fleet(cfg)
    fingerprint, digest, n_jobs = _sweep_key(cfg)
    cache.store_fleet_sweep(fingerprint, digest, cold.jobs[:-1])
    assert cache.load_fleet_sweep(fingerprint, digest, n_jobs) is None
    calls = _count_node_jobs(monkeypatch)
    assert run_fleet(cfg) == cold
    assert len(calls) == n_jobs


def test_changed_plan_misses_the_sweep_cache(tmp_path, monkeypatch):
    """An unversioned planner change re-runs the sweep instead of serving
    results simulated against the old lease schedule."""
    _use_cache(monkeypatch, tmp_path)
    cfg = FleetConfig(n_nodes=40, n_snapshots=2, seed=5)
    run_fleet(cfg)
    real_plan = fleet.plan_fleet

    def drifted(cfg):
        fabric, epochs, assignments, grants = real_plan(cfg)
        a = assignments[0]
        assignments[0] = replace(a, eff_bandwidth=a.eff_bandwidth / 2)
        return fabric, epochs, assignments, grants

    monkeypatch.setattr(fleet, "plan_fleet", drifted)
    calls = _count_node_jobs(monkeypatch)
    h0, m0 = cache.cache_stats()
    result = run_fleet(cfg)
    h1, m1 = cache.cache_stats()
    assert (h1 - h0, m1 - m0) == (0, 1)
    assert len(calls) == len(result.jobs)


def test_fleet_key_versioned():
    cfg = FleetConfig(n_nodes=40, seed=5)
    key = cache.fleet_key(cfg.fingerprint(), "ab" * 32)
    assert key["fleet_version"] == FLEET_VERSION
    assert key["plan_digest"] == "ab" * 32
    assert {k: key[k] for k in cfg.fingerprint()} == cfg.fingerprint()
    assert cache.fleet_key(cfg.fingerprint(), "cd" * 32) != key


def test_rack_fabric_fair_share_and_spine():
    fabric = RackFabric(n_nodes=64, rack_size=32, spine_factor=0.5)
    assert fabric.n_racks == 2
    assert fabric.same_rack(0, 31) and not fabric.same_rack(0, 32)
    bw = fabric.links[0].bandwidth
    # donor 1 (same rack) carries own weight 0.3 + lease 0.1; donor 40
    # (cross-rack) is dedicated to the lease -> full share, spine-halved
    grants = [(1, 0.1), (40, 0.2)]
    weights = {1: 0.4, 40: 0.2}
    eff = fabric.effective_bandwidth(0, grants, weights)
    assert eff == pytest.approx((0.1 / 0.4) * bw + 1.0 * bw * 0.5)
    # accounting: credited bytes show up as port utilization
    fabric.account_transfer(1, bw * 0.25)
    utils = fabric.port_utilizations(1.0)
    assert utils[1] == pytest.approx(0.25)
    assert utils[0] == 0.0


def test_rack_fabric_validation():
    with pytest.raises(ConfigurationError):
        RackFabric(n_nodes=0)
    with pytest.raises(ConfigurationError):
        RackFabric(n_nodes=4, spine_factor=0.0)
    with pytest.raises(ConfigurationError):
        RackFabric(n_nodes=4).rack_of(4)


def test_fleet_config_validation():
    with pytest.raises(ConfigurationError):
        FleetConfig(n_nodes=1)
    with pytest.raises(ConfigurationError):
        FleetConfig(store_ratio=1.5)
    with pytest.raises(ConfigurationError):
        FleetConfig(failure_rate=-0.1)
    with pytest.raises(ConfigurationError):
        FleetConfig(pages_per_job=1)


def test_plan_matches_pool_metric_directly():
    """Epoch summaries agree with an independent mbe() evaluation."""
    from repro.cluster.trace_gen import alibaba_like_trace

    cfg = FleetConfig(n_nodes=80, n_snapshots=2, seed=13)
    _, epochs, _, _ = plan_fleet(cfg)
    trace = alibaba_like_trace(
        cfg.year, n_machines=cfg.n_nodes, n_snapshots=cfg.n_snapshots, seed=cfg.seed
    )
    for e in epochs:
        expected = mbe(
            trace.snapshot(e.epoch), cfg.alpha, cfg.beta, fabric_limit=cfg.fabric_limit
        )
        assert e.analytic_mbe == expected
