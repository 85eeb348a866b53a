"""Unit tests for cluster nodes, scheduler, traces, and the MBE metric."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    ClusterNode,
    ClusterScheduler,
    RemoteMemoryPool,
    Task,
    UtilizationTrace,
    alibaba_like_trace,
    mbe,
    mbe_improvement_grid,
)
from repro.cluster.mbe import best_thresholds
from repro.errors import CapacityError, ConfigurationError
from repro.rng import derive
from repro.topology.server import ServerSpec
from repro.units import gib


# ---------------------------------------------------------------- node
def test_node_admission_and_release():
    n = ClusterNode("n0", fm_bytes=gib(16))
    n.admit("t1", gib(8), gib(4))
    assert n.memory_utilization == pytest.approx(8 / 64)
    assert n.free_fm == gib(12)
    n.release("t1", gib(8), gib(4))
    assert n.used_local == 0 and n.used_fm == 0


def test_node_rejects_overflow():
    n = ClusterNode("n0")
    with pytest.raises(CapacityError):
        n.admit("big", gib(128))
    with pytest.raises(CapacityError):
        n.admit("fm", gib(1), gib(1))  # node has no FM


def test_node_release_validates():
    n = ClusterNode("n0")
    with pytest.raises(ValueError):
        n.release("ghost", gib(1))


def test_node_zero_dram_reports_zero_utilization():
    """An FM-only expander blade must not divide by zero."""
    n = ClusterNode("exp0", spec=ServerSpec(name="exp0", dram_bytes=0),
                    fm_bytes=gib(64))
    assert n.memory_utilization == 0.0
    assert n.free_local == 0
    assert not n.fits(1)
    n.admit("blade-job", 0, gib(8))
    assert n.memory_utilization == 0.0
    assert n.used_fm == gib(8)


@pytest.mark.parametrize("field", ["fm_bytes", "used_local", "used_fm"])
def test_node_rejects_negative_capacity(field):
    """A negative capacity or reservation fails at construction, with the
    error resize_fm and admit raise (it used to yield free_fm < 0 and a
    negative utilization)."""
    with pytest.raises(ValueError, match=field):
        ClusterNode("n", **{field: -5})


def test_node_resize_fm_below_usage_blocks_admission():
    n = ClusterNode("n0", fm_bytes=gib(16))
    n.admit("t", gib(1), gib(8))
    n.resize_fm(gib(4))  # lease revoked under a running task
    assert n.free_fm < 0
    assert not n.fits(0, 1)
    n.release("t", gib(1), gib(8))
    assert n.free_fm == gib(4)
    with pytest.raises(ValueError):
        n.resize_fm(-1)


# ----------------------------------------------------------------- task
def test_task_reservations():
    t = Task("t", working_set=gib(10), compute_time=10.0, offload_ratio=0.6, runtime_factor=1.4)
    assert t.local_bytes == pytest.approx(gib(4), rel=0.01)
    assert t.fm_bytes == pytest.approx(gib(6), rel=0.01)
    assert t.runtime == pytest.approx(14.0)


def test_task_validation():
    with pytest.raises(ConfigurationError):
        Task("t", working_set=0, compute_time=1.0)
    with pytest.raises(ConfigurationError):
        Task("t", working_set=1, compute_time=1.0, offload_ratio=0.95)
    with pytest.raises(ConfigurationError):
        Task("t", working_set=1, compute_time=1.0, runtime_factor=0.9)


# -------------------------------------------------------------- scheduler
def test_scheduler_serializes_when_memory_bound():
    node = ClusterNode("n0")
    sched = ClusterScheduler([node])
    tasks = [Task(f"t{i}", working_set=gib(40), compute_time=10.0) for i in range(3)]
    sched.run(tasks)
    assert sched.makespan == pytest.approx(30.0)  # one at a time
    assert sched.throughput() == pytest.approx(0.1)


def test_scheduler_offloading_raises_concurrency():
    """The Fig 16 mechanism: offloading shrinks local footprints so more
    tasks run at once; throughput rises despite the runtime inflation."""
    base_node = ClusterNode("n0")
    base = ClusterScheduler([base_node])
    base.run([Task(f"t{i}", working_set=gib(40), compute_time=10.0) for i in range(4)])

    fm_node = ClusterNode("n1", fm_bytes=gib(256))
    fm = ClusterScheduler([fm_node])
    fm.run([
        Task(f"t{i}", working_set=gib(40), compute_time=10.0,
             offload_ratio=0.75, runtime_factor=1.4)
        for i in range(4)
    ])
    assert fm.throughput() > base.throughput() * 2


def test_scheduler_rejects_impossible_task():
    sched = ClusterScheduler([ClusterNode("n0")])
    with pytest.raises(ConfigurationError):
        sched.run([Task("huge", working_set=gib(100), compute_time=1.0)])


def test_scheduler_needs_nodes():
    with pytest.raises(ConfigurationError):
        ClusterScheduler([])


def test_scheduler_throughput_on_empty_results():
    sched = ClusterScheduler([ClusterNode("n0")])
    assert sched.makespan == 0.0
    assert sched.throughput() == 0.0  # no tasks ran: 0/s, not a crash
    sched.run([])
    assert sched.throughput() == 0.0


def test_scheduler_rejects_when_lease_shrinks_mid_run():
    """Lease churn can strand an admitted-at-t0-feasible task: the
    scheduler must re-validate and reject deterministically, naming it."""
    node = ClusterNode("n0", fm_bytes=gib(32))
    sched = ClusterScheduler([node])
    tasks = [
        Task("t0", working_set=gib(80), compute_time=10.0,
             offload_ratio=0.4, runtime_factor=1.2),
        Task("t1", working_set=gib(80), compute_time=10.0,
             offload_ratio=0.4, runtime_factor=1.2),
    ]

    def churn(now):
        node.resize_fm(0)  # the donor backing this node's FM went away

    with pytest.raises(ConfigurationError, match="t1"):
        sched.run(tasks, on_advance=churn)
    assert [r.task.name for r in sched.results] == ["t0"]


def test_scheduler_multi_node_spreads():
    nodes = [ClusterNode(f"n{i}") for i in range(2)]
    sched = ClusterScheduler(nodes)
    sched.run([Task(f"t{i}", working_set=gib(40), compute_time=10.0) for i in range(2)])
    assert sched.makespan == pytest.approx(10.0)
    assert {r.node for r in sched.results} == {"n0", "n1"}


# ------------------------------------------------------------ trace gen
def test_alibaba_2017_mean_matches_paper():
    tr = alibaba_like_trace(2017, n_machines=4000, n_snapshots=24)
    assert tr.mean_utilization == pytest.approx(0.4895, abs=0.02)


def test_alibaba_2018_mean_matches_paper():
    tr = alibaba_like_trace(2018, n_machines=4000, n_snapshots=24)
    assert tr.mean_utilization == pytest.approx(0.8705, abs=0.02)


def test_trace_shape_and_validation():
    tr = alibaba_like_trace(2017, n_machines=100, n_snapshots=5)
    assert tr.n_machines == 100 and tr.n_snapshots == 5
    assert tr.snapshot(0).shape == (100,)
    with pytest.raises(ConfigurationError):
        alibaba_like_trace(2019)
    with pytest.raises(ConfigurationError):
        UtilizationTrace("bad", np.array([[1.5]]))


def test_trace_deterministic_per_seed():
    a = alibaba_like_trace(2017, n_machines=50, n_snapshots=3, seed=1)
    b = alibaba_like_trace(2017, n_machines=50, n_snapshots=3, seed=1)
    c = alibaba_like_trace(2017, n_machines=50, n_snapshots=3, seed=2)
    assert np.array_equal(a.utilization, b.utilization)
    assert not np.array_equal(a.utilization, c.utilization)


# ------------------------------------------------------------------ MBE
def test_mbe_balanced_cluster_is_zero():
    u = np.full(100, 0.5)
    assert mbe(u, 0.4, 0.6) == 0.0


def test_mbe_polarized_cluster_is_positive():
    u = np.concatenate([np.full(50, 0.1), np.full(50, 0.9)])
    assert mbe(u, 0.3, 0.7) > 0.0


def test_mbe_capped_by_smaller_side():
    """One idle machine cannot absorb fifty hot machines' pressure."""
    mostly_hot = np.concatenate([np.full(1, 0.05), np.full(50, 0.95)])
    mostly_idle = np.concatenate([np.full(50, 0.05), np.full(1, 0.95)])
    alpha = beta = 0.5
    assert mbe(mostly_hot, alpha, beta) == pytest.approx(mbe(mostly_idle, alpha, beta), rel=0.5)


def test_mbe_validates():
    with pytest.raises(ConfigurationError):
        mbe(np.array([0.5]), 0.7, 0.3)
    with pytest.raises(ConfigurationError):
        mbe(np.array([]), 0.3, 0.7)
    with pytest.raises(ConfigurationError):
        mbe(np.array([0.5]), 0.3, 0.7, fabric_limit=0.0)


def test_mbe_fabric_limit_caps_both_sides():
    u = np.array([0.0, 1.0])
    assert mbe(u, 0.5, 0.5) == pytest.approx(0.5)
    assert mbe(u, 0.5, 0.5, fabric_limit=0.1) == pytest.approx(0.1)


def test_mbe_nonbinding_fabric_limit_matches_uncapped():
    """With L=1.0 no per-machine term can bind, so the capped branch must
    agree with the paper's definition to float round-off."""
    tr = alibaba_like_trace(2017, n_machines=400, n_snapshots=1)
    snap = tr.snapshot(0)
    assert mbe(snap, 0.4, 0.6, fabric_limit=1.0) == pytest.approx(
        mbe(snap, 0.4, 0.6), abs=1e-12)


def test_mbe_grid_masks_invalid_region():
    u = np.linspace(0, 1, 50)
    grid = mbe_improvement_grid(u, np.array([0.3, 0.6]), np.array([0.4, 0.7]))
    assert np.isnan(grid[1, 0])  # beta 0.4 < alpha 0.6
    assert not np.isnan(grid[0, 0])


def test_best_thresholds_finds_argmax():
    tr = alibaba_like_trace(2017, n_machines=500, n_snapshots=4)
    alphas = np.linspace(0.1, 0.9, 9)
    a, b, v = best_thresholds(tr.utilization, alphas, alphas)
    assert v > 0.0
    assert a <= b


# ----------------------------------------------------------- memory pool
def test_pool_matches_donors_to_borrowers():
    from repro.cluster import RemoteMemoryPool

    u = np.array([0.1, 0.2, 0.9, 0.95])
    pool = RemoteMemoryPool(alpha=0.4, beta=0.7)
    leases = pool.match(u)
    assert leases
    assert all(l.donor in (0, 1) and l.borrower in (2, 3) for l in leases)
    balanced = pool.apply(u)
    # borrowers shed down toward beta; donors rise toward alpha
    assert balanced[2] <= 0.9 and balanced[3] <= 0.95
    assert balanced[0] >= 0.1 and balanced[1] >= 0.2
    assert balanced.sum() == pytest.approx(u.sum())  # memory is conserved


def test_pool_fabric_limit_caps_transfers():
    from repro.cluster import RemoteMemoryPool

    u = np.array([0.0, 1.0])
    pool = RemoteMemoryPool(alpha=0.5, beta=0.5, fabric_limit=0.1)
    pool.match(u)
    assert pool.total_leased == pytest.approx(0.1)


def test_pool_realized_mbe_tracks_metric():
    """The mechanism must deliver exactly what the capped metric promises
    (documented bound: 2*(n_donors+n_borrowers)*1e-12/M plus round-off,
    asserted here as abs=1e-9)."""
    tr = alibaba_like_trace(2017, n_machines=600, n_snapshots=1)
    snap = tr.snapshot(0)
    alpha = beta = 0.5
    pool = RemoteMemoryPool(alpha, beta, fabric_limit=1.0)
    pool.match(snap)
    metric = mbe(snap, alpha, beta, fabric_limit=1.0)
    realized = pool.realized_mbe(tr.n_machines)
    assert realized == pytest.approx(metric, abs=1e-9)
    # with a non-binding limit the capped metric is the paper's uncapped one
    assert metric == pytest.approx(mbe(snap, alpha, beta), abs=1e-12)


def test_pool_realized_mbe_matches_capped_metric_when_limit_binds():
    """Truncated donors mid-match must still land on the capped analytic
    value — the regression this fixes let them drift apart."""
    u = np.array([0.05, 0.1, 0.92, 0.97, 0.99])
    alpha, beta = 0.4, 0.7
    pool = RemoteMemoryPool(alpha, beta, fabric_limit=0.15)
    pool.match(u)
    capped = mbe(u, alpha, beta, fabric_limit=0.15)
    assert pool.realized_mbe(u.size) == pytest.approx(capped, abs=1e-9)
    assert capped < mbe(u, alpha, beta)  # the fabric cap binds here


@given(
    n=st.integers(min_value=1, max_value=120),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    alpha=st.floats(min_value=0.0, max_value=1.0),
    spread=st.floats(min_value=0.0, max_value=1.0),
    limit=st.floats(min_value=1e-3, max_value=1.0),
)
@settings(max_examples=120, deadline=None)
def test_pool_realized_matches_capped_metric_property(
    n, seed, alpha, spread, limit
):
    """Greedy match == capped analytic MBE over random snapshots."""
    beta = min(1.0, alpha + spread * (1.0 - alpha))
    u = derive(seed, "tests/cluster-pool-property").uniform(0.0, 1.0, size=n)
    pool = RemoteMemoryPool(alpha, beta, fabric_limit=limit)
    pool.match(u)
    assert pool.realized_mbe(n) == pytest.approx(
        mbe(u, alpha, beta, fabric_limit=limit), abs=1e-9)


def test_pool_balanced_cluster_no_leases():
    from repro.cluster import RemoteMemoryPool

    pool = RemoteMemoryPool(alpha=0.3, beta=0.7)
    assert pool.match(np.full(10, 0.5)) == []
    assert pool.realized_mbe(10) == 0.0


def test_pool_validates():
    from repro.cluster import Lease, RemoteMemoryPool

    with pytest.raises(ConfigurationError):
        RemoteMemoryPool(alpha=0.8, beta=0.3)
    with pytest.raises(ConfigurationError):
        RemoteMemoryPool(alpha=0.3, beta=0.7, fabric_limit=0.0)
    with pytest.raises(ConfigurationError):
        Lease(borrower=1, donor=1, amount=0.1)
    with pytest.raises(ConfigurationError):
        Lease(borrower=1, donor=2, amount=0.0)
    pool = RemoteMemoryPool(alpha=0.3, beta=0.7)
    with pytest.raises(ConfigurationError):
        pool.match(np.array([]))
