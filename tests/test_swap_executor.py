"""Integration tests: the DES swap executor vs the analytic layer."""

import numpy as np
import pytest

from repro.devices import BackendKind, NVMeSSD, RDMANic
from repro.errors import ConfigurationError
from repro.mem import MissRatioCurve
from repro.mem.page import PageKind
from repro.simcore import Simulator
from repro.swap import SwapConfig, SwapExecutor, SwapPathModel
from repro.trace import fuse, make_trace
from repro.workloads.generators import assemble, sequential_scan, zipf_accesses

LOCAL = 100


def _zipf_trace(n_pages=300, n_accesses=4000, seed=0):
    rng = np.random.default_rng(seed)
    return assemble(rng, zipf_accesses(rng, n_pages, n_accesses, alpha=1.1), anon_ratio=1.0)


def _run(trace, local=LOCAL, device_cls=NVMeSSD, kind=BackendKind.SSD, **kw):
    sim = Simulator()
    ex = SwapExecutor(sim, device_cls(sim), kind, local_pages=local, **kw)
    return ex, ex.run(trace)


def test_executor_counts_are_conserved():
    trace = _zipf_trace()
    ex, res = _run(trace)
    assert res.accesses == len(trace)
    assert res.hits + res.faults + res.cold_allocations + res.file_skips == res.accesses
    assert res.swap_ins == res.faults
    # every page is either resident or in far memory
    assert ex.resident_pages + ex.far_pages >= trace.footprint() - 1


def test_executor_cold_misses_match_mrc_exactly():
    trace = _zipf_trace()
    _, res = _run(trace)
    mrc = MissRatioCurve(pages=trace.anon_only().pages)
    assert res.cold_allocations == mrc.cold_misses


def test_executor_faults_track_analytic_mrc():
    """The kernel-style 2-gen LRU may beat exact LRU slightly, never by much."""
    trace = _zipf_trace()
    _, res = _run(trace)
    mrc = MissRatioCurve(pages=trace.anon_only().pages)
    analytic = mrc.capacity_misses(LOCAL)
    assert res.faults <= analytic * 1.05
    assert res.faults >= analytic * 0.7


def test_executor_skips_file_backed():
    """Section IV-A1: file-backed page operations skip the swap frontend."""
    pages = np.arange(200)
    kinds = np.where(pages % 2 == 0, PageKind.ANON, PageKind.FILE)
    trace = make_trace(np.tile(pages, 3), kinds=np.tile(kinds, 3))
    ex, res = _run(trace, local=50)
    assert res.file_skips == 300
    assert res.faults + res.cold_allocations + res.hits == 300
    assert ex.frontend.module("ssd").device.bytes_written > 0
    assert not [p for p in ex.frontend._owner if p % 2]  # no file-backed far copy


def test_executor_fits_entirely_no_faults():
    trace = _zipf_trace(n_pages=50)
    _, res = _run(trace, local=64)
    assert res.faults == 0
    assert res.cold_allocations == 50
    assert res.sim_time < 1e-3  # only fault costs, none paid


def test_executor_more_memory_fewer_faults():
    trace = _zipf_trace()
    _, small = _run(trace, local=60)
    _, big = _run(trace, local=200)
    assert big.faults < small.faults


def test_executor_rdma_faster_than_ssd():
    trace = _zipf_trace()
    _, ssd = _run(trace)
    _, rdma = _run(trace, device_cls=RDMANic, kind=BackendKind.RDMA)
    assert rdma.sim_time < ssd.sim_time
    assert rdma.fault_latency.mean < ssd.fault_latency.mean


def test_executor_time_orders_like_analytic_model():
    """DES and closed form must agree on which backend is faster."""
    trace = _zipf_trace()
    features = fuse(trace)
    sim = Simulator()
    cfg = SwapConfig()
    t_analytic = {}
    for cls, kind in ((NVMeSSD, BackendKind.SSD), (RDMANic, BackendKind.RDMA)):
        model = SwapPathModel(cls(sim), features)
        t_analytic[kind] = model.cost(LOCAL, cfg).sys_time
    _, ssd = _run(trace)
    _, rdma = _run(trace, device_cls=RDMANic, kind=BackendKind.RDMA)
    assert (t_analytic[BackendKind.SSD] > t_analytic[BackendKind.RDMA]) == (
        ssd.sim_time > rdma.sim_time
    )


def test_executor_validates():
    sim = Simulator()
    with pytest.raises(ConfigurationError):
        SwapExecutor(sim, NVMeSSD(sim), BackendKind.SSD, local_pages=1)


def test_executor_sequential_cycling_faults_everything():
    """A cyclic scan larger than local memory misses every revisited page."""
    rng = np.random.default_rng(1)
    trace = assemble(rng, sequential_scan(200, passes=3), anon_ratio=1.0)
    _, res = _run(trace, local=50)
    assert res.cold_allocations == 200
    assert res.faults == 400  # passes 2 and 3 miss all 200 pages


def test_executor_clean_pages_skip_writeback():
    """Read-only working sets re-reclaim via swap-cache drops, not rewrites."""
    rng = np.random.default_rng(9)
    pages = zipf_accesses(rng, 300, 4000, alpha=1.1)
    read_only = assemble(rng, pages, anon_ratio=1.0, store_ratio=0.0)
    write_heavy = assemble(rng, pages, anon_ratio=1.0, store_ratio=1.0)
    _, ro = _run(read_only)
    _, wh = _run(write_heavy)
    assert ro.clean_drops > 0
    assert ro.swap_outs < wh.swap_outs
    assert wh.clean_drops == 0  # every page re-dirtied before reclaim
    assert ro.sim_time < wh.sim_time  # skipped writebacks save real time
