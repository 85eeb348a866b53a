"""Unit + property tests for the analytic swap path model.

These pin down the *mechanisms* (directions and invariants), not absolute
numbers: granularity batching helps sequential and hurts random traffic;
width helps up to the workload's parallelism; hierarchy and sharing always
cost; multi-path beats the slowest single path.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devices import FarDRAM, NVMeSSD, RDMANic
from repro.errors import ConfigurationError
from repro.simcore import Simulator
from repro.swap import (
    ChannelMode,
    MultiPathModel,
    PathType,
    SwapConfig,
    SwapPathModel,
)
from repro.trace import fuse, make_trace
from repro.units import KiB, MiB, PAGE_SIZE
from repro.workloads.generators import assemble, sequential_scan, zipf_accesses


@pytest.fixture()
def sim():
    return Simulator()


def _features(kind: str, n_pages: int = 2048, passes: int = 4):
    rng = np.random.default_rng(11)
    if kind == "seq":
        pages = sequential_scan(n_pages, passes=passes)
    else:
        pages = zipf_accesses(rng, n_pages, n_pages * passes, alpha=1.05)
    return fuse(assemble(rng, pages, anon_ratio=1.0, store_ratio=0.2))


def test_zero_misses_zero_cost(sim):
    f = _features("seq")
    m = SwapPathModel(RDMANic(sim), f)
    cost = m.cost(f.mrc.n_pages + 10, SwapConfig())
    assert cost.misses == 0
    assert cost.sys_time == 0.0
    assert cost.bytes_total == 0.0


def test_more_local_memory_never_hurts(sim):
    f = _features("rand")
    m = SwapPathModel(RDMANic(sim), f)
    cfg = SwapConfig()
    costs = [m.cost(c, cfg).sys_time for c in (64, 256, 1024, f.mrc.n_pages)]
    assert all(a >= b for a, b in zip(costs, costs[1:]))


def test_granularity_helps_sequential_traffic(sim):
    f = _features("seq")
    m = SwapPathModel(RDMANic(sim), f)
    small = m.cost(512, SwapConfig(granularity=PAGE_SIZE, synchronous_faults=False))
    big = m.cost(512, SwapConfig(granularity=1 * MiB, synchronous_faults=False))
    assert big.sys_time < small.sys_time
    assert big.ops_in < small.ops_in


def test_granularity_amplifies_random_traffic(sim):
    f = _features("rand")
    m = SwapPathModel(RDMANic(sim), f)
    small = m.cost(256, SwapConfig(granularity=PAGE_SIZE))
    big = m.cost(256, SwapConfig(granularity=2 * MiB))
    assert big.bytes_in > small.bytes_in * 10  # massive wasted bytes
    assert big.sys_time > small.sys_time       # and it shows in time


def test_io_width_helps_parallel_workloads_only(sim):
    f = _features("rand")
    serial = SwapPathModel(RDMANic(sim), f, fault_parallelism=1)
    parallel = SwapPathModel(RDMANic(sim), f, fault_parallelism=16)
    c1 = SwapConfig(io_width=1)
    c8 = SwapConfig(io_width=8)
    assert serial.cost(256, c8).sys_time == pytest.approx(serial.cost(256, c1).sys_time, rel=0.2)
    assert parallel.cost(256, c8).sys_time < parallel.cost(256, c1).sys_time


def test_hierarchical_path_costs_more(sim):
    f = _features("seq")
    m = SwapPathModel(NVMeSSD(sim), f)
    flat = m.cost(512, SwapConfig(path=PathType.FLAT))
    hier = m.cost(512, SwapConfig(path=PathType.HIERARCHICAL))
    assert hier.sys_time > flat.sys_time
    assert hier.per_op_latency > flat.per_op_latency


def test_shared_channel_interference_and_queueing(sim):
    f = _features("rand")
    m = SwapPathModel(RDMANic(sim), f)
    alone = m.cost(256, SwapConfig(channel=ChannelMode.SHARED, co_tenants=0))
    crowded = m.cost(256, SwapConfig(channel=ChannelMode.SHARED, co_tenants=3))
    assert crowded.misses > alone.misses          # LRU interference
    assert crowded.per_op_latency > alone.per_op_latency  # queueing
    assert crowded.sys_time > alone.sys_time
    # an isolated channel neither shares its LRU nor queues behind
    # tenants: its whole cost (misses, sys_time, ...) ignores co_tenants
    iso_alone, iso_crowded = (
        m.cost(256, SwapConfig(channel=ChannelMode.ISOLATED, co_tenants=k))
        for k in (0, 3)
    )
    assert iso_crowded.misses == iso_alone.misses
    assert iso_crowded == iso_alone


def test_vm_isolated_small_tax_vs_isolated(sim):
    f = _features("rand")
    m = SwapPathModel(RDMANic(sim), f)
    iso = m.cost(256, SwapConfig(channel=ChannelMode.ISOLATED))
    vmiso = m.cost(256, SwapConfig(channel=ChannelMode.VM_ISOLATED))
    assert 1.0 < vmiso.sys_time / iso.sys_time < 1.15


def test_async_completion_cuts_kernel_time(sim):
    f = _features("rand")
    m = SwapPathModel(RDMANic(sim), f, fault_parallelism=8)
    sync = m.cost(256, SwapConfig(synchronous_faults=True, io_width=8))
    asyn = m.cost(256, SwapConfig(synchronous_faults=False, io_width=8))
    assert asyn.sys_time < sync.sys_time


def test_merge_pages_only_helps_sequential(sim):
    f_seq = _features("seq")
    f_rand = _features("rand")
    dev = NVMeSSD(sim)
    seq_nomerge = SwapPathModel(dev, f_seq).cost(512, SwapConfig(merge_pages=1))
    seq_merge = SwapPathModel(dev, f_seq).cost(512, SwapConfig(merge_pages=8))
    assert seq_merge.sys_time < seq_nomerge.sys_time
    rand_nomerge = SwapPathModel(dev, f_rand).cost(256, SwapConfig(merge_pages=1))
    rand_merge = SwapPathModel(dev, f_rand).cost(256, SwapConfig(merge_pages=8))
    assert rand_merge.sys_time == pytest.approx(rand_nomerge.sys_time, rel=0.05)


def test_throughput_and_runtime_accessors(sim):
    f = _features("seq")
    m = SwapPathModel(RDMANic(sim), f)
    cost = m.cost(512, SwapConfig())
    assert cost.runtime(1.0) == pytest.approx(1.0 + cost.stall_time)
    assert cost.throughput(1.0) == pytest.approx(cost.bytes_total / (1.0 + cost.stall_time))


def test_local_pages_for_ratio(sim):
    f = _features("rand")
    m = SwapPathModel(RDMANic(sim), f)
    assert m.local_pages_for(0.0) == f.mrc.n_pages
    assert m.local_pages_for(0.9) == pytest.approx(f.mrc.n_pages * 0.1, abs=2)
    with pytest.raises(ConfigurationError):
        m.local_pages_for(0.95)


def test_config_validation():
    with pytest.raises(ConfigurationError):
        SwapConfig(granularity=100)
    with pytest.raises(ConfigurationError):
        SwapConfig(io_width=0)
    with pytest.raises(ConfigurationError):
        SwapConfig(readahead_pages=0)
    with pytest.raises(ConfigurationError):
        SwapConfig(max_readahead_pages=4, readahead_pages=8)
    with pytest.raises(ConfigurationError):
        SwapConfig(co_tenants=-1)
    with pytest.raises(ConfigurationError):
        SwapConfig(merge_pages=0)


def test_model_validates_parallelism(sim):
    f = _features("seq")
    # NaN passes a plain `< 1` check, so it is an input of its own
    for bad in (0.5, float("nan")):
        with pytest.raises(ConfigurationError):
            SwapPathModel(RDMANic(sim), f, fault_parallelism=bad)


# ----------------------------------------------------------- multi-path
def test_multipath_beats_single_path(sim):
    f = _features("seq")
    cfg = SwapConfig(synchronous_faults=False, io_width=8)
    one = SwapPathModel(NVMeSSD(sim), f, fault_parallelism=8)
    two = MultiPathModel([
        (SwapPathModel(NVMeSSD(sim), f, fault_parallelism=8), cfg),
        (SwapPathModel(NVMeSSD(sim), f, fault_parallelism=8), cfg),
    ])
    t1 = one.cost(512, cfg)
    t2 = two.cost(512)
    assert t2.t_in < t1.t_in           # parallel transfer
    assert t2.sys_time < t1.sys_time


def test_multipath_shares_proportional_to_bandwidth(sim):
    f = _features("seq")
    cfg = SwapConfig()
    fast = SwapPathModel(RDMANic(sim), f)
    slow = SwapPathModel(NVMeSSD(sim), f)
    mp = MultiPathModel([(fast, cfg), (slow, cfg)])
    shares = mp.shares()
    assert shares[0] > shares[1]
    assert sum(shares) == pytest.approx(1.0)


def test_multipath_conserves_traffic(sim):
    f = _features("rand")
    cfg = SwapConfig()
    single = SwapPathModel(RDMANic(sim), f).cost(256, cfg)
    mp = MultiPathModel([
        (SwapPathModel(RDMANic(sim), f), cfg),
        (SwapPathModel(RDMANic(sim), f), cfg),
    ]).cost(256)
    assert mp.misses == pytest.approx(single.misses, rel=0.01)
    assert mp.bytes_total == pytest.approx(single.bytes_total, rel=0.01)


def test_multipath_requires_paths():
    with pytest.raises(ConfigurationError):
        MultiPathModel([])


@given(
    local=st.integers(min_value=1, max_value=4096),
    g_exp=st.integers(min_value=0, max_value=9),
    width=st.integers(min_value=1, max_value=8),
)
@settings(max_examples=40, deadline=None)
def test_cost_invariants(local, g_exp, width):
    sim = Simulator()
    f = _features("rand", n_pages=512, passes=3)
    m = SwapPathModel(RDMANic(sim), f, fault_parallelism=4)
    cfg = SwapConfig(granularity=PAGE_SIZE * (2**g_exp), io_width=width)
    cost = m.cost(local, cfg)
    assert cost.sys_time >= 0 and cost.stall_time >= 0
    assert cost.bytes_in >= cost.misses * PAGE_SIZE * 0.0  # non-negative
    assert cost.blocking_faults <= cost.misses + 1
    if cost.misses:
        # amplification never moves less than the useful bytes
        assert cost.bytes_in >= cost.ops_in * cfg.granularity * 0.99
