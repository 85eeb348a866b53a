"""Unit tests for the compressed-DRAM (zswap) backend."""

import pytest

from repro.devices import BackendKind, FarDRAM, NVMeSSD, RDMANic, ZswapPool, make_device
from repro.errors import ConfigurationError
from repro.simcore import Simulator
from repro.swap import SwapExecutor, build_backend_module
from repro.units import gib


@pytest.fixture()
def sim():
    return Simulator()


def test_zswap_capacity_is_ratio_scaled(sim):
    z = ZswapPool(sim, pool_bytes=gib(8), compression_ratio=3.0)
    assert z.effective_capacity == gib(24)
    assert z.dram_cost_per_logical_byte() == pytest.approx(1 / 3)


def test_zswap_latency_between_dram_and_ssd(sim):
    """zswap is the middle tier: slower than raw far-DRAM copies (it burns
    CPU compressing) but far faster than any PCIe storage device."""
    z = ZswapPool(sim)
    assert FarDRAM(sim).page_latency() < z.page_latency() < NVMeSSD(sim).page_latency()
    assert z.page_latency() < RDMANic(sim).page_latency()


def test_zswap_write_slower_than_read(sim):
    z = ZswapPool(sim)
    assert z.page_latency(write=True) > z.page_latency(write=False)  # compress > decompress


def test_zswap_entropy_scaling(sim):
    compressible = ZswapPool.for_entropy(sim, gib(8), data_entropy=0.0)
    incompressible = ZswapPool.for_entropy(sim, gib(8), data_entropy=1.0)
    assert compressible.effective_capacity > incompressible.effective_capacity * 3
    assert incompressible.compression_ratio == pytest.approx(1.05)
    with pytest.raises(ConfigurationError):
        ZswapPool.for_entropy(sim, gib(8), data_entropy=2.0)


def test_zswap_validates(sim):
    with pytest.raises(ConfigurationError):
        ZswapPool(sim, compression_ratio=0.9)
    with pytest.raises(ConfigurationError):
        ZswapPool(sim, pool_bytes=100)


def test_zswap_registered_as_backend_kind(sim):
    dev = make_device(sim, BackendKind.ZSWAP)
    assert isinstance(dev, ZswapPool)
    module = build_backend_module(sim, BackendKind.ZSWAP, dev)
    sim.run(until=module.start())
    sim.run(until=sim.process(module.store(1)))
    assert module.holds(1)


def test_zswap_executor_end_to_end(sim):
    """A trace runs end-to-end against the zswap tier, faster than SSD."""
    import numpy as np

    from repro.workloads.generators import assemble, zipf_accesses

    rng = np.random.default_rng(2)
    trace = assemble(rng, zipf_accesses(rng, 200, 3000, alpha=1.1), anon_ratio=1.0)
    z_res = SwapExecutor(sim, ZswapPool(sim), BackendKind.ZSWAP, local_pages=60).run(trace)
    sim2 = Simulator()
    s_res = SwapExecutor(sim2, NVMeSSD(sim2), BackendKind.SSD, local_pages=60).run(trace)
    assert z_res.faults == s_res.faults  # same LRU discipline
    assert z_res.sim_time < s_res.sim_time
