"""Unit tests for far-memory device models.

The paper-level facts these pin down:

* Fig 2b ordering: disk >> SSD > RDMA > DRAM (> CXL) per-page latency;
* Fig 5a: RDMA end-to-end latency falls as unit size grows (fixed total);
* granularity amplification: moving 1 byte at 2 MiB granularity costs a
  full huge page of wire time;
* I/O width helps until the media/link pipe binds.
"""

import dataclasses

import pytest

from repro.devices import (
    BackendKind,
    CXLMemory,
    FM_TECH_CATALOG,
    FarDRAM,
    HDD,
    NVMeSSD,
    RDMANic,
    make_device,
)
from repro.devices.registry import pcie4_x16_bandwidth
from repro.errors import ConfigurationError
from repro.faults import FaultPlan, FaultyDevice
from repro.simcore import Simulator
from repro.topology import PCIeGen, PCIeSwitch
from repro.units import GB, KiB, MiB, PAGE_SIZE, mib


@pytest.fixture()
def sim():
    return Simulator()


def test_fig2b_backend_latency_ordering(sim):
    """Per-4KiB-page latency: HDD >> SSD > RDMA > DRAM > CXL."""
    hdd = HDD(sim)
    ssd = NVMeSSD(sim)
    rdma = RDMANic(sim)
    dram = FarDRAM(sim)
    cxl = CXLMemory(sim)
    lat = {d.name: d.page_latency() for d in (hdd, ssd, rdma, dram, cxl)}
    assert lat["hdd0"] > lat["nvme0"] > lat["mlx5_0"] > lat["fardram0"] > lat["cxl0"]
    # sanity magnitudes: HDD in ms, SSD in tens of us, RDMA in single-digit us
    assert lat["hdd0"] > 1e-3
    assert 20e-6 < lat["nvme0"] < 300e-6
    assert 1e-6 < lat["mlx5_0"] < 20e-6


def test_fig5a_latency_falls_with_unit_size(sim):
    """Loading 64 MiB over RDMA: bigger units amortize verb costs."""
    rdma = RDMANic(sim)
    total = 64 * MiB
    sizes = [4 * KiB, 16 * KiB, 64 * KiB, 256 * KiB, 1 * MiB]
    lats = [rdma.transfer_latency(total, granularity=g, io_width=1) for g in sizes]
    assert all(a > b for a, b in zip(lats, lats[1:]))
    # and the curve flattens: the marginal gain shrinks
    gains = [a / b for a, b in zip(lats, lats[1:])]
    assert gains[0] > gains[-1]


def test_granularity_amplification(sim):
    """A 1-byte request at 2 MiB granularity pays for the whole granule."""
    rdma = RDMANic(sim)
    tiny_at_huge = rdma.transfer_latency(1, granularity=2 * MiB, io_width=1)
    full_huge = rdma.transfer_latency(2 * MiB, granularity=2 * MiB, io_width=1)
    assert tiny_at_huge == pytest.approx(full_huge)


def test_io_width_helps_then_saturates(sim):
    ssd = NVMeSSD(sim, channels=8)
    total = 32 * MiB
    t1 = ssd.transfer_latency(total, io_width=1)
    t4 = ssd.transfer_latency(total, io_width=4)
    t8 = ssd.transfer_latency(total, io_width=8)
    assert t1 > t4 >= t8
    # width is clamped at the channel count: asking for more changes nothing
    assert ssd.transfer_latency(total, io_width=64) == pytest.approx(t8)


def test_width_cannot_beat_media_bandwidth(sim):
    """At full width, throughput is capped by the media rate."""
    ssd = NVMeSSD(sim, channels=8)
    total = 256 * MiB
    t = ssd.transfer_latency(total, granularity=128 * KiB, io_width=8)
    assert total / t <= ssd.profile.read_bandwidth * 1.001


def test_pcie_slot_caps_device_bandwidth(sim):
    sw = PCIeSwitch(sim, gen=PCIeGen.GEN4, width=16)
    # a hypothetical very fast DRAM device behind a narrow x1 gen1 slot
    link = sw.attach(PCIeGen.GEN1, 1, name="narrow")
    dram = FarDRAM(sim, link=link)
    assert dram.effective_bandwidth() == pytest.approx(link.bandwidth)


def test_hdd_seek_dominates_small_ops(sim):
    hdd = HDD(sim)
    page = hdd.page_latency()
    assert page > 4e-3  # one seek per 4 KiB op
    # sequential extents amortize: effective streaming bandwidth within 2x of media
    assert hdd.sequential_bandwidth() > hdd.profile.read_bandwidth / 20


def test_ssd_write_faster_than_read(sim):
    ssd = NVMeSSD(sim)
    assert ssd.page_latency(write=True) < ssd.page_latency(write=False)


def test_rdma_srq_discount(sim):
    rdma = RDMANic(sim)
    base = rdma.page_latency()
    rdma.enable_srq()
    assert rdma.page_latency() < base
    rdma.disable_srq()
    assert rdma.page_latency() == pytest.approx(base)


def test_rdma_virtual_function_shares_slot(sim):
    sw = PCIeSwitch(sim)
    rdma = make_device(sim, BackendKind.RDMA, switch=sw)
    vf = rdma.virtual_function(share=0.5)
    assert vf.link is rdma.link
    assert vf.profile.read_bandwidth == pytest.approx(rdma.profile.read_bandwidth * 0.5)
    with pytest.raises(ValueError):
        rdma.virtual_function(share=0.0)


def test_des_read_accounts_bytes(sim):
    ssd = NVMeSSD(sim)
    done = sim.process(ssd.read(mib(1)))
    sim.run(until=done)
    assert ssd.bytes_read == mib(1)
    assert ssd.ops == 1


def test_des_concurrent_ops_queue_on_channels(sim):
    ssd = NVMeSSD(sim, channels=1)
    t_done = []

    def op():
        yield from ssd.read(PAGE_SIZE)
        t_done.append(sim.now)

    sim.process(op())
    sim.process(op())
    sim.run()
    assert t_done[1] >= 2 * t_done[0] * 0.95  # serialized on one channel


@pytest.mark.parametrize("granularity", [0, -PAGE_SIZE])
@pytest.mark.parametrize("entry", ["io", "faulty_io"])
def test_des_io_rejects_non_positive_granularity(sim, entry, granularity):
    """Every DES entry point raises the same ConfigurationError before
    taking a channel."""
    ssd = NVMeSSD(sim)
    gen = {
        "io": lambda: ssd.read(PAGE_SIZE, granularity=granularity),
        "faulty_io": lambda: FaultyDevice(ssd, FaultPlan()).read(
            PAGE_SIZE, granularity=granularity),
    }[entry]()
    proc = sim.process(gen)
    with pytest.raises(ConfigurationError, match="granularity must be positive"):
        sim.run(until=proc)
    assert ssd.channel_pool.in_use == 0 and ssd.ops == 0


def test_transfer_latency_zero_bytes(sim):
    assert NVMeSSD(sim).transfer_latency(0) == 0.0


def test_transfer_latency_validates(sim):
    ssd = NVMeSSD(sim)
    with pytest.raises(ConfigurationError):
        ssd.transfer_latency(100, granularity=0)
    with pytest.raises(ConfigurationError):
        ssd.transfer_latency(100, io_width=0)


def test_fig1b_catalog_range():
    """The commercial FM technologies span 7.9 - 46 GB/s, all below the
    64 GB/s PCIe 4.0 x16 ceiling — the motivating gap."""
    bws = [t.bandwidth for t in FM_TECH_CATALOG]
    assert min(bws) == pytest.approx(7.9 * GB)
    assert max(bws) == pytest.approx(46 * GB)
    ceiling = pcie4_x16_bandwidth()
    assert all(b < ceiling for b in bws)
    assert ceiling == pytest.approx(64 * GB, rel=0.02)


def test_make_device_all_kinds(sim):
    sw = PCIeSwitch(sim)
    for kind in BackendKind:
        dev = make_device(sim, kind, switch=sw)
        assert dev.link is not None
        assert dev.switch is sw
    assert len(sw.links) == len(BackendKind)


def test_profile_validation(sim):
    from repro.devices.base import DeviceProfile

    with pytest.raises(ConfigurationError):
        DeviceProfile("bad", -1.0, 1.0, 0, 0, 0, 1, 1)
    with pytest.raises(ConfigurationError):
        DeviceProfile("bad", 1.0, 1.0, 0, 0, 0, 0, 1)
    with pytest.raises(ConfigurationError):
        DeviceProfile("bad", 1.0, 1.0, 0, 0, 0, 1, 1, cost_factor=0.0)
    good = DeviceProfile("ok", 1.0, 1.0, 0, 0, 0, 1, 1)
    for name in ("read_bandwidth", "write_bandwidth", "read_op_cost",
                 "write_op_cost", "setup_cost", "cost_factor"):
        with pytest.raises(ConfigurationError):
            dataclasses.replace(good, **{name: float("nan")})
