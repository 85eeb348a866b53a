"""Unit tests for PCIe and NUMA topology models."""

import numpy as np
import pytest

from repro.errors import CapacityError, ConfigurationError
from repro.simcore import Simulator
from repro.topology import (
    NUMADomain,
    NUMANode,
    PCIeGen,
    PCIeLink,
    PCIeSwitch,
    ServerSpec,
    paper_testbed,
    pcie_lane_bandwidth,
)
from repro.units import GB, GBps, gib


# ----------------------------------------------------------------- PCIe
def test_lane_bandwidth_monotone_in_generation():
    bws = [pcie_lane_bandwidth(g) for g in PCIeGen]
    assert all(b2 > b1 for b1, b2 in zip(bws, bws[1:]))


def test_gen4_x16_is_about_64_gbps():
    """The paper's headline: PCIe 4.0 x16 offers ~64 GB/s (bidirectional)."""
    bw = 2 * pcie_lane_bandwidth(PCIeGen.GEN4) * 16
    assert bw == pytest.approx(64 * GB, rel=0.02)
    # and PCIe 5.0 offers ~128 GB/s (Section II-A)
    assert 2 * pcie_lane_bandwidth(PCIeGen.GEN5) * 16 == pytest.approx(128 * GB, rel=0.02)


def test_gen5_x32_doubling_trend():
    """Each generation roughly doubles the previous one."""
    for lo, hi in zip(list(PCIeGen)[:-1], list(PCIeGen)[1:]):
        ratio = pcie_lane_bandwidth(hi) / pcie_lane_bandwidth(lo)
        assert 1.8 <= ratio <= 2.2


def test_link_bandwidth_scales_with_width():
    sim = Simulator()
    x8 = PCIeLink(sim, gen=PCIeGen.GEN3, width=8)
    x16 = PCIeLink(sim, gen=PCIeGen.GEN3, width=16)
    assert x16.bandwidth == pytest.approx(2 * x8.bandwidth)


def test_link_rejects_bad_width():
    sim = Simulator()
    with pytest.raises(ConfigurationError):
        PCIeLink(sim, width=3)


def test_link_rejects_bad_efficiency():
    sim = Simulator()
    with pytest.raises(ConfigurationError):
        PCIeLink(sim, efficiency=0.0)
    with pytest.raises(ConfigurationError):
        PCIeLink(sim, efficiency=1.5)


def test_link_transfer_takes_bytes_over_bandwidth():
    sim = Simulator()
    link = PCIeLink(sim, gen=PCIeGen.GEN3, width=16)
    nbytes = 1 * GB
    done = link.transfer(nbytes)
    sim.run(until=done)
    assert sim.now == pytest.approx(nbytes / link.bandwidth)


def test_switch_oversubscription_with_multiple_backends():
    """Two gen3 slots (x16 + x8) oversubscribe... nothing on a gen4 x16 root,
    but four of them do — the multi-backend premise."""
    sim = Simulator()
    sw = PCIeSwitch(sim, gen=PCIeGen.GEN4, width=16)
    for i in range(4):
        sw.attach(PCIeGen.GEN3, 16, name=f"slot{i}")
    assert sw.oversubscription() > 1.0


def test_switch_shared_pipe_contention():
    sim = Simulator()
    sw = PCIeSwitch(sim, gen=PCIeGen.GEN3, width=4)  # small shared pipe
    n = int(sw.bandwidth)  # 1 second worth of bytes
    t_done = []

    def flow():
        yield sw.transfer(n)
        t_done.append(sim.now)

    sim.process(flow())
    sim.process(flow())
    sim.run()
    # two equal flows through the shared pipe: each takes 2 seconds
    assert t_done == [pytest.approx(2.0), pytest.approx(2.0)]


# ----------------------------------------------------------------- NUMA
def test_numa_two_socket_layout():
    dom = NUMADomain.two_socket()
    assert len(dom) == 2
    assert dom.total_cpus == 20
    assert dom.total_memory == gib(64)


def test_numa_local_vs_remote_latency():
    dom = NUMADomain.two_socket(remote_distance=21.0)
    local = dom.access_latency(0, 0)
    remote = dom.access_latency(0, 1)
    assert remote == pytest.approx(local * 2.1)
    assert dom.remote_penalty(0, 1) == pytest.approx(2.1)
    assert dom.remote_penalty(0, 0) == pytest.approx(1.0)


def test_numa_allocation_and_release():
    node = NUMANode(0, 4, gib(8))
    node.allocate(gib(5))
    assert node.free == gib(3)
    with pytest.raises(CapacityError):
        node.allocate(gib(4))
    node.release(gib(5))
    assert node.free == gib(8)


def test_numa_release_validates():
    node = NUMANode(0, 4, gib(8))
    with pytest.raises(ValueError):
        node.release(1)


def test_numa_pick_memory_node_prefers_local():
    dom = NUMADomain.two_socket()
    assert dom.pick_memory_node(0, gib(1)) == 0


def test_numa_pick_memory_node_spills_to_remote():
    dom = NUMADomain.two_socket(mem_per_socket=gib(4))
    dom.nodes[0].allocate(gib(4))
    assert dom.pick_memory_node(0, gib(1)) == 1
    with pytest.raises(CapacityError):
        dom.pick_memory_node(0, gib(1), spill=False)


def test_numa_exhausted_everywhere_raises():
    dom = NUMADomain.two_socket(mem_per_socket=gib(1))
    dom.nodes[0].allocate(gib(1))
    dom.nodes[1].allocate(gib(1))
    with pytest.raises(CapacityError):
        dom.pick_memory_node(0, 1)


def test_numa_cxl_node_is_cpuless_and_farther():
    dom = NUMADomain.two_socket().with_cxl_node()
    assert len(dom) == 3
    assert dom.nodes[2].cpuless
    assert dom.access_latency(0, 2) > dom.access_latency(0, 1)


def test_numa_validates_slit():
    nodes = [NUMANode(0, 2, gib(1)), NUMANode(1, 2, gib(1))]
    with pytest.raises(ConfigurationError):
        NUMADomain(nodes, np.array([[10.0, 5.0], [5.0, 10.0]]))  # <10 invalid
    with pytest.raises(ConfigurationError):
        NUMADomain(nodes, np.array([[12.0, 21.0], [21.0, 12.0]]))  # diag != 10


def test_numa_node_cpuless_consistency():
    with pytest.raises(ConfigurationError):
        NUMANode(0, 0, gib(1), cpuless=False)
    with pytest.raises(ConfigurationError):
        NUMANode(0, 4, gib(1), cpuless=True)


# ----------------------------------------------------------------- Server
def test_paper_testbed_matches_section_va1():
    spec = paper_testbed()
    assert spec.total_cores == 20
    assert spec.dram_bytes == gib(64)
    assert spec.dram_bandwidth == pytest.approx(GBps(134.0))
    assert spec.ssd_bandwidth == pytest.approx(GBps(3.8))
    assert spec.hdd_bandwidth == pytest.approx(GBps(0.4))
    assert spec.rdma_port_bandwidth == pytest.approx(GBps(10.0))


def test_server_numa_domain_splits_memory():
    dom = paper_testbed().numa_domain()
    assert dom.nodes[0].mem_bytes == gib(32)
    assert dom.nodes[1].mem_bytes == gib(32)


@pytest.mark.parametrize("field, value", [
    ("dram_bytes", -1), ("dram_bandwidth", -1.0), ("ssd_bytes", -1),
    ("ssd_bandwidth", -0.5), ("hdd_bytes", -1), ("hdd_bandwidth", -1.0),
    ("rdma_port_bandwidth", -1.0), ("sockets", 0), ("sockets", -2),
    ("rdma_ports", 0), ("rdma_ports", -1),
    ("dram_bandwidth", float("nan")), ("ssd_bandwidth", float("nan")),
    ("hdd_bandwidth", float("nan")), ("rdma_port_bandwidth", float("nan")),
])
def test_server_spec_rejects_negative_capacity(field, value):
    """Negative capacities and bandwidths, and fewer than one socket or
    RDMA port (both are divisors), fail at construction."""
    with pytest.raises(ConfigurationError, match=field):
        ServerSpec(**{field: value})
    assert ServerSpec(dram_bytes=0).dram_bytes == 0  # FM-only blade
