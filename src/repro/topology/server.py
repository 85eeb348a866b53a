"""Server node specification — the paper's testbed in one object.

Section V-A1: "Each server node is provided with two 10-core Xeon CPUs,
(larger than) 64 GB of DRAM memory (134 GB/s), 1TB SSD (3.8 GB/s), 6 TB of
HDD (0.4 GB/s), and Mellanox ConnectX-5 RDMA NICs supporting dual-port
10 GB/s bandwidth."  :func:`paper_testbed` builds exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.simcore import Simulator
from repro.topology.numa import NUMADomain
from repro.topology.pcie import PCIeGen, PCIeSwitch
from repro.units import GBps, gib, tib

__all__ = ["ServerSpec", "paper_testbed"]


@dataclass
class ServerSpec:
    """Static description of one server's compute/memory/I-O envelope."""

    name: str = "node"
    sockets: int = 2
    cores_per_socket: int = 10
    dram_bytes: int = gib(64)
    dram_bandwidth: float = GBps(134.0)
    ssd_bytes: int = tib(1)
    ssd_bandwidth: float = GBps(3.8)
    hdd_bytes: int = tib(6)
    hdd_bandwidth: float = GBps(0.4)
    rdma_ports: int = 2
    rdma_port_bandwidth: float = GBps(10.0)
    pcie_gen: PCIeGen = PCIeGen.GEN4
    pcie_width: int = 16
    extra: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        # dram_bytes == 0 is legal: an FM-only expander blade
        for name in ("dram_bytes", "dram_bandwidth", "ssd_bytes", "ssd_bandwidth",
                     "hdd_bytes", "hdd_bandwidth", "rdma_port_bandwidth"):
            if not getattr(self, name) >= 0:  # negated so NaN fails too
                raise ConfigurationError(f"{name} must be >= 0, got {getattr(self, name)}")
        # numa_domain() divides by sockets, a fleet lease device by rdma_ports
        for name in ("sockets", "rdma_ports"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be >= 1, got {getattr(self, name)}")

    @property
    def total_cores(self) -> int:
        """CPU cores across all sockets."""
        return self.sockets * self.cores_per_socket

    def numa_domain(self) -> NUMADomain:
        """NUMA layout implied by this spec (memory split evenly)."""
        return NUMADomain.two_socket(
            cpus_per_socket=self.cores_per_socket,
            mem_per_socket=self.dram_bytes // self.sockets,
        )

    def pcie_switch(self, sim: Simulator) -> PCIeSwitch:
        """Root complex for this server."""
        return PCIeSwitch(
            sim, gen=self.pcie_gen, width=self.pcie_width, name=f"{self.name}:rc"
        )


def paper_testbed(name: str = "node") -> ServerSpec:
    """The SC'24 xDM testbed server, verbatim from Section V-A1."""
    return ServerSpec(name=name)
