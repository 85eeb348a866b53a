"""PCIe interconnect model.

Encodes per-generation, per-lane usable bandwidth (after encoding overhead)
and models links and a root-complex/switch as fair-share pipes.  The
figures match the paper's framing: PCIe 4.0 x16 ~ 64 GB/s (Fig 1),
PCIe 5.0 ~ 128 GB/s (Section II-A), speeds doubling roughly every three
years (Fig 3).

A :class:`PCIeLink` is the device-facing edge (e.g. the x8 slot an NVMe
SSD occupies); a :class:`PCIeSwitch` is the shared upstream pipe several
links funnel into.  Both wrap :class:`~repro.simcore.bandwidth.FairShareLink`
so concurrent far-memory backends contend realistically.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.simcore import FairShareLink, Simulator
from repro.units import GBps

__all__ = ["PCIeGen", "pcie_lane_bandwidth", "PCIeLink", "PCIeSwitch", "PCIE_TREND_YEARS"]


class PCIeGen(enum.IntEnum):
    """PCI Express generation."""

    GEN1 = 1
    GEN2 = 2
    GEN3 = 3
    GEN4 = 4
    GEN5 = 5
    GEN6 = 6


#: Usable bandwidth per lane per direction, GB/s (vendor/decimal units),
#: after 8b/10b (gen1-2) / 128b/130b (gen3-5) / FLIT (gen6) encoding.
_LANE_GBPS: dict[PCIeGen, float] = {
    PCIeGen.GEN1: 0.25,
    PCIeGen.GEN2: 0.5,
    PCIeGen.GEN3: 0.985,
    PCIeGen.GEN4: 1.969,
    PCIeGen.GEN5: 3.938,
    PCIeGen.GEN6: 7.563,
}

#: Approximate first-product year per generation (Fig 3's "doubles every
#: three years" trend line).
PCIE_TREND_YEARS: dict[PCIeGen, int] = {
    PCIeGen.GEN1: 2003,
    PCIeGen.GEN2: 2007,
    PCIeGen.GEN3: 2010,
    PCIeGen.GEN4: 2017,
    PCIeGen.GEN5: 2019,
    PCIeGen.GEN6: 2022,
}

_VALID_WIDTHS = (1, 2, 4, 8, 16)


def pcie_lane_bandwidth(gen: PCIeGen) -> float:
    """Usable bytes/second per lane per direction for generation ``gen``."""
    return GBps(_LANE_GBPS[gen])


@dataclass
class PCIeLink:
    """A point-to-point PCIe link: one slot, one device.

    Parameters mirror ``lspci``-visible facts: generation ("Speed 8GT/s" in
    Table VII is gen3) and lane width.  The effective payload bandwidth is
    further derated by ``efficiency`` (TLP header overhead, flow control),
    defaulting to the ~92% realizable on large DMA reads.
    """

    sim: Simulator
    gen: PCIeGen = PCIeGen.GEN3
    width: int = 16
    efficiency: float = 0.92
    name: str = ""
    _pipe: FairShareLink = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.width not in _VALID_WIDTHS:
            raise ConfigurationError(f"PCIe width must be one of {_VALID_WIDTHS}, got {self.width}")
        if not 0.0 < self.efficiency <= 1.0:
            raise ConfigurationError(f"efficiency must be in (0, 1], got {self.efficiency}")
        self._pipe = FairShareLink(self.sim, self.bandwidth, name=f"pcie:{self.name}")

    @property
    def raw_bandwidth(self) -> float:
        """Per-direction line-rate bytes/second before protocol overhead."""
        return pcie_lane_bandwidth(self.gen) * self.width

    @property
    def bandwidth(self) -> float:
        """Payload bytes/second per direction."""
        return self.raw_bandwidth * self.efficiency

    def transfer(self, nbytes: float):
        """Begin a DMA of ``nbytes``; returns a completion event."""
        return self._pipe.transfer(nbytes)

    def utilization(self, horizon: float | None = None) -> float:
        """Busy fraction of this link since t=0 (or ``horizon``)."""
        return self._pipe.utilization(horizon)

    @property
    def bytes_moved(self) -> float:
        """Total payload bytes DMA'd through this link."""
        return self._pipe.total_bytes


class PCIeSwitch:
    """A shared upstream pipe aggregating several downstream links.

    Models the root complex (or a PLX switch) that all far-memory devices
    ultimately share.  Transfers issued via :meth:`transfer` contend here
    *in addition to* their own slot link; callers route each DMA through
    both stages (slot first, then switch), which is what
    :class:`repro.devices.base.FarMemoryDevice` does.
    """

    def __init__(
        self,
        sim: Simulator,
        gen: PCIeGen = PCIeGen.GEN4,
        width: int = 16,
        efficiency: float = 0.92,
        name: str = "root-complex",
    ) -> None:
        if width not in _VALID_WIDTHS:
            raise ConfigurationError(f"PCIe width must be one of {_VALID_WIDTHS}, got {width}")
        self.sim = sim
        self.gen = gen
        self.width = width
        self.efficiency = efficiency
        self.name = name
        self.bandwidth = pcie_lane_bandwidth(gen) * width * efficiency
        self._pipe = FairShareLink(sim, self.bandwidth, name=f"pcie-sw:{name}")
        self.links: list[PCIeLink] = []

    def attach(self, gen: PCIeGen, width: int, name: str = "") -> PCIeLink:
        """Create a downstream slot link hanging off this switch."""
        link = PCIeLink(self.sim, gen=gen, width=width, efficiency=self.efficiency, name=name)
        self.links.append(link)
        return link

    def transfer(self, nbytes: float):
        """Contend for the shared upstream pipe."""
        return self._pipe.transfer(nbytes)

    def utilization(self, horizon: float | None = None) -> float:
        """Busy fraction of the shared pipe."""
        return self._pipe.utilization(horizon)

    @property
    def bytes_moved(self) -> float:
        """Total payload bytes through the shared pipe."""
        return self._pipe.total_bytes

    def aggregate_downstream_bandwidth(self) -> float:
        """Sum of attached slot bandwidths — the oversubscription numerator."""
        return sum(l.bandwidth for l in self.links)

    def oversubscription(self) -> float:
        """Downstream:upstream bandwidth ratio (>1 once multi-backend)."""
        return self.aggregate_downstream_bandwidth() / self.bandwidth

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<PCIeSwitch {self.name} gen{int(self.gen)}x{self.width} "
            f"{self.bandwidth / 1e9:.1f}GB/s links={len(self.links)}>"
        )
