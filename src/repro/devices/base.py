"""Base class and shared latency model for far-memory devices.

The service-time model for one I/O of ``n`` bytes at granularity ``g``::

    t(n) = setup + ceil(n/g) * (per_op + g / media_bw)      (idle device)

``setup`` is the software-stack entry cost paid once per request batch
(syscall/driver/doorbell), ``per_op`` is the per-operation device cost
(NVMe command, RDMA verb post + completion, disk seek for HDD), and
``media_bw`` is the sustained media bandwidth.  Queueing across the
configured I/O width and contention on PCIe are layered on top by the DES
interface; the analytic interface approximates width-``w`` parallelism as a
``1/min(w, ops)`` divisor on the per-op stream with a serial setup.

This captures the two effects the paper's console exploits:

* *granularity* — larger units amortize ``per_op`` (Fig 5a's falling curve)
  but, combined with a low data-fragment ratio, waste media bandwidth
  (the path model applies that amplification, Fig 10);
* *I/O width* — more channels help until ``per_op`` parallelism is
  exhausted or the PCIe/media pipe saturates (Fig 5b's crossing curves).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.errors import ConfigurationError, SimulationError
from repro.simcore import FairShareLink, Resource, Simulator
from repro.topology.pcie import PCIeLink, PCIeSwitch
from repro.units import PAGE_SIZE

__all__ = ["DeviceProfile", "FarMemoryDevice"]


@dataclass(frozen=True)
class DeviceProfile:
    """Immutable performance envelope of a device."""

    #: Human-readable technology name ("NVMe SSD", "ConnectX-5", ...).
    tech: str
    #: Sustained media read bandwidth, bytes/second.
    read_bandwidth: float
    #: Sustained media write bandwidth, bytes/second.
    write_bandwidth: float
    #: Per-operation read cost, seconds (command/verb/seek).
    read_op_cost: float
    #: Per-operation write cost, seconds.
    write_op_cost: float
    #: Per-request software setup cost, seconds.
    setup_cost: float
    #: Number of independent hardware channels/queues.
    channels: int
    #: Device capacity in bytes.
    capacity: int
    #: Relative device cost (the denominator of the paper's MEI metric);
    #: normalized so a SATA/NVMe SSD ~ 1.0 and RDMA-attached DRAM is the
    #: most expensive medium per byte.
    cost_factor: float = 1.0
    #: Fraction of the per-op *latency* that occupies the channel when ops
    #: are pipelined (queueing-theory service time vs response time).  An
    #: RDMA QP with many posted reads sustains far more than 1/latency
    #: ops/s; a disk arm is busy for its whole seek.
    occupancy_fraction: float = 1.0

    def __post_init__(self) -> None:
        # negated comparisons, so a NaN fails them too
        if not (self.read_bandwidth > 0 and self.write_bandwidth > 0):
            raise ConfigurationError(f"{self.tech}: bandwidths must be positive")
        if not (self.read_op_cost >= 0 and self.write_op_cost >= 0
                and self.setup_cost >= 0):
            raise ConfigurationError(f"{self.tech}: op costs must be non-negative")
        if self.channels < 1:
            raise ConfigurationError(f"{self.tech}: channels must be >= 1")
        if self.capacity <= 0:
            raise ConfigurationError(f"{self.tech}: capacity must be positive")
        if not self.cost_factor > 0:
            raise ConfigurationError(f"{self.tech}: cost_factor must be positive")
        if not 0.0 < self.occupancy_fraction <= 1.0:
            raise ConfigurationError(f"{self.tech}: occupancy_fraction must be in (0, 1]")


class FarMemoryDevice:
    """A far-memory backend device attached to a PCIe slot.

    Subclasses fix the :class:`DeviceProfile` and may override
    :meth:`_op_cost` for medium-specific behaviour (HDD seeks, RDMA
    doorbell batching).
    """

    #: Fraction of the media bandwidth a single channel can sustain.
    SINGLE_CHANNEL_FRACTION = 1.0

    def __init__(
        self,
        sim: Simulator,
        profile: DeviceProfile,
        link: PCIeLink | None = None,
        switch: PCIeSwitch | None = None,
        name: str = "",
    ) -> None:
        self.sim = sim
        self.profile = profile
        self.link = link
        self.switch = switch
        self.name = name or profile.tech
        self.channel_pool = Resource(sim, capacity=profile.channels, name=f"{self.name}:chan")
        # shared media pipes: all channels contend for the same flash/port/
        # copy-engine bandwidth (reads and writes have separate envelopes)
        self._media_read = FairShareLink(sim, profile.read_bandwidth, name=f"{self.name}:media-r")
        self._media_write = FairShareLink(sim, profile.write_bandwidth, name=f"{self.name}:media-w")
        # metrics
        self.bytes_read = 0.0
        self.bytes_written = 0.0
        self.ops = 0

    # ------------------------------------------------------------------
    # Analytic interface
    # ------------------------------------------------------------------
    def _op_cost(self, write: bool, granularity: int) -> float:  # simlint: dim[return=seconds]
        """Per-operation cost at a given granularity; subclasses may bend this."""
        return self.profile.write_op_cost if write else self.profile.read_op_cost

    def _media_bw(self, write: bool) -> float:  # simlint: dim[return=bytes/sec]
        return self.profile.write_bandwidth if write else self.profile.read_bandwidth

    def effective_bandwidth(self, write: bool = False, io_width: int | None = None) -> float:  # simlint: dim[return=bytes/sec]
        """Deliverable bytes/second given ``io_width`` channels and the PCIe slot."""
        width = self._clamp_width(io_width)
        media = self._media_bw(write) * min(
            1.0, self.SINGLE_CHANNEL_FRACTION * width
        )
        if self.link is not None:
            media = min(media, self.link.bandwidth)
        return media

    def _clamp_width(self, io_width: int | None) -> int:
        if io_width is None:
            return self.profile.channels
        if io_width < 1:
            raise ConfigurationError(f"io_width must be >= 1, got {io_width}")
        return min(io_width, self.profile.channels)

    def transfer_latency(  # simlint: dim[return=seconds, nbytes=bytes, granularity=bytes]
        self,
        nbytes: int,
        write: bool = False,
        granularity: int = PAGE_SIZE,
        io_width: int | None = None,
    ) -> float:
        """Idle-device service time for one request of ``nbytes``.

        ``granularity`` is the unit size individual operations move
        (RDMA chunk size / SSD block size / page size); ``io_width`` is the
        number of channels the request may fan out across.
        """
        if nbytes <= 0:
            return 0.0
        if granularity <= 0:
            raise ConfigurationError(f"granularity must be positive, got {granularity}")
        width = self._clamp_width(io_width)
        ops = math.ceil(nbytes / granularity)
        # Devices move whole granules; a partial last op still transfers a
        # full unit -> built-in I/O amplification at large grains.
        moved = ops * granularity
        per_op = self._op_cost(write, granularity) + granularity / self._media_bw(write)
        # Binding constraint among: the per-channel command streams (each
        # channel keeps one op in flight), the media bandwidth, and the
        # PCIe slot. Channels pipeline, so these overlap rather than add.
        stream = ops * per_op / min(width, ops)
        stream = max(stream, moved / self._media_bw(write))
        if self.link is not None:
            stream = max(stream, moved / self.link.bandwidth)
        return self.profile.setup_cost + stream

    def page_latency(self, write: bool = False, granularity: int = PAGE_SIZE) -> float:  # simlint: dim[return=seconds]
        """Service time for one page-sized (= one-granule) operation."""
        return self.transfer_latency(granularity, write=write, granularity=granularity, io_width=1)

    def op_occupancy(self, write: bool = False, granularity: int = PAGE_SIZE) -> float:  # simlint: dim[return=seconds]
        """Channel hold time of one pipelined op (throughput-side cost).

        Distinct from :meth:`page_latency` (the response time a blocked
        fault waits): with many ops in flight, each occupies its channel
        for only ``occupancy_fraction`` of its latency plus the wire time.
        """
        return (
            self._op_cost(write, granularity) * self.profile.occupancy_fraction
            + granularity / self._media_bw(write)
        )

    def batch_command_cost(self, count: int, write: bool, granularity: int) -> float:  # simlint: dim[return=seconds]
        """Serial command-phase seconds of ``count`` batched one-granule ops.

        Each batched op pays the full single-op serial cost, setup included
        (one-granule requests pay setup per request), so this is the
        command time ``count`` one-granule :meth:`read` /
        :meth:`write` calls pay in total.  Batched replay admission
        (:mod:`repro.swap.replay`) prices each aggregate step with it.
        """
        return count * (self.profile.setup_cost + self._op_cost(write, granularity))

    def stage_pipes(self, write: bool) -> list[FairShareLink]:
        """The fair-share pipes one payload crosses concurrently.

        Order matters and mirrors the DES I/O paths: media first, then the
        PCIe slot, then the shared switch.  A transfer occupies every stage
        simultaneously (DMA pipelining) and completes when the slowest one
        drains — ``_serve`` waits on exactly these pipes, for one op or
        for a batched replay's aggregate step.
        """
        pipes = [self._media_write if write else self._media_read]
        if self.link is not None:
            pipes.append(self.link._pipe)
        if self.switch is not None:
            pipes.append(self.switch._pipe)
        return pipes

    # ------------------------------------------------------------------
    # Discrete-event interface
    # ------------------------------------------------------------------
    def read(self, nbytes: int, granularity: int = PAGE_SIZE):
        """Read ``nbytes`` with channel + PCIe contention.

        A generator: the caller's own process drives it with ``yield
        from``.  Returns the seconds the request took.
        """
        return self._io(nbytes, write=False, granularity=granularity)

    def write(self, nbytes: int, granularity: int = PAGE_SIZE):
        """Write ``nbytes``, as :meth:`read` reads them."""
        return self._io(nbytes, write=True, granularity=granularity)

    def _serve(self, command: float, moved: float, write: bool):  # simlint: dim[command=seconds, moved=bytes]
        """Serve one request inside its channel grant.

        The command phase is serial on the channel; the payload then
        streams through every :meth:`stage_pipes` stage concurrently (DMA
        pipelining) and the request completes when the slowest stage
        drains.  When the caller runs alone (:meth:`Simulator.skip`), no
        other flow is in flight, so each stage is a lone flow on an idle
        pipe and the whole step resolves in closed form
        (:meth:`FairShareLink.solo_transfer`) at the float times the event
        loop would reach.
        """
        sim = self.sim
        if sim.skip(command):
            end = sim.now
            for pipe in self.stage_pipes(write):
                done = pipe.solo_transfer(moved)
                if done > end:
                    end = done
            if not sim.skip_to(end):
                raise SimulationError(
                    f"{self.name}: an event was scheduled while resolving a "
                    "solo transfer inline"
                )
            return
        yield sim.timeout(command)
        stages = [pipe.transfer(moved) for pipe in self.stage_pipes(write)]
        if len(stages) == 1:
            yield stages[0]
        else:
            yield sim.all_of(stages)

    def _io(self, nbytes: int, write: bool, granularity: int):
        if nbytes <= 0:
            return 0.0
        if granularity <= 0:
            raise ConfigurationError(f"granularity must be positive, got {granularity}")
        start = self.sim.now
        grant = self.channel_pool.try_acquire()
        if grant is None:
            grant = yield self.channel_pool.request()
        try:
            ops = math.ceil(nbytes / granularity)
            moved = ops * granularity  # whole granules cross the wire
            command = self.profile.setup_cost + ops * self._op_cost(write, granularity)
            yield from self._serve(command, moved, write)
        finally:
            self.channel_pool.release(grant)
        self.ops += 1
        # credit whole granules, not the requested bytes: a partial last op
        # still moves a full unit, and the batch engines count this way —
        # per-op and batched runs must report identical wire bytes
        if write:
            self.bytes_written += moved
        else:
            self.bytes_read += moved
        return self.sim.now - start

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.name} {self.profile.tech}>"
