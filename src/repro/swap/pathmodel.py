"""Closed-form swap-cost model for one (workload, device, configuration).

This converts the exact fault counts from a workload's miss-ratio curve
into kernel time, stall time, and bytes moved, under a given far-memory
path configuration.  Every experiment in the paper reduces to comparisons
of these quantities across configurations:

* Table VI  — sys-time ratio of xDM's tuned config vs a baseline config;
* Fig 14    — (bytes in+out) / runtime, with multi-path splitting;
* Fig 15/16 — smallest local size whose runtime meets an SLO;
* Fig 17    — per-op latency under channel contention.

Model structure (terms annotated with the paper mechanism they price):

``misses`` come from the MRC at the configured local size, inflated by
shared-channel LRU interference.  With transfer granularity *G* pages and
sequential ratio *s*, one far-memory op usefully batches
``cluster(G) = 1 + s*(G-1)`` of those misses (contiguous, soon-needed
neighbours) — so ops shrink with granularity on sequential workloads but
bytes *amplify* by ``G/cluster(G)`` on random ones.  Prefetch/readahead of
*R* pages hides the same cluster structure from the critical path:
``blocking = misses / cluster(max(R, G))``.  Ops are served by
``W = min(io_width, fault_parallelism, device channels)`` parallel
streams, floored by media and PCIe-slot bandwidth (the device model's
binding-constraint form).  Dirty evictions add a writeback stream that
overlaps reads (weight 0.5 on kernel time).  Hierarchical paths double the
data movement (two swap hops) and add a host-copy per op; VM-isolated
channels add a small per-op tax; shared channels queue behind co-tenants.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from types import SimpleNamespace
from typing import NamedTuple

from repro.devices.base import FarMemoryDevice
from repro.errors import ConfigurationError
from repro.swap.channel import ChannelMode, SHARED_LRU_INTERFERENCE, VM_ISOLATION_TAX
from repro.trace.fusion import PageFeatures
from repro.units import PAGE_SIZE, usec

__all__ = [
    "PathType", "SwapConfig", "SwapCost", "SwapPathModel", "MultiPathModel",
    "TemplateTerms", "GranularityTerms", "WidthTerms", "combine_cost",
]

#: Kernel work per *major* fault (handler entry, swap-cache, PTE rewire).
FAULT_COST = usec(1.8)
#: Kernel work per miss that was already prefetched (minor-fault fixup).
MINOR_FAULT_COST = usec(0.15)
#: Host-side extra copy per op on a hierarchical (VM->host->FM) path.
HIERARCHY_COPY_COST = usec(2.0)
#: Poll-vs-sleep policy: a handler busy-waits (charging the wait to sys
#: time) only when the device answers faster than a context switch is
#: worth; beyond this it sleeps and pays reschedule cost instead.
POLL_THRESHOLD = usec(12.0)
CONTEXT_SWITCH_COST = usec(4.0)
#: Queueing inflation per co-tenant on a shared channel (M/M/1-ish knee).
SHARED_QUEUE_FACTOR = 0.85


class PathType(str, enum.Enum):
    """Swap path topology."""

    FLAT = "flat"                  #: guest-direct, host-bypass (xDM)
    HIERARCHICAL = "hierarchical"  #: VM swap -> host swap -> FM (XMemPod-style)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class SwapConfig:
    """One far-memory path configuration (the console's decision vector)."""

    #: bytes per far-memory operation (RDMA chunk / SSD block / THP page)
    granularity: int = PAGE_SIZE
    #: channels/queues allocated to this path
    io_width: int = 1
    #: prefetch window in pages (kernel readahead / Fastswap prefetcher)
    readahead_pages: int = 8
    #: readahead deepens on detected sequential streams (Linux's window
    #: scaling / Fastswap's stride prefetcher) up to this many pages
    max_readahead_pages: int = 64
    #: block-layer bio merging: adjacent in-flight requests coalesce into
    #: ops of up to this many pages on sequential streams (elevator
    #: behaviour baselines get for free; xDM controls granularity
    #: explicitly and leaves this at 1)
    merge_pages: int = 1
    path: PathType = PathType.FLAT
    channel: ChannelMode = ChannelMode.ISOLATED
    #: co-located tasks on the same channel (SHARED mode only)
    co_tenants: int = 0
    #: True when the fault handler busy-waits on the device (Fastswap polls
    #: RDMA completions in-handler; Linux swap blocks in submit_bio).  xDM's
    #: event-driven queues complete asynchronously, so it sets False.
    synchronous_faults: bool = True

    def __post_init__(self) -> None:
        if self.granularity < PAGE_SIZE:
            raise ConfigurationError(f"granularity must be >= {PAGE_SIZE}, got {self.granularity}")
        if self.io_width < 1:
            raise ConfigurationError(f"io_width must be >= 1, got {self.io_width}")
        if self.readahead_pages < 1:
            raise ConfigurationError(f"readahead_pages must be >= 1, got {self.readahead_pages}")
        if self.max_readahead_pages < self.readahead_pages:
            raise ConfigurationError(
                f"max_readahead_pages ({self.max_readahead_pages}) must be >= "
                f"readahead_pages ({self.readahead_pages})"
            )
        if self.co_tenants < 0:
            raise ConfigurationError(f"co_tenants must be >= 0, got {self.co_tenants}")
        if self.merge_pages < 1:
            raise ConfigurationError(f"merge_pages must be >= 1, got {self.merge_pages}")


@dataclass(frozen=True)
class SwapCost:
    """Everything the experiments read off one configuration evaluation."""

    misses: int          #: page faults on swapped-out pages (after interference)
    blocking_faults: float  #: faults that actually stall the application
    ops_in: float        #: far-memory read operations
    ops_out: float       #: far-memory write (swap-out) operations
    bytes_in: float      #: bytes fetched (including granularity amplification)
    bytes_out: float     #: bytes written back
    sys_time: float      #: kernel-side swap time — Table VI's metric
    stall_time: float    #: critical-path stall added to the application
    per_op_latency: float  #: mean device latency of one swap op (Fig 17)
    t_in: float = 0.0    #: read-stream service time component
    t_out: float = 0.0   #: writeback-stream service time component
    fault_time: float = 0.0  #: kernel fault-handling time component

    @property
    def bytes_total(self) -> float:
        """Total swap traffic."""
        return self.bytes_in + self.bytes_out

    def runtime(self, compute_time: float) -> float:
        """End-to-end runtime given the workload's pure-compute time."""
        return compute_time + self.stall_time

    def throughput(self, compute_time: float) -> float:
        """Swapped bytes per second of runtime (Fig 14's metric)."""
        rt = self.runtime(compute_time)
        return self.bytes_total / rt if rt > 0 else 0.0


def _cluster(pages: float, seq_ratio: float) -> float:
    """Useful co-batched misses per op/window of ``pages`` pages."""
    return 1.0 + seq_ratio * (pages - 1.0)


class TemplateTerms(NamedTuple):
    """Terms fixed by the structural knobs (path, channel, co-tenants,
    readahead, merging, completion mode): one value for every candidate
    granularity and I/O width priced under the same template."""

    interference: float  #: shared-channel LRU inflation of the miss count
    seq_pf: float        #: sequential ratio left after stream switches
    merged_floor: int    #: bio-merge floor on the effective granularity (bytes)
    window: float        #: readahead window before the granule floor (pages)
    tax: float           #: channel-mode and queueing tax on per-op costs
    hop: float           #: swap hops the data makes (2 on hierarchical paths)
    extra: float         #: host-side copy per op (hierarchical paths)
    dirty_ratio: float   #: share of evictions written back
    link_bw: float | None  #: bandwidth of the device's PCIe slot, if any
    synchronous: bool    #: the handler waits on the device inside the fault


class GranularityTerms(NamedTuple):
    """Terms that depend on the effective granularity alone."""

    cluster: float    #: misses served per far-memory op
    major_div: float  #: misses per major fault
    map_mult: float   #: pages one major fault maps
    lat_in: float     #: response time a blocked fault waits for
    occ_in: float     #: channel hold time of one pipelined read op
    occ_out: float    #: channel hold time of one pipelined write op


class WidthTerms(NamedTuple):
    """Terms that depend on the configured I/O width alone."""

    width: float  #: parallel service streams the workload can really use
    bw_in: float  #: deliverable read bandwidth at this width
    bw_out: float  #: deliverable write bandwidth at this width


def _select(cond, a, b):
    return a if cond else b


#: ``maximum``/``minimum``/``where`` on Python floats, the namespace
#: :meth:`SwapPathModel.cost` runs :func:`combine_cost` under (numpy's
#: ufuncs cost about 50 µs a call on Python floats).
_SCALAR_OPS = SimpleNamespace(maximum=max, minimum=min, where=_select)


def combine_cost(xp, misses, g, t: TemplateTerms, gt: GranularityTerms, wt: WidthTerms) -> tuple:
    """The swap-cost formula over the three term groups.

    ``xp`` supplies ``maximum``, ``minimum`` and ``where``: ``numpy`` for
    candidate batches (every argument but ``t`` a column) or the scalar
    namespace for one configuration.  ``misses`` is the capacity-miss
    count after interference and ``g`` the effective granularity in
    bytes.  Returns the :class:`SwapCost` fields after ``misses``, in
    field order; the caller handles the miss-free case.
    """
    ops_in = misses / gt.cluster
    bytes_in = ops_in * g
    # steady state: each fault evicts one page; dirty ones are written
    # back, batched at the same granularity cluster
    ops_out = misses * t.dirty_ratio / gt.cluster
    bytes_out = ops_out * g
    major = misses / gt.major_div
    # pages arriving inside a major fault's granule are *mapped* by that
    # fault (THP: one 2 MiB fault covers 512 PTEs) and never fault at
    # all; only readahead-prefetched pages outside the granule pay the
    # minor-fault fixup
    mapped = major * gt.map_mult
    minor = xp.maximum(0.0, misses - mapped)
    width = wt.width
    hop = t.hop

    # binding constraint: parallel op streams vs media vs PCIe slot
    def stream_time(ops, occ, nbytes, bw):  # simlint: dim[return=seconds, occ=seconds]
        busy = ops > 0
        # the denominator is safe on idle rows, which are zeroed below
        span = ops * occ / xp.where(busy, xp.minimum(width, ops), 1.0)
        span = xp.maximum(span, nbytes * hop / bw)
        if t.link_bw is not None:
            span = xp.maximum(span, nbytes * hop / t.link_bw)
        return xp.where(busy, span, 0.0)

    t_in = stream_time(ops_in, gt.occ_in, bytes_in, wt.bw_in)
    t_out = stream_time(ops_out, gt.occ_out, bytes_out, wt.bw_out)

    # kernel time per fault: baselines wait synchronously inside the
    # handler (the wait is attributed to sys time); async designs only
    # pay the handler proper
    wait_charge = xp.where(gt.lat_in <= POLL_THRESHOLD, gt.lat_in, CONTEXT_SWITCH_COST)
    if not t.synchronous:
        # event-driven completion: one handler drains a whole batch of
        # completions, so the per-fault wait charge amortizes across
        # the outstanding window
        wait_charge = wait_charge / width
    fault_time = major * (FAULT_COST + wait_charge) + minor * MINOR_FAULT_COST

    # sys time (Table VI): fault handling plus the I/O service streams
    # (writeback overlaps reads -> half weight)
    sys_time = fault_time + t_in + 0.5 * t_out
    # stall: latency-bound regime (each major fault blocks its thread;
    # the app's faulting threads overlap their waits, so wall-clock
    # stall divides by the effective width) vs bandwidth-bound regime
    # (data cannot arrive faster than the pipes)
    stall_time = xp.maximum(
        (major * (FAULT_COST + gt.lat_in) + minor * MINOR_FAULT_COST) / width,
        t_in + 0.5 * t_out,
    )
    return (major, ops_in, ops_out, bytes_in, bytes_out, sys_time,
            stall_time, gt.lat_in, t_in, t_out, fault_time)


class SwapPathModel:
    """Analytic swap cost for one workload on one device."""

    def __init__(
        self,
        device: FarMemoryDevice,
        features: PageFeatures,
        fault_parallelism: float = 1.0,
    ) -> None:
        if not fault_parallelism >= 1.0:
            raise ConfigurationError(f"fault_parallelism must be >= 1, got {fault_parallelism}")
        self.device = device
        self.features = features
        self.fault_parallelism = fault_parallelism

    # -- the three term groups ---------------------------------------------
    def template_terms(self, config: SwapConfig) -> TemplateTerms:
        """Terms shared by every granularity and width under ``config``."""
        f = self.features
        shared = config.channel is ChannelMode.SHARED
        # shared-channel LRU interference inflates faults
        interference = 1.0
        if shared:
            interference += SHARED_LRU_INTERFERENCE * config.co_tenants
        # Window prefetchers and bio merging track ONE stream at a time:
        # when several sequential streams interleave (inference walking
        # weights + activations + KV cache at once), every stream switch
        # resets them. Granularity-based batching is immune — a granule
        # covers an address range, not an access order.
        # (kernels keep a few readahead contexts, so the kill is partial)
        seq_pf = f.seq_access_ratio * (1.0 - 0.8 * f.interleave_ratio)
        # block-layer merging lifts the *effective* granularity of adjacent
        # sequential requests (baselines); explicit tuning dominates it
        merged_pages = 1.0 + seq_pf * (config.merge_pages - 1)
        # the readahead window deepens on *single-stream* sequential access
        window = config.readahead_pages + seq_pf * (
            config.max_readahead_pages - config.readahead_pages
        )
        # channel-mode and path taxes on per-op costs
        tax = 1.0
        if config.channel is ChannelMode.VM_ISOLATED:
            tax += VM_ISOLATION_TAX
        if shared and config.co_tenants > 0:
            tax += SHARED_QUEUE_FACTOR * config.co_tenants  # queueing behind tenants
        # two swap hops move the data twice and copy it through the host
        hierarchical = config.path is PathType.HIERARCHICAL
        hop = 2.0 if hierarchical else 1.0
        extra = HIERARCHY_COPY_COST if hierarchical else 0.0
        link = self.device.link
        link_bw = None if link is None else link.bandwidth
        # positional: keywords would add ~0.6 µs to every scalar cost()
        return TemplateTerms(interference, seq_pf, int(merged_pages * PAGE_SIZE), window,
                             tax, hop, extra, 1.0 - f.load_ratio, link_bw,
                             config.synchronous_faults)

    def granularity_terms(self, t: TemplateTerms, g: int) -> GranularityTerms:
        """Terms at an effective granularity of ``g`` bytes per op."""
        f = self.features
        g_pages = g / PAGE_SIZE
        # Misses served per far-memory op: sequential neighbours batch
        # perfectly (order-driven batching of true sequential runs); beyond
        # that, the *fragment* structure allows weak spatial batching
        # (contiguous-but-not-in-order data still arrives usefully when
        # the reuse window is short).
        seq_cluster = _cluster(g_pages, f.seq_access_ratio)
        spatial = 1.0 + 0.15 * f.fragment_ratio * (1.0 - f.seq_access_ratio) * (g_pages - 1.0) ** 0.5
        cluster = min(g_pages, max(seq_cluster, spatial))
        # major faults: the prefetch window (readahead or, with THP-sized
        # granules, the whole granule mapped by one fault) absorbs the rest
        # into minor faults
        window = max(t.window, g_pages)
        major_div = max(_cluster(window, t.seq_pf), seq_cluster)
        dev = self.device
        # response time a blocked fault waits for (full latency) ...
        lat_in = dev.transfer_latency(g, write=False, granularity=g, io_width=1)
        lat_in = lat_in * t.tax * t.hop + t.extra
        # ... vs channel hold time of pipelined ops (occupancy)
        occ_in = dev.op_occupancy(write=False, granularity=g) * t.tax * t.hop + t.extra
        occ_out = dev.op_occupancy(write=True, granularity=g) * t.tax * t.hop + t.extra
        return GranularityTerms(cluster, major_div, seq_cluster, lat_in, occ_in, occ_out)

    def width_terms(self, io_width: int) -> WidthTerms:
        """Terms at a configured I/O width of ``io_width`` channels."""
        dev = self.device
        return WidthTerms(float(min(io_width, self.fault_parallelism, dev.profile.channels)),
                          dev.effective_bandwidth(False, io_width),
                          dev.effective_bandwidth(True, io_width))

    # -- main entry ----------------------------------------------------------
    def cost(self, local_pages: int, config: SwapConfig) -> SwapCost:
        """Evaluate the configuration at ``local_pages`` of residency."""
        t = self.template_terms(config)
        # capacity misses only: a never-touched anonymous page is allocated
        # (zero-filled) on first touch, not fetched from far memory
        misses = int(round(self.features.mrc.capacity_misses(local_pages) * t.interference))
        if misses == 0:
            idle = self.device.page_latency(granularity=config.granularity)
            return SwapCost(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, idle)
        g = max(config.granularity, t.merged_floor)
        return SwapCost(misses, *combine_cost(
            _SCALAR_OPS, misses, g, t,
            self.granularity_terms(t, g), self.width_terms(config.io_width),
        ))

    def local_pages_for(self, fm_ratio: float) -> int:
        """Resident pages when ``fm_ratio`` of the anon footprint is offloaded."""
        if not 0.0 <= fm_ratio <= 0.9:
            raise ConfigurationError(f"fm_ratio must be in [0, 0.9], got {fm_ratio}")
        return max(1, int(self.features.mrc.n_pages * (1.0 - fm_ratio)))


class MultiPathModel:
    """Traffic split across several simultaneous far-memory paths.

    Misses are partitioned across paths proportionally to each path's
    deliverable bandwidth (xDM's scale-out case); paths run in parallel, so
    transfer time is the slowest share, while kernel fault cost is paid
    once.  A shared PCIe switch, when present on the devices, caps the
    aggregate (Table VII's saturation check is built on this).
    """

    def __init__(self, paths: list[tuple[SwapPathModel, SwapConfig]]) -> None:
        if not paths:
            raise ConfigurationError("MultiPathModel needs at least one path")
        self.paths = paths

    def shares(self) -> list[float]:
        """Traffic share per path, proportional to deliverable bandwidth."""
        bws = [
            m.device.effective_bandwidth(False, c.io_width) for m, c in self.paths
        ]
        total = sum(bws)
        return [b / total for b in bws]

    def cost(self, local_pages: int) -> SwapCost:
        """Aggregate cost with misses split by bandwidth shares.

        Each path is evaluated on its share of the miss stream (transfer
        terms scale linearly in the high-miss regime); paths run in
        parallel, so the aggregate transfer time is the slowest share
        while fault-handling kernel time sums.
        """
        parts: list[SwapCost] = []
        for (model, config), share in zip(self.paths, self.shares()):
            full = model.cost(local_pages, config)
            parts.append(
                SwapCost(
                    misses=int(round(full.misses * share)),
                    blocking_faults=full.blocking_faults * share,
                    ops_in=full.ops_in * share,
                    ops_out=full.ops_out * share,
                    bytes_in=full.bytes_in * share,
                    bytes_out=full.bytes_out * share,
                    sys_time=full.sys_time * share,
                    stall_time=full.stall_time * share,
                    per_op_latency=full.per_op_latency,
                    t_in=full.t_in * share,
                    t_out=full.t_out * share,
                    fault_time=full.fault_time * share,
                )
            )
        t_in = max(p.t_in for p in parts)
        t_out = max(p.t_out for p in parts)
        # the shared PCIe root complex caps the aggregate of simultaneous
        # paths (Table VII's oversubscription point)
        switches = {id(m.device.switch): m.device.switch
                    for m, _ in self.paths if m.device.switch is not None}
        if len(switches) == 1:
            (switch,) = switches.values()
            t_in = max(t_in, sum(p.bytes_in for p in parts) / switch.bandwidth)
            t_out = max(t_out, sum(p.bytes_out for p in parts) / switch.bandwidth)
        fault_time = sum(p.fault_time for p in parts)
        misses = sum(p.misses for p in parts)
        blocking = sum(p.blocking_faults for p in parts)
        sys_time = fault_time + t_in + 0.5 * t_out
        stall = max(sum(p.stall_time for p in parts), t_in + 0.5 * t_out)
        return SwapCost(
            misses=misses,
            blocking_faults=blocking,
            ops_in=sum(p.ops_in for p in parts),
            ops_out=sum(p.ops_out for p in parts),
            bytes_in=sum(p.bytes_in for p in parts),
            bytes_out=sum(p.bytes_out for p in parts),
            sys_time=sys_time,
            stall_time=stall,
            per_op_latency=max(p.per_op_latency for p in parts),
            t_in=t_in,
            t_out=t_out,
            fault_time=fault_time,
        )
